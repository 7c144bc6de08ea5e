"""Simulated state tomography by global rotations and phase cycling.

A tomography pulse is a hard rotation of nutation angle theta about an
axis in the transverse plane set by the transmitter phase; the receiver
phase multiplies the acquired signal.  Stepping the transmitter phase in
N steps with receiver phases -(q+1) * phase and summing isolates the
contribution of the coherence order q of the input density matrix (the
detected coherence order is -1, hence the q+1).

Every line amplitude is linear in rho, so a pulse set is one map A in tensor coordinates, the
design matrix, plus a trace row (the identity gives no lines).  Rx(theta) carries T_KQ into
sum_Q' e^{-i pi (Q'-Q)/2} d^K_Q'Q(theta) T_KQ', line j reads only Q' = -1 (Teles et al., J.
Chem. Phys. 126, 154506 (2007)), and the pulse Rz(phi) Rx(theta) Rz(-phi) adds e^{i phi(1+Q)}:
  A[(c, j), (K, Q)] = g_j (T_K,-1)_{j+1,j} sum_a S[c, a, Q] e^{-i pi(Q+1)/2} d^K_{-1,Q}(theta_a),
g the I+ gain and S[c, a, Q] cycle c's mean of e^{i(alpha + phi(1 + Q))} over its pulses of
angle theta_a.  A cycle tuned to q keeps only Q = q (Bodenhausen, Kogler & Ernst, J. Magn.
Reson. 58, 370 (1984)), so A is block-diagonal: cycles and orders linked through nonzero sums
span one block, T_00 another with the trace row.  For `pulse_set` each order Q != 0 (mod 4)
is a block and the orders Q = 0 (mod 4) with the zero-order quadruple one more, 4I + 2 -
2 floor(I/2) blocks in all.  Each pulse set is compiled and factored once, block by block, and
`measure` applies the same blocks to rho's tensor coefficients; a design's key is its PulseSet.

"fid" mode reads the lines after the receiver-protection delay 1/nu_Q, in which the line at
(nu_Q/2)(2m+1) turns through pi(2m+1): every line gain times (-1)^d, at every nu_Q, so no map
reads the NMR parameters.  No free induction decay is sampled or fitted.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spin_ops import (SpinSystem, _real, _wigner_d_rows, angular_momentum,
                       from_tensor_coefficients, require_hermitian, require_integer, require_real,
                       tensor_band, tensor_coefficients, tensor_keys)
from .dynamics import NmrParams
from .states import fidelity

SVD_CUTOFF = 1e-10
COND_WARN = 1e6


class TomographyPulse(NamedTuple):
    theta_qst: float
    phi_qst: float
    alpha_qst: float


@dataclass(frozen=True)
class SpectrumLines:
    frequencies: np.ndarray   # Hz offsets of the 2I single-quantum lines
    amplitudes: np.ndarray    # complex line amplitudes

    def __post_init__(self):
        if len(self.frequencies) != len(self.amplitudes):
            raise ValueError("frequency/amplitude length mismatch")


@dataclass(frozen=True, eq=False)   # one shared object per pulse set: identity is equality
class DesignSystem:
    keys: tuple               # (K, Q) column labels
    condition_number: float
    rank: int
    n_rows: int               # n_cycles 2I lines plus the trace row
    solve: tuple              # (P, cols, rows) per stack: zero-padded block pseudo-inverses,
                              # the columns they fill and the B entries they read
    stacks: tuple             # (M, rows, cols) per stack: the map's zero-padded diagonal blocks
    weak_keys: tuple          # (K, Q) outside the span of the kept right singular vectors
    sqrt_pulses: np.ndarray   # (n_cycles,) sqrt(N_c) of each cycle's N_c pulses, the noise divisor

    @property
    def matrix(self) -> np.ndarray:
        """The read-only (n_rows, d^2) map, assembled on each access from the stacks, whose
        padding writes zeros to a spare row and column: cached designs keep no dense map."""
        A = np.zeros((self.n_rows + 1, len(self.keys) + 1), dtype=complex)
        for M, rows, cols in self.stacks:
            A[rows[..., None], cols[:, None]] = M
        A.setflags(write=False)
        return A[:-1, :-1]


class TomographyRankError(ValueError):
    """Raised when a pulse set cannot determine every tensor coefficient."""

    def __init__(self, rank, needed, null_keys):
        self.rank, self.needed, self.null_keys = rank, needed, null_keys
        super().__init__(f"design matrix rank {rank} < {needed}; "
                         f"weakly determined components: {null_keys}")


def zero_order_cycle(sys: SpinSystem):
    """The four-pulse cycle selecting zero-order coherences: nutation pi/2,
    transmitter phases (pi/2, pi, 3pi/2, 0), receiver phases
    (0, 3pi/2, pi, pi/2)."""
    phis = (np.pi / 2, np.pi, 3 * np.pi / 2, 0.0)
    alphas = (0.0, 3 * np.pi / 2, np.pi, np.pi / 2)
    return [TomographyPulse(np.pi / 2, p, a) for p, a in zip(phis, alphas)]


def coherence_cycle(sys: SpinSystem, q: int, theta: float):
    """N-step cycle isolating order q; N = 4I+1 avoids aliasing over the
    available orders -2I..2I."""
    twoI = round(2 * sys.I)
    q, theta = require_integer(q, "q"), require_real(theta, "theta")
    if abs(q) > twoI:
        raise ValueError(f"|q| must be <= {twoI}")
    N = 2 * twoI + 1
    return [TomographyPulse(theta, phi, (-(q + 1) * phi) % (2 * np.pi))
            for phi in (2 * np.pi * k / N for k in range(N))]


class PulseSet(tuple):
    """An immutable pulse set, the key its design is cached under: a tuple of cycles, each read
    once by `_cycle_angles` into a tuple of TomographyPulses of floats (so a bool angle, though
    True == 1.0, is refused by name), and hashed once.  PulseSet(ps) is ps itself."""

    def __new__(cls, cycles):
        if type(cycles) is cls:
            return cycles
        if not np.iterable(cycles):
            raise ValueError(f"the pulse set is not a sequence of cycles: {cycles!r}")
        self = super().__new__(cls, (_cycle_angles(cycle, f"cycle {c}")
                                     for c, cycle in enumerate(cycles)))
        if not self:
            raise ValueError("the pulse set has no cycles")
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=4)
def pulse_set(sys: SpinSystem) -> PulseSet:
    """Full rotation/phase-cycling set: the literature zero-order quadruple plus cycles for every
    order at nutation angles pi/2 and pi/4, built once per spin into one shared PulseSet.

    Two nutation angles are required: an exact pi/2 pulse is blind to the
    tensor components whose reduced rotation elements d^L_{+-1,m}(pi/2)
    vanish (e.g. rank 2, m = 0), so a second angle fills those in.
    """
    n, angles = round(2 * sys.I), (np.pi / 2, np.pi / 4)
    return PulseSet([zero_order_cycle(sys)] + [
        coherence_cycle(sys, q, theta) for theta in angles for q in range(-n, n + 1)])


def _cycle_angles(cycle, where: str) -> tuple:
    """A cycle as n >= 1 float TomographyPulses; a pulse is 3 finite reals, else ValueError."""
    if not np.iterable(cycle):
        raise ValueError(f"{where} is not a sequence of pulses: {cycle!r}")
    if not (cycle := tuple(cycle)):   # an iterator is read once
        raise ValueError(f"{where} has no pulses")
    if bad := [k for k, p in enumerate(cycle) if not (isinstance(p, tuple) and len(p) == 3)]:
        raise ValueError(f"{where}: pulse {bad[0]} is not a tuple of 3 angles: {cycle[bad[0]]!r}")
    angles = np.array([_real(a) for pulse in cycle for a in pulse]).reshape(-1, 3)
    for k, a in zip(*np.nonzero(~np.isfinite(angles))):   # the first angle that is not a real
        require_real(cycle[k][a], f"{where}: pulse {k} {TomographyPulse._fields[a]}")
    return tuple(map(TomographyPulse._make, angles.tolist()))


def _line_gains(sys: SpinSystem, mode: str) -> np.ndarray:
    """gG[j, K] = g_j (T_K,-1)_{j+1,j}, 0 at K = 0: g the I+ gain, times (-1)^d in fid mode."""
    if mode not in ("coherence", "fid"):
        raise ValueError(f"unknown mode {mode!r}")
    gain = np.diagonal(angular_momentum(sys).Iplus, 1) * (-1.0) ** (sys.d * (mode == "fid"))
    return gain[:, None] * tensor_band(sys)[0][sys.d - 2, :, 1:].T   # Q = -1, rows 1..2I


@lru_cache(maxsize=4)
def _closed_form(sys: SpinSystem, cycles, mode: str) -> DesignSystem:
    """A pulse set's map (module docstring), compiled and factored once per (spin, cycles,
    mode) into a read-only DesignSystem, whatever its rank.  The stacks
    (M, rows, cols) zero-pad its diagonal blocks: every block but the widest, and the widest;
    padded rows and columns point at a spare entry past the end.  One SVD per stack gives the
    rank (sigma > SVD_CUTOFF sigma_max, padding adds sigma ~ 1e-16 sigma_max), the conditioning,
    the block pseudo-inverses (P, cols, rows) and the weak keys, outside the span of the kept
    right singular vectors.  Phase sums below 1e-12 are exact zeros, as sums of roots of unity."""
    gG, pulses = _line_gains(sys, mode), [np.array(cycle) for cycle in cycles]
    (band, _, K, Q, _), d, i = tensor_band(sys), sys.d, np.arange(sys.d)
    orders = np.arange(1 - d, d)
    angles = sorted(set(np.concatenate(pulses)[:, 0]))  # np.unique imports numpy.ma
    S = np.zeros((len(pulses), len(angles), len(orders)), dtype=complex)
    for s, (theta, phi, alpha) in zip(S, (p.T for p in pulses)):
        phase = np.exp(1j * (alpha[:, None] + np.outer(phi, 1 + orders)))
        for a, angle in enumerate(angles):
            s[a] = phase[theta == angle].sum(axis=0) / len(theta)
    D = _wigner_d_rows(d - 1, -1, np.array(angles)) * (-1j) ** (1 + orders)[:, None]  # [K, Q, a]
    n_rows = len(S) * (d - 1) + 1
    touch = np.abs(S).max(axis=1) > 1e-12            # (cycle, order) linked
    link = touch.T @ touch.astype(float) + np.eye(len(orders))
    for _ in range(len(link).bit_length()):          # transitive closure by squaring
        link = (link @ link > 0).astype(float)
    label = np.where(K > 0, link.argmax(axis=0)[Q + d - 1], -1)
    t00 = band[d - 1, 0].sum().reshape(1, 1)         # T_00 alone with the trace row
    blocks = [(np.array([n_rows - 1]), np.array([0]), t00)]
    for lab in sorted(set(label.tolist()) - {-1}):
        cols = np.flatnonzero(label == lab)
        cyc, q = np.flatnonzero(touch[:, link[lab] > 0].any(axis=1)), Q[cols] + d - 1
        C = (S[cyc][:, :, q] * D[K[cols], q].T).sum(axis=1)
        blocks.append(((cyc[:, None] * (d - 1) + i[:-1]).ravel(), cols,
                       (gG[:, K[cols]] * C[:, None]).reshape(-1, len(cols))))
    blocks.sort(key=lambda b: b[2].shape[::-1])   # by columns, then rows: the widest last
    stacks = []
    for group in (blocks[:-1], blocks[-1:]):
        n_r, n_c = (max(len(b[k]) for b in group) for k in (0, 1))
        M = np.zeros((len(group), n_r, n_c), dtype=complex)
        rows, cols = np.full((len(group), n_r), n_rows), np.full((len(group), n_c), len(K))
        for k, (rb, cb, Mb) in enumerate(group):
            rows[k, :len(rb)], cols[k, :len(cb)], M[k, :len(rb), :len(cb)] = rb, cb, Mb
        stacks.append((M, rows, cols))
    del blocks, group, Mb   # free the unpadded blocks before the SVDs: 11 MB of peak at I = 20
    runs = [np.linalg.svd(M, full_matrices=False) for M, _, _ in stacks]
    top = max(s.max() for _, s, _ in runs)
    keep = [s > SVD_CUTOFF * top for _, s, _ in runs]
    solve, weak = [], np.zeros(len(K) + 1, dtype=bool)
    for (U, s, Vh), k, (_, rows, cols) in zip(runs, keep, stacks):
        inv = np.divide(1, s, out=np.zeros_like(s), where=k)
        solve.append(((Vh.conj().transpose(0, 2, 1) * inv[:, None]) @ U.conj().transpose(0, 2, 1),
                      cols, rows))
        weak[cols] = 1 - (np.abs(Vh) ** 2 * k[..., None]).sum(axis=1) > 1e-12
    sqrt_pulses = np.sqrt([len(cycle) for cycle in cycles])
    for arr in [sqrt_pulses] + [arr for part in stacks + solve for arr in part]:
        arr.setflags(write=False)
    low = min(s[k].min() for (_, s, _), k in zip(runs, keep))
    keys = tuple(tensor_keys(sys))
    return DesignSystem(keys, float(top / low), int(sum(k.sum() for k in keep)), n_rows,
                        tuple(solve), tuple(stacks), tuple(k for k, w in zip(keys, weak) if w),
                        sqrt_pulses)


def _apply(stacks, x: np.ndarray, n: int) -> np.ndarray:
    """The n entries y[out] = M x[in] of the stacked block products (M, out, in), whose
    padding reads and writes a spare last entry of x and of y."""
    x, y = np.append(x, 0), np.zeros(n + 1, dtype=complex)
    for M, out, into in stacks:
        y[out] = (M @ x[into][..., None])[..., 0]
    return y[:-1]


def synthesize_spectrum(sys: SpinSystem, rho: np.ndarray, pulse: TomographyPulse,
                        nmr: NmrParams, mode: str = "coherence") -> SpectrumLines:
    """Line spectrum observed after one tomography pulse.

    "coherence" mode reads the single-quantum coherences directly; "fid" mode reads them at the
    start of acquisition, after the pre-acquisition delay 1/nu_Q.  Line j, at (nu_Q/2)(2m+1)
    between m+1 and m, is sum_KQ gG[j, K] e^{i(alpha + (phi - pi/2)(1 + Q))} d^K_{-1,Q}(theta) c_KQ.
    """
    require_hermitian(rho, "density matrix")
    gG, ((theta, phi, alpha),) = _line_gains(sys, mode), _cycle_angles((pulse,), "the spectrum")
    (_, _, K, Q, _), twoI = tensor_band(sys), sys.d - 1
    D = _wigner_d_rows(twoI, -1, np.array([theta]))[K, twoI + Q, 0]
    c = np.exp(1j * (alpha + (phi - np.pi / 2) * (1 + Q))) * D * tensor_coefficients(sys, rho)
    return SpectrumLines(nmr.omega_Q / (4 * np.pi) * (2 * sys.m_values[1:] + 1), gG[:, K] @ c)


def measure(sys: SpinSystem, rho: np.ndarray, cycles, nmr: NmrParams,
            mode: str = "coherence", noise_sigma: float = 0.0, seed=None) -> np.ndarray:
    """Stacked cycled line amplitudes plus the trace-constraint entry.

    noise_sigma is a fraction of the largest noise-free line over the whole set.  Every acquired
    spectrum carries complex Gaussian noise of that deviation per line, so a cycle of N pulses
    carries noise_sigma / design.sqrt_pulses: one default_rng(seed) draw per cycle line, in order.
    cycles is a PulseSet, or cycles to read into one.  No map depends on nmr (module
    docstring); it stays because callers, perfbench among them, pass it by position.
    """
    require_hermitian(rho, "density matrix")
    noise_sigma = require_real(noise_sigma, "noise_sigma", minimum=0)
    design = _closed_form(sys, PulseSet(cycles), mode)
    B = _apply(design.stacks, tensor_coefficients(sys, rho), design.n_rows)
    if noise_sigma > 0:
        scale = max(np.abs(B[:-1]).max(), 1e-300) * noise_sigma / design.sqrt_pulses
        # 1 / sqrt(2), not sqrt(0.5), which is one ulp larger and would change noisy outputs
        noise = np.random.default_rng(seed).normal(scale=1 / np.sqrt(2),
                                                   size=(len(scale), sys.d - 1, 2))
        B[:-1] += (scale[:, None] * (noise[..., 0] + 1j * noise[..., 1])).ravel()
    return B


def build_design_matrix(sys: SpinSystem, cycles, nmr: NmrParams,
                        mode: str = "coherence") -> DesignSystem:
    """The cached design (`_closed_form`) that every equal pulse set shares, or a
    TomographyRankError naming the weakly determined (K, Q) if its rank is short; nmr is unread
    and stays for positional callers, as in `measure`."""
    design = _closed_form(sys, PulseSet(cycles), mode)
    if design.rank < len(design.keys):
        raise TomographyRankError(design.rank, len(design.keys), list(design.weak_keys))
    return design


def reconstruct(design: DesignSystem, B: np.ndarray, sys: SpinSystem):
    """Least-squares solve for the tensor coefficients and reassembled
    density matrix.  Returns (rho, info) where rho is Hermitized and info
    reports coefficients, the Hermitian residual and conditioning."""
    if len(B) != design.n_rows:
        raise ValueError("measurement vector length does not match design matrix")
    X = _apply(design.solve, B, len(design.keys))
    raw = from_tensor_coefficients(sys, X)
    rho = (raw + raw.conj().T) / 2
    info = {
        "coefficients": dict(zip(design.keys, X)),
        "hermitian_residual": float(np.linalg.norm(raw - raw.conj().T) / 2),
        "condition_number": design.condition_number,
        "ill_conditioned": design.condition_number > COND_WARN,
    }
    return rho, info


def reconstruction_record(sys: SpinSystem, rho, info, target, noise_settings=None) -> dict:
    """JSON-serializable record of one reconstruction, scored against the target state."""
    return {
        "spin": sys.I,
        "coefficients": {f"{L},{m}": [c.real, c.imag]
                         for (L, m), c in info["coefficients"].items()},
        "rho_re": rho.real.tolist(),
        "rho_im": rho.imag.tolist(),
        "hermitian_residual": info["hermitian_residual"],
        "condition_number": info["condition_number"],
        "ill_conditioned": info["ill_conditioned"],
        "noise": noise_settings or {},
        "fidelity_vs_target": fidelity(rho, target),
    }
