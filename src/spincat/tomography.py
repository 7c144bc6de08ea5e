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
2 floor(I/2) blocks in all.  The design is factored block by block, and `measure` applies the
same blocks to rho's tensor coefficients.

"fid" mode detects the lines at the start of acquisition, after they
have precessed through the receiver-protection delay 1/nu_Q.  This is
the exact closed form of a noise-free least-squares fit of the sampled
free induction decay to the known line frequencies; T2 decay cancels in
that fit.  The line at (nu_Q/2)(2m+1) turns through pi(2m+1) in that
delay, a sign (-1)^d for every line at every nu_Q, so no map depends on
the NMR parameters.
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .spin_ops import (SpinSystem, _wigner_d_rows, angular_momentum, from_tensor_coefficients,
                       require_hermitian, tensor_band, tensor_coefficients, tensor_keys)
from .dynamics import NmrParams

# Acquisition that "fid" mode stands for: FID_POINTS samples FID_DWELL apart.
FID_POINTS = 4096
FID_DWELL = 12e-6
SVD_CUTOFF = 1e-10
COND_WARN = 1e6
NUQ_JITTER_HZ = 70.0


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


@dataclass(frozen=True)
class DesignSystem:
    keys: list                # (K, Q) column labels
    condition_number: float
    rank: int
    n_rows: int               # n_cycles 2I lines plus the trace row
    solve: tuple              # (P, cols, rows) per stack: zero-padded block pseudo-inverses,
                              # the columns they fill and the B entries they read
    blocks: tuple             # (rows, cols, M) per diagonal block of the map

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only (n_rows, d^2) map in tensor coordinates, assembled on first use."""
        A = np.zeros((self.n_rows, len(self.keys)), dtype=complex)
        for rows, cols, M in self.blocks:
            A[rows[:, None], cols] = M
        A.setflags(write=False)
        return A


class TomographyRankError(ValueError):
    """Raised when a pulse set cannot determine every tensor coefficient."""

    def __init__(self, rank, needed, null_keys):
        self.rank = rank
        self.needed = needed
        self.null_keys = null_keys
        super().__init__(
            f"design matrix rank {rank} < {needed}; "
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
    if abs(q) > twoI:
        raise ValueError(f"|q| must be <= {twoI}")
    N = 2 * twoI + 1
    return [TomographyPulse(theta, phi, (-(q + 1) * phi) % (2 * np.pi))
            for phi in (2 * np.pi * k / N for k in range(N))]


def pulse_set(sys: SpinSystem, nutation_angles=(np.pi / 2, np.pi / 4)):
    """Full rotation/phase-cycling set: the literature zero-order quadruple
    plus cycles for every order at each nutation angle.

    Two nutation angles are required: an exact pi/2 pulse is blind to the
    tensor components whose reduced rotation elements d^L_{+-1,m}(pi/2)
    vanish (e.g. rank 2, m = 0), so a second angle fills those in.
    """
    twoI = round(2 * sys.I)
    return [zero_order_cycle(sys)] + [coherence_cycle(sys, q, theta) for theta in nutation_angles
                                      for q in range(-twoI, twoI + 1)]


class _PulseSetKey(tuple):
    """A pulse set as a cache key: hashed by its length and end cycles, compared in full."""

    def __hash__(self):
        return hash((len(self), self[:1], self[-1:]))


def _line_gains(sys: SpinSystem, mode: str) -> np.ndarray:
    """gG[j, K] = g_j (T_K,-1)_{j+1,j}, 0 at K = 0: g the I+ gain, times (-1)^d in fid mode."""
    if mode not in ("coherence", "fid"):
        raise ValueError(f"unknown mode {mode!r}")
    gain = np.diagonal(angular_momentum(sys).Iplus, 1) * (-1.0) ** (sys.d * (mode == "fid"))
    return gain[:, None] * tensor_band(sys)[0][sys.d - 2, :, 1:].T   # Q = -1, rows 1..2I


@lru_cache(maxsize=4)
def _closed_form(sys: SpinSystem, cycles, mode: str):
    """Read-only (blocks, stacks) of a pulse set's map (module docstring), built once per
    (spin, cycles, mode).  blocks are its diagonal blocks (rows, cols, M), views into two
    zero-padded stacks (M, rows, cols): every block but the widest, and the widest.  Padded
    rows and columns point at a spare entry past the end.  Phase sums below 1e-12 are exact
    zeros, as sums of roots of unity."""
    gG = _line_gains(sys, mode)
    if not cycles:
        raise ValueError("the pulse set has no cycles")
    pulses = [np.array(cycle) for cycle in cycles]
    for c, p in enumerate(pulses):
        if not (p.size and np.isfinite(p).all()):
            raise ValueError(f"cycle {c} has {'a non-finite angle' if p.size else 'no pulses'}")
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
    views, stacks = [], []
    for group in (blocks[:-1], blocks[-1:]):
        n_r, n_c = (max(len(b[k]) for b in group) for k in (0, 1))
        M = np.zeros((len(group), n_r, n_c), dtype=complex)
        rows, cols = np.full((len(group), n_r), n_rows), np.full((len(group), n_c), len(K))
        for k, (rb, cb, Mb) in enumerate(group):
            rows[k, :len(rb)], cols[k, :len(cb)], M[k, :len(rb), :len(cb)] = rb, cb, Mb
            views.append((rb, cb, M[k, :len(rb), :len(cb)]))
        stacks.append((M, rows, cols))
    for arr in [arr for part in views + stacks for arr in part]:
        arr.setflags(write=False)
    return tuple(views), tuple(stacks)


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
    gG, (theta, phi, alpha) = _line_gains(sys, mode), pulse
    if not np.isfinite(pulse).all():
        raise ValueError("the pulse has a non-finite angle")
    (_, _, K, Q, _), twoI = tensor_band(sys), sys.d - 1
    D = _wigner_d_rows(twoI, -1, np.array([theta]))[K, twoI + Q, 0]
    c = np.exp(1j * (alpha + (phi - np.pi / 2) * (1 + Q))) * D * tensor_coefficients(sys, rho)
    return SpectrumLines(nmr.omega_Q / (4 * np.pi) * (2 * sys.m_values[1:] + 1), gG[:, K] @ c)


def _complex_noise(rng, sigma: float, shape) -> np.ndarray:
    """Complex Gaussian noise of standard deviation sigma, drawn as
    (real, imaginary) pairs in one call."""
    noise = rng.normal(scale=sigma / np.sqrt(2), size=(*shape, 2))
    return noise[..., 0] + 1j * noise[..., 1]


def add_line_noise(lines: SpectrumLines, sigma: float, seed) -> SpectrumLines:
    """Seeded complex Gaussian perturbation of the line amplitudes."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    if sigma == 0:
        return lines
    noise = _complex_noise(np.random.default_rng(seed), sigma, lines.amplitudes.shape)
    return replace(lines, amplitudes=lines.amplitudes + noise)


def jitter_nmr_params(nmr: NmrParams, seed, bound_hz: float = NUQ_JITTER_HZ) -> NmrParams:
    """Quadrupolar-coupling jitter: nu_Q perturbed uniformly within +-70 Hz,
    modelling temperature-induced line broadening."""
    rng = np.random.default_rng(seed)
    return replace(nmr, omega_Q=nmr.omega_Q + 2 * np.pi * rng.uniform(-bound_hz, bound_hz))


def measure(sys: SpinSystem, rho: np.ndarray, cycles, nmr: NmrParams,
            mode: str = "coherence", noise_sigma: float = 0.0, seed=None) -> np.ndarray:
    """Stacked cycled line amplitudes plus the trace-constraint entry.

    noise_sigma is a fraction of the largest noise-free line over the whole set.  Every acquired
    spectrum carries complex Gaussian noise of that deviation per line, so a cycle of N pulses
    carries noise_sigma / sqrt(N): one default_rng(seed) draw per cycle line, in cycle order.
    No map depends on nmr (module docstring); it is kept for callers that pass it by position.
    """
    require_hermitian(rho, "density matrix")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    cycles = _PulseSetKey(map(tuple, cycles))
    _, stacks = _closed_form(sys, cycles, mode)
    B = _apply(stacks, tensor_coefficients(sys, rho), len(cycles) * (sys.d - 1) + 1)
    if noise_sigma > 0:
        scale = max(np.abs(B[:-1]).max(), 1e-300) * noise_sigma / np.sqrt(
            [len(cycle) for cycle in cycles])
        B[:-1] += (scale[:, None] * _complex_noise(np.random.default_rng(seed), 1.0,
                                                   (len(cycles), sys.d - 1))).ravel()
    return B


def build_design_matrix(sys: SpinSystem, cycles, nmr: NmrParams,
                        mode: str = "coherence") -> DesignSystem:
    """Factor the pulse set's map block by block: one SVD per padded stack gives, over each
    block's own width, the rank and the conditioning of the whole map and the block
    pseudo-inverses.  nmr is not read, as in `measure`."""
    cycles = _PulseSetKey(map(tuple, cycles))
    blocks, stacks = _closed_form(sys, cycles, mode)
    keys = tensor_keys(sys)
    runs = [np.linalg.svd(M, full_matrices=False) for M, _, _ in stacks]
    own = [np.arange(s.shape[1]) < (cols < len(keys)).sum(axis=1, keepdims=True)
           for (_, _, cols), (_, s, _) in zip(stacks, runs)]   # zero past each block's width
    svals = np.concatenate([s[w] for (_, s, _), w in zip(runs, own)])
    kept = np.concatenate([(s * w > SVD_CUTOFF * svals.max()).sum(axis=1)
                           for (_, s, _), w in zip(runs, own)])
    if kept.sum() < len(keys):
        weak = np.zeros(len(keys), dtype=bool)
        for (_, cols, M), r in zip(blocks, kept):
            weak[cols] |= (np.abs(np.linalg.svd(M)[2][r:]) > 1e-6).any(axis=0)
        raise TomographyRankError(int(kept.sum()), len(keys), [k for k, w in zip(keys, weak) if w])
    solve = []
    for (U, s, Vh), w, (_, rows, cols) in zip(runs, own, stacks):
        inv = np.divide(1, s, out=np.zeros_like(s), where=w)
        solve.append(((Vh.conj().transpose(0, 2, 1) * inv[:, None]) @ U.conj().transpose(0, 2, 1),
                      cols, rows))
    return DesignSystem(keys, float(svals.max() / svals.min()), len(keys),
                        len(cycles) * (sys.d - 1) + 1, tuple(solve), blocks)


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


def run_tomography(sys: SpinSystem, rho: np.ndarray, nmr: NmrParams,
                   mode: str = "coherence", noise_sigma: float = 0.0, seed=None,
                   design: DesignSystem | None = None, cycles=None):
    """Convenience pipeline: synthesize, stack, reconstruct; nmr is not read, as in `measure`."""
    if cycles is None:
        cycles = pulse_set(sys)
    if design is None:
        design = build_design_matrix(sys, cycles, nmr, mode)
    B = measure(sys, rho, cycles, nmr, mode, noise_sigma=noise_sigma, seed=seed)
    return reconstruct(design, B, sys)


def reconstruction_record(sys: SpinSystem, rho, info, target=None,
                          noise_settings=None) -> dict:
    """JSON-serializable record of one reconstruction."""
    from .states import fidelity
    rec = {
        "spin": sys.I,
        "coefficients": {f"{L},{m}": [c.real, c.imag]
                         for (L, m), c in info["coefficients"].items()},
        "rho_re": rho.real.tolist(),
        "rho_im": rho.imag.tolist(),
        "hermitian_residual": info["hermitian_residual"],
        "condition_number": info["condition_number"],
        "ill_conditioned": info["ill_conditioned"],
        "noise": noise_settings or {},
    }
    if target is not None:
        rec["fidelity_vs_target"] = fidelity(rho, target)
    return rec
