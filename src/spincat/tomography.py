"""Simulated state tomography by global rotations and phase cycling.

A tomography pulse is a hard rotation of nutation angle theta about an
axis in the transverse plane set by the transmitter phase; the receiver
phase multiplies the acquired signal.  Stepping the transmitter phase in
N steps with receiver phases -(q+1) * phase and summing isolates the
contribution of the coherence order q of the input density matrix (the
detected coherence order is -1, hence the q+1).

Every detected line amplitude is linear in rho, so a pulse set compiles
into one map A in tensor coordinates, the design matrix: column (K, Q)
holds the cycled line amplitudes of rho = T_KQ, plus a trace row that
completes the system to full column rank d^2 (the identity gives no
lines).  As a pulse is Rz(phi) Rx(theta) Rz(-phi) and T_KQ has order Q,
the phases enter column (K, Q) only as e^{i(alpha + phi(1 + Q))}, a mask
over the 4I+1 orders: a cycle tuned to q has no rows outside Q = q.
`measure` is A c(rho) plus seeded line noise, c(rho) = Tr(T_KQ^dag rho).

"fid" mode detects the lines at the start of acquisition, after they
have precessed through the receiver-protection delay 1/nu_Q.  This is
the exact closed form of a noise-free least-squares fit of the sampled
free induction decay to the known line frequencies; T2 decay cancels in
that fit.  The line at (nu_Q/2)(2m+1) turns through pi(2m+1) in that
delay, a sign (-1)^d for every line at every nu_Q, so no map depends on
the NMR parameters.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spin_ops import (SpinSystem, angular_momentum, expm_hermitian, require_hermitian,
                       tensor_coefficients, tensor_keys, tensor_stack)
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


@dataclass
class DesignSystem:
    matrix: np.ndarray        # (n_measurements, d^2) read-only map in tensor coordinates
    keys: list                # (L, m) column labels
    condition_number: float
    rank: int
    pinv: np.ndarray          # (d^2, n_measurements) pseudo-inverse of matrix


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
    pulses = []
    for k in range(N):
        phi = 2 * np.pi * k / N
        alpha = (-(q + 1) * phi) % (2 * np.pi)
        pulses.append(TomographyPulse(theta, phi, alpha))
    return pulses


def pulse_set(sys: SpinSystem, nutation_angles=(np.pi / 2, np.pi / 4)):
    """Full rotation/phase-cycling set: the literature zero-order quadruple
    plus cycles for every order at each nutation angle.

    Two nutation angles are required: an exact pi/2 pulse is blind to the
    tensor components whose reduced rotation elements d^L_{+-1,m}(pi/2)
    vanish (e.g. rank 2, m = 0), so a second angle fills those in.
    """
    twoI = round(2 * sys.I)
    cycles = [zero_order_cycle(sys)]
    for theta in nutation_angles:
        for q in range(-twoI, twoI + 1):
            cycles.append(coherence_cycle(sys, q, theta))
    return cycles


def _line_frequencies(sys: SpinSystem, nu_Q: float) -> np.ndarray:
    """Hz offsets of the 2I single-quantum transitions; (nu_Q/2)(2m+1) for
    the transition between m+1 and m."""
    ms = sys.m_values[1:]  # lower level of each transition
    return (nu_Q / 2) * (2 * ms + 1)


@lru_cache(maxsize=4)
def _tensor_map(sys: SpinSystem, cycles, mode: str) -> np.ndarray:
    """Read-only A of shape (n_cycles 2I + 1, d^2), compiled once per (spin, cycles, mode):
    cycle c's mean line j of rho = T_KQ is g_j e^{i(alpha + phi(1 + Q))}
    (Rx(theta) T_KQ Rx(theta)^dag)_{j+1,j} summed over its pulses, g the I+ gain (times
    (-1)^d in "fid" mode); one product per nutation angle.  The last row is Tr T_KQ
    of the stored basis, sqrt(d) delta_K0 to round-off."""
    ops = angular_momentum(sys)
    gain = np.diagonal(ops.Iplus, 1)
    if mode == "fid":
        gain = gain * (-1.0) ** sys.d
    elif mode != "coherence":
        raise ValueError(f"unknown mode {mode!r}")
    twoI = sys.d - 1
    orders = np.arange(-twoI, twoI + 1)
    column_order = np.array(tensor_keys(sys))[:, 1] + twoI  # index into orders
    stack = tensor_stack(sys).reshape(sys.d ** 2, -1).T
    pulses = [np.array(cycle) for cycle in cycles]
    L = {}
    for angle in sorted(set(np.concatenate(pulses)[:, 0])):  # np.unique imports numpy.ma
        R = expm_hermitian(ops.Ix, angle)
        L[angle] = (R[1:, :, None] * R[:-1, None, :].conj()).reshape(twoI, -1) @ stack
    A = np.empty((len(pulses) * twoI + 1, sys.d ** 2), dtype=complex)  # no row list: one copy
    for c, (theta, phi, alpha) in enumerate(p.T for p in pulses):
        phase = np.exp(1j * (alpha[:, None] + np.outer(phi, 1 + orders)))
        mean = sum(L[angle] * phase[theta == angle].sum(axis=0)[column_order]
                   for angle in sorted(set(theta)))
        A[c * twoI:(c + 1) * twoI] = gain[:, None] * mean / len(theta)
    A[-1] = np.eye(sys.d).ravel() @ stack
    A.setflags(write=False)
    return A


def synthesize_spectrum(sys: SpinSystem, rho: np.ndarray, pulse: TomographyPulse,
                        nmr: NmrParams, mode: str = "coherence") -> SpectrumLines:
    """Line spectrum observed after one tomography pulse.

    "coherence" mode reads the single-quantum coherences directly; "fid"
    mode reads them at the start of acquisition, after the
    pre-acquisition delay 1/nu_Q.
    """
    require_hermitian(rho, "density matrix")
    freqs = _line_frequencies(sys, nmr.omega_Q / (2 * np.pi))
    # uncached: single pulses must not evict the pulse set's map
    A = _tensor_map.__wrapped__(sys, [[pulse]], mode)
    return SpectrumLines(freqs, A[:-1] @ tensor_coefficients(sys, rho))


def _complex_noise(rng, sigma: float, shape) -> np.ndarray:
    """Complex Gaussian noise of standard deviation sigma, drawn as
    (real, imaginary) pairs in one call."""
    noise = rng.normal(scale=sigma / np.sqrt(2), size=(*shape, 2))
    return noise[..., 0] + 1j * noise[..., 1]


def add_line_noise(lines: SpectrumLines, sigma: float, seed) -> SpectrumLines:
    """Seeded complex Gaussian perturbation of the line amplitudes."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
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

    noise_sigma is expressed as a fraction of the largest noise-free line
    amplitude over the whole measurement set and is applied per acquired
    spectrum (before cycle summation), drawn pulse by pulse in cycle order.
    """
    require_hermitian(rho, "density matrix")
    B = _tensor_map(sys, tuple(map(tuple, cycles)), mode) @ tensor_coefficients(sys, rho)
    if noise_sigma > 0:
        scale = max(np.abs(B[:-1]).max(), 1e-300) * noise_sigma
        sizes = np.array([len(cycle) for cycle in cycles])
        noise = _complex_noise(np.random.default_rng(seed), scale,
                               (sizes.sum(), sys.d - 1))
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        B[:-1] += (np.add.reduceat(noise, starts) / sizes[:, None]).ravel()
    return B


def build_design_matrix(sys: SpinSystem, cycles, nmr: NmrParams,
                        mode: str = "coherence") -> DesignSystem:
    """The pulse set's compiled map in tensor coordinates, rows the cycled line
    amplitudes plus the trace row.  One SVD of it gives the rank, the
    conditioning and the pseudo-inverse."""
    keys = tensor_keys(sys)
    A = _tensor_map(sys, tuple(map(tuple, cycles)), mode)
    U, svals, Vh = np.linalg.svd(A, full_matrices=False)
    rank = int((svals > SVD_CUTOFF * svals[0]).sum())
    if rank < len(keys):
        null = Vh[rank:]
        null_keys = [keys[i] for i in range(len(keys))
                     if np.abs(null[:, i]).max() > 1e-6]
        raise TomographyRankError(rank, len(keys), null_keys)
    pinv = (Vh.conj().T / svals) @ U[:, :rank].conj().T
    return DesignSystem(A, keys, float(svals[0] / svals[-1]), rank, pinv)


def reconstruct(design: DesignSystem, B: np.ndarray, sys: SpinSystem):
    """Least-squares solve for the tensor coefficients and reassembled
    density matrix.  Returns (rho, info) where rho is Hermitized and info
    reports coefficients, the Hermitian residual and conditioning."""
    if len(B) != design.matrix.shape[0]:
        raise ValueError("measurement vector length does not match design matrix")
    X = design.pinv @ B
    raw = np.tensordot(X, tensor_stack(sys), axes=1)
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
    """Convenience pipeline: synthesize, stack, reconstruct."""
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
