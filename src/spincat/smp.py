"""Numerical design of strongly modulating pulses.

A pulse sequence is a chain of piecewise-constant RF segments; each
segment evolves the system under the full rotating-frame Hamiltonian
with the segment's amplitude and phase (a zero-amplitude segment is a
free-evolution delay).  The optimizer tunes several independent
modulations at once and scores the temporal average of the evolved
deviation matrices against the traceless target deviation: averaging
over modulations is what lets a set of unitaries turn the equilibrium
Iz deviation into an effective pure-state deviation.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .spin_ops import SpinSystem, angular_momentum, expm_hermitian
from .states import projector, traceless_part
from .dynamics import NmrParams, nmr_hamiltonian

# twice the amplitude of a 10 us pi/2 pulse; a cap at the calibration
# amplitude itself leaves no rotation headroom to differentiate the
# modulations and stalls the achievable fidelity (see notes in README)
DEFAULT_AMPLITUDE_CAP = 2 * np.pi * 50e3


@dataclass(frozen=True)
class PulseSegment:
    omega: float       # RF amplitude, rad/s
    phase: float       # rad
    duration: float    # s

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("segment amplitude must be non-negative")
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")


def delay(duration: float) -> PulseSegment:
    """Free-evolution interval (zero RF amplitude)."""
    return PulseSegment(0.0, 0.0, duration)


@dataclass
class PulseSequence:
    segments: list
    metadata: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def to_json(self) -> str:
        """Spectrometer-style interchange format: amplitudes in Hz, phases
        in degrees, durations in microseconds."""
        payload = {
            "segments": [{"amplitude_hz": s.omega / (2 * np.pi),
                          "phase_deg": np.degrees(s.phase),
                          "duration_us": s.duration * 1e6}
                         for s in self.segments],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PulseSequence":
        payload = json.loads(text)
        segs = [PulseSegment(2 * np.pi * s["amplitude_hz"],
                             np.radians(s["phase_deg"]),
                             s["duration_us"] * 1e-6)
                for s in payload["segments"]]
        return cls(segs, payload.get("metadata", {}))


def segment_hamiltonian(sys: SpinSystem, seg: PulseSegment, nmr: NmrParams) -> np.ndarray:
    return nmr_hamiltonian(sys, replace(nmr, omega_1=seg.omega, upsilon=seg.phase))


def sequence_propagator(sys: SpinSystem, seq: PulseSequence, nmr: NmrParams) -> np.ndarray:
    U = np.eye(sys.d, dtype=complex)
    for seg in seq.segments:
        U = expm_hermitian(segment_hamiltonian(sys, seg, nmr), seg.duration) @ U
    return U


def simulate_sequence(sys: SpinSystem, rho0: np.ndarray, seq: PulseSequence,
                      nmr: NmrParams) -> np.ndarray:
    U = sequence_propagator(sys, seq, nmr)
    return U @ rho0 @ U.conj().T


def temporal_average(sys: SpinSystem, variants, rho0: np.ndarray,
                     nmr: NmrParams) -> np.ndarray:
    """Arithmetic mean of the deviation matrix evolved under each variant."""
    if not variants:
        raise ValueError("need at least one pulse sequence")
    if rho0.shape != (sys.d, sys.d):
        raise ValueError("deviation matrix dimension mismatch")
    acc = np.zeros((sys.d, sys.d), dtype=complex)
    for seq in variants:
        acc += simulate_sequence(sys, rho0, seq, nmr)
    return acc / len(variants)


# ---------------------------------------------------------------------------
# optimizer internals


def _batched_segment_propagators(H_static, ops, x, dt):
    """Propagators and their parameter derivatives for every segment.

    x has shape (n_seq, n_seg, 2) = (amplitude, phase).  Returns U, shape
    (n_seq, n_seg, d, d), and the Frechet derivatives dU/d(amplitude, phase),
    shape (n_seq, n_seg, 2, d, d).
    """
    w = x[..., 0, None, None]
    cos = np.cos(x[..., 1])[..., None, None]
    sin = np.sin(x[..., 1])[..., None, None]
    axis = cos * ops.Ix + sin * ops.Iy
    dH = np.stack([axis, w * (-sin * ops.Ix + cos * ops.Iy)], axis=2)
    lam, V = np.linalg.eigh(H_static + w * axis)
    e = np.exp(-1j * lam * dt)
    Vh = np.swapaxes(V, -1, -2).conj()
    U = (V * e[..., None, :]) @ Vh
    # Loewner kernel for the Frechet derivative of exp(-i H dt)
    L = lam[..., :, None] - lam[..., None, :]
    num = e[..., :, None] - e[..., None, :]
    small = np.abs(L) < 1e-12 * np.maximum(1.0, np.abs(lam).max())
    mid = np.exp(-1j * dt * (lam[..., :, None] + lam[..., None, :]) / 2)
    G = np.where(small, -1j * dt * mid, num / np.where(small, 1.0, L))
    V, Vh, G = V[:, :, None], Vh[:, :, None], G[:, :, None]
    return U, V @ (G * (Vh @ dH @ V)) @ Vh


def _objective_and_gradient(x, sys, H_static, ops, dt, rho0, target, n_variants, n_seg):
    """Negative fidelity of the temporal-averaged evolved deviation against
    the target deviation, with its exact gradient in GRAPE form: segment k's
    derivative sits between the products of the segments before and after it."""
    U, dU = _batched_segment_propagators(H_static, ops, x.reshape(n_variants, n_seg, 2), dt)
    # pre[:, k] = U_{k-1} ... U_0 and suf[:, k] = U_{n_seg-1} ... U_k
    pre = np.empty((n_variants, n_seg + 1, sys.d, sys.d), dtype=complex)
    suf = np.empty_like(pre)
    pre[:, 0] = suf[:, n_seg] = np.eye(sys.d)
    for k, j in zip(range(n_seg), reversed(range(n_seg))):
        pre[:, k + 1] = U[:, k] @ pre[:, k]
        suf[:, j] = suf[:, j + 1] @ U[:, j]
    Utot = pre[:, -1]
    Utot_h = np.swapaxes(Utot, -1, -2).conj()
    rho_bar = (Utot @ rho0 @ Utot_h).mean(axis=0)
    nt = np.linalg.norm(target)
    a = np.trace(rho_bar @ target).real
    b = np.trace(rho_bar @ rho_bar).real
    F = a / (np.sqrt(b) * nt)
    # dF = Tr(drho_bar M) with M the derivative of the normalized overlap
    M = target / (np.sqrt(b) * nt) - (a / (nt * b ** 1.5)) * rho_bar
    right = pre[:, :-1] @ (rho0 @ Utot_h @ M)[:, None] @ suf[:, 1:]
    grad = 2 * np.einsum("vkcij,vkji->vkc", dU, right).real / n_variants
    return -F, -grad.ravel()


def _problem(sys, nmr, target_state, rho0):
    """(ops, H_static, rho0, target): H_static leaves out the RF term, rho0
    defaults to the Iz deviation, target is the target state's deviation."""
    ops = angular_momentum(sys)
    H_static = nmr_hamiltonian(sys, NmrParams(nmr.omega_L, nmr.omega_RF, nmr.omega_Q))
    if rho0 is None:
        rho0 = ops.Iz.copy()
    return ops, H_static, rho0, traceless_part(projector(target_state))


class _BudgetSpent(Exception):
    """Raised by the objective to stop L-BFGS-B once the budget is spent."""


@dataclass
class SmpResult:
    variants: list            # optimized PulseSequence per modulation
    fidelity: float
    history: list             # best objective value after each evaluation
    evaluations: int

    @property
    def sequence(self) -> PulseSequence:
        return self.variants[0]


def objective_for_test(sys, nmr, target_state, x, delta_t, n_variants, n_seg,
                       rho0=None):
    """The objective and gradient optimize_smp minimises, exposed for
    finite-difference checks; x carries the RF, so nmr's RF term is ignored."""
    ops, H_static, rho0, target = _problem(sys, nmr, target_state, rho0)
    return _objective_and_gradient(np.asarray(x, float), sys, H_static, ops,
                                   delta_t, rho0, target, n_variants, n_seg)


def optimize_smp(sys: SpinSystem, nmr: NmrParams, target_state: np.ndarray,
                 n_segments: int, delta_t: float, budget: int = 40000,
                 n_variants: int = 4, n_starts: int = 3, seed: int = 0,
                 amplitude_cap: float = DEFAULT_AMPLITUDE_CAP,
                 rho0: np.ndarray | None = None) -> SmpResult:
    """Design n_variants modulations of n_segments slices of length delta_t
    that carry the equilibrium Iz deviation into the target state's
    deviation under temporal averaging.

    L-BFGS-B runs from up to n_starts random start points in turn until
    budget objective evaluations, counted across all starts, are spent;
    the result is the best point evaluated.  budget = 0 returns the first
    start point unchanged, with its fidelity.  Deterministic for a fixed
    seed.
    """
    from scipy.optimize import minimize

    if n_segments < 1 or n_variants < 1:
        raise ValueError("need at least one segment and one variant")
    if amplitude_cap <= 0:
        raise ValueError("amplitude cap leaves no rotation capability")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    ops, H_static, rho0, target = _problem(sys, nmr, target_state, rho0)
    rng = np.random.default_rng(seed)
    shape = (n_variants, n_segments)

    def start_point():
        return np.stack([rng.uniform(0.3, 1.0, size=shape) * amplitude_cap,
                         rng.uniform(0, 2 * np.pi, size=shape)], axis=-1).ravel()

    def objective(x):
        return _objective_and_gradient(x, sys, H_static, ops, delta_t, rho0,
                                       target, n_variants, n_segments)

    history = []
    best_f, best_x = np.inf, None

    def fun(x):
        nonlocal best_f, best_x
        if len(history) == budget:
            raise _BudgetSpent
        f, g = objective(x)
        if f < best_f:
            best_f, best_x = f, x.copy()
        history.append(best_f)
        return f, g

    if budget == 0:
        best_x = start_point()
        best_f = objective(best_x)[0]
    else:
        bounds = [(0.0, amplitude_cap), (None, None)] * (n_variants * n_segments)
        # maxfun/maxiter at budget: scipy's defaults (15000) would end a start early
        try:
            for _ in range(max(1, n_starts)):
                minimize(fun, start_point(), jac=True, method="L-BFGS-B", bounds=bounds,
                         options={"maxfun": budget, "maxiter": budget,
                                  "ftol": 1e-14, "gtol": 1e-11})
        except _BudgetSpent:
            pass

    xb = best_x.reshape(shape + (2,))
    variants = []
    for v in range(n_variants):
        segs = [PulseSegment(max(0.0, xb[v, k, 0]), xb[v, k, 1] % (2 * np.pi), delta_t)
                for k in range(n_segments)]
        variants.append(PulseSequence(segs, {"variant": v, "fidelity": -best_f}))
    return SmpResult(variants, -best_f, history, len(history))
