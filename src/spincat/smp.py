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
        if not 0 <= self.omega < np.inf:
            raise ValueError(f"segment omega must be finite and non-negative, got {self.omega}")
        if not 0 < self.duration < np.inf:
            raise ValueError(f"segment duration must be finite and positive, got {self.duration}")


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


def _objective_and_gradient(x, sys, H_static, ops, dt, rho0, target, n_variants, n_seg):
    """Negative fidelity of the temporal-averaged evolved deviation against
    the target deviation, and its exact GRAPE gradient in each segment's
    eigenbasis: U_k = W diag(h^2) W^H with lam, V from the real eigh of
    H_static + w Ix, h = exp(-i lam dt/2) and W = Rz(phi) V.  With the prefix
    P_k = U_{k-1} ... U_0 and A = rho0 Utot^H M Utot (M = dF/d rho_bar), the
    derivative along segment k is 2 Re Tr(U_k^H dU_k Y_k), Y_k = P_k A P_k^H.
    Phase: dU/dphi = -i [Iz, U] and U_k Y_k U_k^H = Y_{k+1} give
    2 Im sum_a m_a (Y_{k+1} - Y_k)_aa.  Amplitude: with B_k = W^H P_k,
    2 Re sum_ij C_ij (B_k A B_k^H)_ji, C_ij = -i dt conj(h_i) h_j (V^T Ix V)_ij
    sinc(dt (lam_i - lam_j) / 2): the Loewner divided difference, degenerate
    limit included.  Products with A on the right run one per variant."""
    x = x.reshape(n_variants, n_seg, 2)
    m = ops.Iz.diagonal().real
    lam, V = np.linalg.eigh(H_static.real + x[..., 0, None, None] * ops.Ix.real)
    h = np.exp(-0.5j * dt * lam)
    W = np.exp(-1j * x[..., 1, None, None] * m[:, None]) * V
    Wh = np.swapaxes(W, -1, -2).conj()
    U = (W * (h * h)[..., None, :]) @ Wh
    P = np.empty((n_variants, n_seg + 1, sys.d, sys.d), dtype=complex)
    P[:, 0] = np.eye(sys.d)
    for k in range(n_seg):
        P[:, k + 1] = U[:, k] @ P[:, k]
    Utot, Utot_h = P[:, -1], np.swapaxes(P[:, -1], -1, -2).conj()
    rho_bar = (Utot @ rho0 @ Utot_h).mean(axis=0)
    nt = np.linalg.norm(target)
    a, b = np.trace(rho_bar @ target).real, np.trace(rho_bar @ rho_bar).real
    F = a / (np.sqrt(b) * nt)
    M = target / (np.sqrt(b) * nt) - (a / (nt * b ** 1.5)) * rho_bar
    A = rho0 @ Utot_h @ M @ Utot
    PA = (P.reshape(n_variants, -1, sys.d) @ A).reshape(P.shape)
    phase = 2 * np.diff((PA * P.conj()).sum(-1) @ m, axis=1).imag   # (Y_k)_aa from P_k A
    L = lam[..., :, None] - lam[..., None, :]
    C = (-1j * dt * h.conj()[..., :, None] * h[..., None, :] * np.sinc(dt * L / (2 * np.pi))
         * (np.swapaxes(V, -1, -2) @ ops.Ix.real @ V))
    B = Wh @ P[:, :-1]
    BA = (B.reshape(n_variants, -1, sys.d) @ A).reshape(B.shape)
    amp = 2 * np.einsum("vkij,vkji->vk", C, BA @ np.swapaxes(B, -1, -2).conj()).real
    return -F, -np.stack([amp, phase], axis=-1).ravel() / n_variants


def _problem(sys, nmr, target_state, rho0):
    """(ops, H_static, rho0, target): H_static leaves out the RF term, so it is
    diagonal and commutes with Iz, as the propagators' phase rule needs; rho0
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
    starts: list  # per start run: L-BFGS-B message, nit, nfev and its best fidelity

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
    if not 0 < amplitude_cap < np.inf:
        raise ValueError(f"amplitude_cap must be finite and positive, got {amplitude_cap}")
    if not 0 < delta_t < np.inf:
        raise ValueError(f"delta_t must be finite and positive, got {delta_t}")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    ops, H_static, rho0, target = _problem(sys, nmr, target_state, rho0)
    rng = np.random.default_rng(seed)
    shape = (n_variants, n_segments)

    def start_point():
        return np.stack([rng.uniform(0.3, 1.0, size=shape) * amplitude_cap,
                         rng.uniform(0, 2 * np.pi, size=shape)], axis=-1).ravel()

    args = (sys, H_static, ops, delta_t, rho0, target, n_variants, n_segments)
    history, values, starts = [], [], []
    best_f, best_x = np.inf, None

    def fun(x):
        nonlocal best_f, best_x
        if len(history) == budget:
            raise _BudgetSpent
        f, g = _objective_and_gradient(x, *args)
        if f < best_f:
            best_f, best_x = f, x.copy()
        history.append(best_f)
        values.append(f)
        return f, g

    if budget == 0:
        best_x = start_point()
        best_f = _objective_and_gradient(best_x, *args)[0]
    else:
        bounds = [(0.0, amplitude_cap), (None, None)] * (n_variants * n_segments)
        for _ in range(max(1, n_starts)):
            if len(history) == budget:
                break
            first, steps = len(history), []
            # maxfun/maxiter at budget: scipy's defaults (15000) would end a start early
            try:
                res = minimize(fun, start_point(), jac=True, method="L-BFGS-B", bounds=bounds,
                               callback=lambda _: steps.append(None),
                               options={"maxfun": budget, "maxiter": budget,
                                        "ftol": 1e-14, "gtol": 1e-11})
            except _BudgetSpent:
                res = {"message": "budget spent", "nit": len(steps)}
            starts.append({"message": res["message"], "nit": res["nit"],
                           "nfev": len(history) - first, "fidelity": -min(values[first:])})

    xb = best_x.reshape(shape + (2,))
    variants = []
    for v in range(n_variants):
        segs = [PulseSegment(max(0.0, xb[v, k, 0]), xb[v, k, 1] % (2 * np.pi), delta_t)
                for k in range(n_segments)]
        variants.append(PulseSequence(segs, {"variant": v, "fidelity": -best_f}))
    return SmpResult(variants, -best_f, history, len(history), starts)
