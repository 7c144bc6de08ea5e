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
from dataclasses import dataclass, field

import numpy as np

from .spin_ops import SpinSystem, angular_momentum, require_integer, require_real
from .states import projector, traceless_part
from .dynamics import NmrParams, nmr_hamiltonian

# twice the amplitude of a 10 us pi/2 pulse; a cap at the calibration
# amplitude itself leaves no rotation headroom to differentiate the
# modulations and stalls the achievable fidelity (see notes in README)
AMPLITUDE_CAP = 2 * np.pi * 50e3
# a segment's fields: its attribute, its key in PulseSequence.to_json and its bounds
_FIELDS = (("omega", "amplitude_hz", {"minimum": 0}), ("phase", "phase_deg", {}),
           ("duration", "duration_us", {"exclusive_minimum": 0}))


@dataclass(frozen=True)
class PulseSegment:
    omega: float       # RF amplitude, rad/s
    phase: float       # rad
    duration: float    # s

    def __post_init__(self):
        for name, _, bound in _FIELDS:
            object.__setattr__(self, name, require_real(getattr(self, name), name, **bound))


@dataclass
class PulseSequence:
    segments: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.segments = list(self.segments)   # read once, so a generator of segments is kept
        if bad := [k for k, s in enumerate(self.segments) if not isinstance(s, PulseSegment)]:
            raise ValueError(f"segment {bad[0]} is not a PulseSegment: {self.segments[bad[0]]!r}")
        if not isinstance(self.metadata, dict):
            raise ValueError(f'a sequence\'s "metadata" is a JSON object, not {self.metadata!r}')

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
        """The inverse of to_json.  A missing key, or a value that is not a finite real (a bool
        is not) within its bounds, is a ValueError naming the segment and the key; so is a
        "metadata" that is not a JSON object.  A missing "metadata" reads as {}."""
        payload, segs = json.loads(text), []
        if not (isinstance(payload, dict) and isinstance(payload.get("segments"), list)):
            raise ValueError('a pulse sequence is a JSON object with a "segments" list')
        for k, s in enumerate(payload["segments"]):
            if missing := [key for _, key, _ in _FIELDS if not isinstance(s, dict) or key not in s]:
                raise ValueError(f"segment {k} has no {missing[0]!r}")
            hz, deg, us = (require_real(s[key], f"segment {k} {key}", **bound)
                           for _, key, bound in _FIELDS)
            segs.append(PulseSegment(2 * np.pi * hz, np.radians(deg), us * 1e-6))
        return cls(segs, payload.get("metadata", {}))


# ---------------------------------------------------------------------------
# optimizer internals


def _objective_and_gradient(x, H_static, ops, target, dt, n_variants, n_seg):
    """Negative fidelity of the temporal-averaged evolved deviation against
    the target deviation, and its exact GRAPE gradient in each segment's
    eigenbasis: U_k = W diag(h^2) W^H with lam, V from the real eigh of
    H_static + w Ix, h = exp(-i lam dt/2) and W = Rz(phi) V.  With the prefix
    P_k = U_{k-1} ... U_0 and A = Iz Utot^H M Utot (M = dF/d rho_bar), the
    derivative along segment k is 2 Re Tr(U_k^H dU_k Y_k), Y_k = P_k A P_k^H.
    Phase: dU/dphi = -i [Iz, U] and U_k Y_k U_k^H = Y_{k+1} give
    2 Im sum_a m_a (Y_{k+1} - Y_k)_aa.  Amplitude: with B_k = W^H P_k,
    2 Re sum_ij C_ij (B_k A B_k^H)_ji, C_ij = -i dt conj(h_i) h_j (V^T Ix V)_ij
    sinc(dt (lam_i - lam_j) / 2): the Loewner divided difference, degenerate
    limit included.  Products with A on the right run one per variant."""
    x = x.reshape(n_variants, n_seg, 2)
    m, d = ops.Iz.diagonal().real, len(ops.Iz)
    lam, V = np.linalg.eigh(H_static.real + x[..., 0, None, None] * ops.Ix.real)
    h = np.exp(-0.5j * dt * lam)
    W = np.exp(-1j * x[..., 1, None, None] * m[:, None]) * V
    Wh = np.swapaxes(W, -1, -2).conj()
    U = (W * (h * h)[..., None, :]) @ Wh
    P = np.empty((n_variants, n_seg + 1, d, d), dtype=complex)
    P[:, 0] = np.eye(d)
    for k in range(n_seg):
        P[:, k + 1] = U[:, k] @ P[:, k]
    Utot, Utot_h = P[:, -1], np.swapaxes(P[:, -1], -1, -2).conj()
    rho_bar = (Utot @ ops.Iz @ Utot_h).mean(axis=0)   # from the equilibrium Iz deviation
    nt = np.linalg.norm(target)
    a, b = np.trace(rho_bar @ target).real, np.trace(rho_bar @ rho_bar).real
    F = a / (np.sqrt(b) * nt)
    M = target / (np.sqrt(b) * nt) - (a / (nt * b ** 1.5)) * rho_bar
    A = ops.Iz @ Utot_h @ M @ Utot
    PA = (P.reshape(n_variants, -1, d) @ A).reshape(P.shape)
    phase = 2 * np.diff((PA * P.conj()).sum(-1) @ m, axis=1).imag   # (Y_k)_aa from P_k A
    L = lam[..., :, None] - lam[..., None, :]
    C = (-1j * dt * h.conj()[..., :, None] * h[..., None, :] * np.sinc(dt * L / (2 * np.pi))
         * (np.swapaxes(V, -1, -2) @ ops.Ix.real @ V))
    B = Wh @ P[:, :-1]
    BA = (B.reshape(n_variants, -1, d) @ A).reshape(B.shape)
    amp = 2 * np.einsum("vkij,vkji->vk", C, BA @ np.swapaxes(B, -1, -2).conj()).real
    return -F, -np.stack([amp, phase], axis=-1).ravel() / n_variants


def _problem(sys, nmr, target_state):
    """(H_static, ops, target): H_static leaves out the RF term, so it is diagonal
    and commutes with Iz, as the propagators' phase rule needs; target is the
    target state's deviation."""
    if not (np.shape(target_state) == (sys.d,) and np.isfinite(target_state).all()
            and np.any(target_state)):
        raise ValueError(f"target_state must be a finite, nonzero vector of length {sys.d}")
    ops = angular_momentum(sys)
    H_static = nmr_hamiltonian(sys, NmrParams(nmr.omega_L, nmr.omega_RF, nmr.omega_Q))
    return H_static, ops, traceless_part(projector(target_state))


class _BudgetSpent(Exception):
    """Raised by the objective to stop L-BFGS-B once the budget is spent."""


@dataclass
class SmpResult:
    variants: list            # optimized PulseSequence per modulation
    fidelity: float
    history: list             # best objective value after each evaluation
    evaluations: int
    starts: list  # per start run: L-BFGS-B message, nit, nfev and its best fidelity


def objective_for_test(sys, nmr, target_state, x, delta_t, n_variants, n_seg):
    """The objective and gradient optimize_smp minimises, exposed for
    finite-difference checks; x carries the RF, so nmr's RF term is ignored."""
    return _objective_and_gradient(np.asarray(x, float), *_problem(sys, nmr, target_state),
                                   delta_t, n_variants, n_seg)


def optimize_smp(sys: SpinSystem, nmr: NmrParams, target_state: np.ndarray,
                 n_segments: int, delta_t: float, budget: int = 40000,
                 n_variants: int = 4, n_starts: int = 3, seed: int = 0) -> SmpResult:
    """Design n_variants modulations of n_segments slices of length delta_t
    that carry the equilibrium Iz deviation into the target state's
    deviation under temporal averaging, each segment's amplitude in [0, AMPLITUDE_CAP].

    L-BFGS-B runs from up to n_starts random start points in turn until
    budget >= 1 objective evaluations, counted across all starts, are spent;
    the result is the best point evaluated.  Deterministic for a fixed seed.
    """
    from scipy.optimize import minimize

    n_segments, n_variants, n_starts = (
        require_integer(value, name, 1) for name, value in (
            ("n_segments", n_segments), ("n_variants", n_variants), ("n_starts", n_starts)))
    budget = require_integer(budget, "budget", 1)
    delta_t = require_real(delta_t, "delta_t", exclusive_minimum=0)
    args = (*_problem(sys, nmr, target_state), delta_t, n_variants, n_segments)
    rng = np.random.default_rng(seed)
    shape = (n_variants, n_segments)

    def start_point():
        return np.stack([rng.uniform(0.3, 1.0, size=shape) * AMPLITUDE_CAP,
                         rng.uniform(0, 2 * np.pi, size=shape)], axis=-1).ravel()

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

    bounds = [(0.0, AMPLITUDE_CAP), (None, None)] * (n_variants * n_segments)
    for _ in range(n_starts):
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
