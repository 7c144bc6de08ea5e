"""Coherent states, cat-state superpositions, thermal matrices and fidelity."""

from math import comb

import numpy as np

from .spin_ops import SpinSystem, angular_momentum, require_hermitian

# High-temperature polarization factor of the sodium-23 preset.
NA23_EPSILON = 0.426e-5


def coherent_state(sys: SpinSystem, vartheta: float, varphi: float) -> np.ndarray:
    """Maximal-polarization spin coherent state |zeta(vartheta, varphi)>.

    Amplitude on |I, m> is sqrt(C(2I, I+m)) sin(vartheta/2)^(I+m)
    cos(vartheta/2)^(I-m) exp(-i (I+m) varphi).  This polynomial form is
    the tan(vartheta/2)-parametrized state with the (1+|zeta|^2)^I
    normalization multiplied through, and stays finite at vartheta = pi
    where it reduces smoothly to |I, +I>.
    """
    if not (0 <= vartheta <= np.pi):
        raise ValueError("vartheta must lie in [0, pi]")
    twoI = round(2 * sys.I)
    n = np.arange(twoI, -1, -1)  # I+m, ordered 2I .. 0
    s, c = np.sin(vartheta / 2), np.cos(vartheta / 2)
    amp = (np.sqrt([float(comb(twoI, k)) for k in n.tolist()]) * s ** n
           * c ** (twoI - n) * np.exp(-1j * n * varphi))
    return amp / np.linalg.norm(amp)


def projector(state: np.ndarray) -> np.ndarray:
    return np.outer(state, state.conj())


def bloch_vector(sys: SpinSystem, state_or_rho: np.ndarray) -> np.ndarray:
    """(<Ix>, <Iy>, <Iz>) of a state vector or density matrix."""
    ops = angular_momentum(sys)
    rho = projector(state_or_rho) if state_or_rho.ndim == 1 else state_or_rho
    return np.array([np.trace(rho @ M).real for M in (ops.Ix, ops.Iy, ops.Iz)])


def cat_phase_prefactor(I: float) -> complex:
    """Global prefactor (1/sqrt2) exp[-i (pi/2) (2I(2I+2)-3)/12] of the
    two-branch superposition; -i/sqrt2 for I = 3/2."""
    return np.exp(-1j * (np.pi / 2) * (2 * I * (2 * I + 2) - 3) / 12) / np.sqrt(2)


def cat_state(sys: SpinSystem, vartheta: float, varphi: float, p: int) -> np.ndarray:
    """Cat state reached from |zeta(vartheta, varphi)> after a quarter period
    of the resonant nonlinear evolution with integer detuning index p.

    Exact two-branch form, valid for every I (integer or half-integer),
    every integer p and every vartheta: the quadratic propagator phase
    exp[-i pi m^2 / 2] splits into exactly two linear-in-m phase factors,
    i.e. two coherent states with azimuths a half-turn apart,

        G/sqrt2 ( e^{-i pi/4} |zeta(vartheta, varphi + delta)>
                + e^{+i pi/4} |zeta(vartheta, varphi + delta - pi)> ),

    delta = -pi (2I + p)/2 and G = exp[i pi (I(I+1)/3 - I^2 - p I)/2].
    The result equals the propagated coherent state elementwise (including
    the global phase), so it is normalized for every vartheta.
    """
    if p != round(p):
        raise ValueError("p must be an integer")
    p = round(p)
    I = sys.I
    delta = -np.pi * (2 * I + p) / 2
    G = np.exp(1j * np.pi * (I * (I + 1) / 3 - I * I - p * I) / 2)
    a = np.exp(-1j * np.pi / 4) * coherent_state(sys, vartheta, varphi + delta)
    b = np.exp(+1j * np.pi / 4) * coherent_state(sys, vartheta, varphi + delta - np.pi)
    return G / np.sqrt(2) * (a + b)


def traceless_part(M: np.ndarray) -> np.ndarray:
    d = M.shape[0]
    return M - np.trace(M) / d * np.eye(d)


def equilibrium_deviation(sys: SpinSystem) -> np.ndarray:
    """Unit-trace deviation matrix of the high-temperature equilibrium,
    identity/d + Iz."""
    ops = angular_momentum(sys)
    return np.eye(sys.d) / sys.d + ops.Iz.real


def thermal_density(sys: SpinSystem, epsilon: float = NA23_EPSILON, deviation=None):
    """First-order high-temperature density matrix.

    rho = (1 - epsilon)/d * identity + epsilon * deviation, with a
    unit-trace deviation matrix (defaults to the equilibrium identity/d + Iz
    form; pass a coherent-state projector for a prepared effective pure
    state).  Returns (rho, deviation).
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if deviation is None:
        deviation = equilibrium_deviation(sys)
    deviation = np.asarray(deviation, dtype=complex)
    if abs(np.trace(deviation) - 1) > 1e-9:
        raise ValueError("deviation matrix must have unit trace")
    rho = (1 - epsilon) / sys.d * np.eye(sys.d) + epsilon * deviation
    return rho, deviation


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Normalized Hilbert-Schmidt overlap |Tr(a b)| / sqrt(Tr a^2 Tr b^2).

    The standard quality metric for deviation density matrices; equals 1
    iff the two Hermitian matrices are proportional.
    """
    if rho_a.shape != rho_b.shape:
        raise ValueError("dimension mismatch")
    require_hermitian(rho_a, "first argument")
    require_hermitian(rho_b, "second argument")
    na = np.linalg.norm(rho_a)
    nb = np.linalg.norm(rho_b)
    if na == 0 or nb == 0:
        raise ValueError("fidelity of a zero matrix is undefined")
    return abs(np.trace(rho_a @ rho_b)) / (na * nb)
