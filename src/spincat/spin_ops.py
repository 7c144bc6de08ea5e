"""Angular momentum algebra for a single spin of arbitrary quantum number.

Operators are plain complex numpy arrays in the Dicke basis with the
m = +I state first (index 0) and m = -I last (index d-1).  Hamiltonians
built on top of these operators are stored divided by hbar, i.e. in
angular-frequency units (rad/s).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, exp

import numpy as np

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SpinSystem:
    """A spin with quantum number I living in a (2I+1)-dimensional space."""

    I: float

    def __post_init__(self):
        twoI = 2 * self.I
        if abs(twoI - round(twoI)) > 1e-12 or round(twoI) < 1:
            raise ValueError(f"2I must be a positive integer, got I={self.I}")

    @property
    def d(self) -> int:
        return round(2 * self.I) + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers ordered m = I, I-1, ..., -I."""
        return self.I - np.arange(self.d)


def is_hermitian(M, tol=HERMITICITY_TOL):
    return np.abs(M - M.conj().T).max() <= tol


def require_hermitian(M, what="operator"):
    if not is_hermitian(M):
        raise ValueError(f"{what} is not Hermitian within {HERMITICITY_TOL:g}")


@dataclass(frozen=True)
class SpinOperators:
    Ix: np.ndarray
    Iy: np.ndarray
    Iz: np.ndarray
    Isq: np.ndarray
    Iplus: np.ndarray
    Iminus: np.ndarray


@lru_cache(maxsize=None)
def _angular_momentum_cached(twoI: int) -> SpinOperators:
    I = twoI / 2
    d = twoI + 1
    ms = I - np.arange(d)
    Iz = np.diag(ms).astype(complex)
    Iplus = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        m = ms[k]
        Iplus[k - 1, k] = np.sqrt(I * (I + 1) - m * (m + 1))
    Iminus = Iplus.conj().T
    Ix = (Iplus + Iminus) / 2
    Iy = (Iplus - Iminus) / 2j
    Isq = I * (I + 1) * np.eye(d, dtype=complex)
    for M in (Ix, Iy, Iz, Isq, Iplus, Iminus):
        M.setflags(write=False)
    return SpinOperators(Ix, Iy, Iz, Isq, Iplus, Iminus)


def angular_momentum(sys: SpinSystem) -> SpinOperators:
    """Ix, Iy, Iz, I^2 and the ladder operators for the given spin."""
    return _angular_momentum_cached(round(2 * sys.I))


@lru_cache(maxsize=None)
def _tensor_basis_cached(twoI: int):
    """Orthonormal irreducible tensor operators T_KQ, Tr(T_KQ^dag T_K'Q') = dd.

    T_KK is proportional to (-1)^K Iplus^K; lower orders follow from the
    commutator ladder [I-, T_KQ] = sqrt(K(K+1)-Q(Q-1)) T_K,Q-1, which
    preserves Frobenius norms (adjoint action of su(2) is unitary on the
    operator space).
    """
    ops = _angular_momentum_cached(twoI)
    basis = {}
    for K in range(twoI + 1):
        t = np.linalg.matrix_power(ops.Iplus, K)
        t = (-1) ** K * t / np.linalg.norm(t)
        basis[(K, K)] = t
        for Q in range(K, -K, -1):
            t = (ops.Iminus @ t - t @ ops.Iminus) / np.sqrt(K * (K + 1) - Q * (Q - 1))
            basis[(K, Q - 1)] = t
    for t in basis.values():
        t.setflags(write=False)
    return basis


def spherical_tensor_basis(sys: SpinSystem) -> dict:
    """All (2I+1)^2 orthonormal tensor operators keyed by (K, Q)."""
    return _tensor_basis_cached(round(2 * sys.I))


def spherical_tensor(sys: SpinSystem, K: int, Q: int) -> np.ndarray:
    twoI = round(2 * sys.I)
    if not (0 <= K <= twoI) or not (-K <= Q <= K):
        raise ValueError(f"rank/order ({K},{Q}) out of range for I={sys.I}")
    return _tensor_basis_cached(twoI)[(K, Q)]


def tensor_keys(sys: SpinSystem):
    """Fixed (K, Q) ordering used for coefficient vectors."""
    twoI = round(2 * sys.I)
    return [(K, Q) for K in range(twoI + 1) for Q in range(-K, K + 1)]


def tensor_stack(sys: SpinSystem) -> np.ndarray:
    """(d^2, d, d) array of the tensor operators in tensor_keys order."""
    basis = spherical_tensor_basis(sys)
    return np.array([basis[kq] for kq in tensor_keys(sys)])


def _lnfact(n):
    return lgamma(n + 1)


def reduced_wigner_d(L, theta: float) -> np.ndarray:
    """Reduced rotation matrix d^L_{m',m}(theta), rows/cols ordered m = +L..-L.

    Standard convention: matrix elements of exp(-i theta Iy) in the
    |L, m> basis, so d^L(0) is the identity and the matrix is orthogonal.
    """
    twoL = round(2 * L)
    if abs(2 * L - twoL) > 1e-12 or twoL < 0:
        raise ValueError(f"rank must be a non-negative half-integer, got {L}")
    dim = twoL + 1
    ms = L - np.arange(dim)
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    out = np.zeros((dim, dim))
    for a, mp in enumerate(ms):
        for b, m in enumerate(ms):
            kmin = max(0, round(m - mp))
            kmax = round(min(L + m, L - mp))
            pref = 0.5 * (_lnfact(L + mp) + _lnfact(L - mp) + _lnfact(L + m) + _lnfact(L - m))
            val = 0.0
            for k in range(kmin, kmax + 1):
                ln = pref - (_lnfact(k) + _lnfact(L + m - k) + _lnfact(L - mp - k)
                             + _lnfact(mp - m + k))
                pc = round(2 * L + m - mp - 2 * k)
                ps = round(mp - m + 2 * k)
                term = exp(ln) * c ** pc * s ** ps
                val += -term if (k + round(mp - m)) % 2 else term
            out[a, b] = val
    return out


def expm_hermitian(H: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition (exactly unitary)."""
    require_hermitian(H, "generator")
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * lam * t)) @ V.conj().T


def rotation_operator(sys: SpinSystem, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Euler rotation exp(-i alpha Iz) exp(-i beta Iy) exp(-i gamma Iz)."""
    ops = angular_momentum(sys)
    ms = sys.m_values
    Rz_a = np.diag(np.exp(-1j * alpha * ms))
    Rz_g = np.diag(np.exp(-1j * gamma * ms))
    Ry = expm_hermitian(ops.Iy, beta)
    return Rz_a @ Ry @ Rz_g


def euler_rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The corresponding 3x3 rotation Rz(alpha) Ry(beta) Rz(gamma) on vectors."""

    def Rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1.0]])

    def Ry(t):
        return np.array([[np.cos(t), 0, np.sin(t)], [0, 1.0, 0], [-np.sin(t), 0, np.cos(t)]])

    return Rz(alpha) @ Ry(beta) @ Rz(gamma)
