"""Angular momentum algebra for a single spin of arbitrary quantum number.

Operators are plain complex numpy arrays in the Dicke basis with the
m = +I state first (index 0) and m = -I last (index d-1).  Hamiltonians
built on top of these operators are stored divided by hbar, i.e. in
angular-frequency units (rad/s).
"""

from dataclasses import dataclass
from functools import lru_cache

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
    """|M - M^dag|max <= tol max(1, |M|max): relative, as a Hamiltonian in rad/s
    carries round-off in proportion to its size."""
    return np.abs(M - M.conj().T).max() <= tol * max(1.0, np.abs(M).max())


def require_hermitian(M, what="operator"):
    if not is_hermitian(M):
        raise ValueError(f"{what} is not Hermitian within {HERMITICITY_TOL:g} of max(1, |M|max)")


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
def _tensor_stack_cached(twoI: int) -> np.ndarray:
    """Orthonormal irreducible tensor operators T_KQ, Tr(T_KQ^dag T_K'Q') = dd,
    stacked as one read-only (d^2, d, d) array with T_KQ at K^2 + K + Q.

    T_KQ lives on the entries t_ij with j - i = Q, where the Casimir
    sum_a [I_a, [I_a, t]] = K(K+1) t is a symmetric tridiagonal matrix:
    diagonal 2I(I+1) - 2 m_i m_j, off-diagonal -a_i a_j with a the
    superdiagonal of I+.  Its eigenvectors, in ascending order, are
    T_KQ for K = |Q|..2I; each is signed so that its first entry has the
    sign (-1)^max(Q, 0), the phase of T_KK ~ (-1)^K Iplus^K.
    """
    I, d = twoI / 2, twoI + 1
    ms = I - np.arange(d)
    a = np.diagonal(_angular_momentum_cached(twoI).Iplus, 1).real
    stack = np.zeros((d * d, d, d), dtype=complex)
    for Q in range(-twoI, twoI + 1):
        rows = np.arange(max(0, -Q), d - max(0, Q))
        cols = rows + Q
        off = -a[rows[:-1]] * a[cols[:-1]]
        diag = 2 * I * (I + 1) - 2 * ms[rows] * ms[cols]
        _, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        V *= (-1) ** max(Q, 0) * np.sign(V[0])
        K = np.arange(abs(Q), twoI + 1)
        stack[(K * K + K + Q)[:, None], rows, cols] = V.T
    stack.setflags(write=False)
    return stack


def spherical_tensor_basis(sys: SpinSystem) -> dict:
    """All (2I+1)^2 orthonormal tensor operators keyed by (K, Q), as
    read-only views of the cached stack in a fresh dict."""
    return dict(zip(tensor_keys(sys), tensor_stack(sys)))


def spherical_tensor(sys: SpinSystem, K: int, Q: int) -> np.ndarray:
    twoI = round(2 * sys.I)
    if not (0 <= K <= twoI) or not (-K <= Q <= K):
        raise ValueError(f"rank/order ({K},{Q}) out of range for I={sys.I}")
    return _tensor_stack_cached(twoI)[K * K + K + Q]


def tensor_keys(sys: SpinSystem):
    """Fixed (K, Q) ordering used for coefficient vectors."""
    twoI = round(2 * sys.I)
    return [(K, Q) for K in range(twoI + 1) for Q in range(-K, K + 1)]


def tensor_stack(sys: SpinSystem) -> np.ndarray:
    """Read-only (d^2, d, d) array of the tensor operators in tensor_keys order."""
    return _tensor_stack_cached(round(2 * sys.I))


def tensor_coefficients(sys: SpinSystem, rho: np.ndarray) -> np.ndarray:
    """c_KQ = Tr(T_KQ^dag rho) in tensor_keys order, one product with conj(vec rho),
    so that rho = sum_KQ c_KQ T_KQ."""
    if rho.shape != (sys.d, sys.d):
        raise ValueError(f"density matrix must be {sys.d}x{sys.d}")
    return (tensor_stack(sys).reshape(sys.d ** 2, -1) @ rho.conj().ravel()).conj()


def reduced_wigner_d(L, theta: float) -> np.ndarray:
    """Reduced rotation matrix d^L_{m',m}(theta), rows/cols ordered m = +L..-L.

    Standard convention: matrix elements of exp(-i theta Iy) in the
    |L, m> basis, so d^L(0) is the identity and the matrix is orthogonal.
    """
    twoL = round(2 * L)
    if abs(2 * L - twoL) > 1e-12 or twoL < 0:
        raise ValueError(f"rank must be a non-negative half-integer, got {L}")
    return expm_hermitian(_angular_momentum_cached(twoL).Iy, theta).real


def expm_hermitian(H: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition (exactly unitary)."""
    require_hermitian(H, "generator")
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * lam * t)) @ V.conj().T


def rotation_operator(sys: SpinSystem, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Euler rotation exp(-i alpha Iz) exp(-i beta Iy) exp(-i gamma Iz)."""
    ms = sys.m_values
    Ry = expm_hermitian(angular_momentum(sys).Iy, beta)
    return np.exp(-1j * (alpha * ms[:, None] + gamma * ms)) * Ry


def euler_rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The corresponding 3x3 rotation Rz(alpha) Ry(beta) Rz(gamma) on vectors."""

    def Rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1.0]])

    def Ry(t):
        return np.array([[np.cos(t), 0, np.sin(t)], [0, 1.0, 0], [-np.sin(t), 0, np.cos(t)]])

    return Rz(alpha) @ Ry(beta) @ Rz(gamma)
