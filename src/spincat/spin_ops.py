"""Angular momentum algebra for a single spin of arbitrary quantum number.

Operators are plain complex numpy arrays in the Dicke basis with the
m = +I state first (index 0) and m = -I last (index d-1).  Hamiltonians
built on top of these operators are stored divided by hbar, i.e. in
angular-frequency units (rad/s).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12
_REALS = (float, int, np.floating, np.integer)   # and not bool, a flag


@dataclass(frozen=True)
class SpinSystem:
    """A spin with quantum number I living in a (2I+1)-dimensional space."""

    I: float

    def __post_init__(self):
        _twice_half_integer(self.I, 1, f"2I must be a positive integer, got I={self.I!r}")

    @property
    def d(self) -> int:
        return round(2 * self.I) + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers ordered m = I, I-1, ..., -I."""
        return self.I - np.arange(self.d)


def require_hermitian(M, what="operator") -> float:
    """Refuse M unless it is square, finite and |M - M^dag|max <= HERMITICITY_TOL max(1, |M|max):
    relative, as a Hamiltonian in rad/s carries round-off in proportion to its size.  Returns
    that residual, measured on M's values as doubles, the precision every map reads them in
    (so an int8 M cannot wrap to 0).  A Wigner map's imaginary residue is at most the residual
    times c_G (1.04, 4.97, 25.3 and 242 at I = 3/2, 7/2, 15/2 and 20 on 64 x 128), so the map
    sweeps its grid for that residue only where the product exceeds 1e-10 (wigner docstring)."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square 2-D array, got shape {M.shape}")
    if M.dtype.char not in "dD":
        M = M.astype(complex if M.dtype.kind == "c" else float)
    size = np.abs(M).max()
    if not np.isfinite(size):   # an infinite entry would make the tolerance infinite
        raise ValueError(f"{what} has a non-finite entry")
    residual = np.abs(M - M.conj().T).max()
    if not residual <= HERMITICITY_TOL * max(1.0, size):
        raise ValueError(f"{what} is not Hermitian within {HERMITICITY_TOL:g} of max(1, |M|max)")
    return float(residual)


def require_integer(value, name, minimum=None) -> int:
    """value as an int, or a ValueError naming it.  One policy for every count, index and grid
    size: ints and numpy integers pass, and so do integral floats (numpy's too), as a JSON
    config may write 16.0; bools, which are flags and not numbers, fractions, NaN, infinities
    and every other type are refused, as is a value below minimum."""
    n = int(value) if _real(value).is_integer() else value   # an int past 2^1024 stays an int
    if type(n) is not int or minimum is not None and n < minimum:   # a bool reads NaN: not an int
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return n


def _real(value) -> float:
    """The one reading of a real: a non-bool int or float, numpy's too, as a float, else NaN."""
    try:
        return float(value) if isinstance(value, _REALS) and not isinstance(value, bool) else math.nan
    except OverflowError:   # an int past the double range
        return math.nan


def require_real(value, name, minimum=-math.inf, maximum=math.inf,
                 exclusive_minimum=-math.inf) -> float:
    """value as a float, or a ValueError that starts "{name} must be finite".  Ints and floats,
    numpy's too, pass; bools, complex numbers, strings, None, arrays, NaN, infinities, ints past
    the double range and values outside the bounds (CONFIG_SCHEMA's names) are refused."""
    if exclusive_minimum < (x := _real(value)) < math.inf and minimum <= x <= maximum:
        return x
    bounds = "".join(f", {op} {b}" for op, b in (
        (">", exclusive_minimum), (">=", minimum), ("<=", maximum)) if math.isfinite(b))
    raise ValueError(f"{name} must be finite and real{bounds}, got {value!r}")


def _twice_half_integer(value, least: int, message: str) -> int:
    """int(2 value) if 2 value is exactly an integer >= least (multipleOf 0.5), else ValueError."""
    twice = 2 * _real(value)
    if not (twice >= least and twice.is_integer()):
        raise ValueError(message)
    return int(twice)


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
    Iplus = np.diag(np.sqrt(I * (I + 1) - ms[1:] * (ms[1:] + 1)), 1).astype(complex)
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
def tensor_band(sys: SpinSystem) -> tuple:
    """Read-only (band, idx, K, Q, at) of the orthonormal tensor operators T_KQ, each on rho's
    Q-th diagonal: band[2I + Q, K, i] = (T_KQ)_{i,i+Q}, real, 0 where K < |Q| or i + Q falls
    off rho; idx[2I + Q, i] = the flat index of rho[i, i+Q], or d^2 off rho; K, Q label
    coefficient vectors, T_KQ at K^2 + K + Q; at = (2I + Q) d + K.  The operators obey
    {I_z, T_KQ} = alpha_(K+1) T_(K+1)Q + alpha_K T_(K-1)Q, alpha_K = sqrt((K^2 - Q^2)(d^2 - K^2)
    / ((2K-1)(2K+1))), so on order Q the entries (T_KQ)_{i,i+Q}, K = |Q|..2I, are the
    eigenvectors of the Jacobi matrix with zero diagonal and off-diagonal alpha_(|Q|+1..2I); its
    eigenvalues m_i + m_(i+Q) = 2 m_i - Q, norm <= 2I and gaps 2, descend in i.  Orders +-Q share
    the matrix: each eigenvector is signed so that T_|Q|,-|Q| ~ (I-)^|Q| is positive, and
    T_K|Q| = (-1)^Q T_K,-|Q|^dag.  (Run forward in K without eigh the recurrence is unstable:
    6e-6 off by 2I = 40.)"""
    twoI, d, i = sys.d - 1, sys.d, np.arange(sys.d)
    band = np.zeros((2 * twoI + 1, d, d))
    for q in range(d):
        k = np.arange(q + 1, d)
        alpha = np.sqrt((k * k - q * q) * (d * d - k * k) / ((2 * k - 1) * (2 * k + 1)))
        _, V = np.linalg.eigh(np.diag(alpha, -1))     # eigh reads the lower triangle only
        band[twoI - q, q:, q:] = V[:, ::-1] * np.sign(V[0, ::-1])
        band[twoI + q, q:, :d - q] = (-1) ** q * band[twoI - q, q:, q:]
    orders = np.arange(-twoI, twoI + 1)[:, None]
    idx = np.where((0 <= i + orders) & (i + orders < d), i * (d + 1) + orders, d * d)
    K = np.repeat(i, 2 * i + 1)
    Q = np.arange(d * d) - K * K - K
    at = (Q + twoI) * d + K
    for arr in (band, idx, K, Q, at):
        arr.setflags(write=False)
    return band, idx, K, Q, at


@lru_cache(maxsize=2)
def tensor_stack(sys: SpinSystem) -> np.ndarray:
    """Read-only dense (d^2, d, d) stack of the operators in tensor_keys order, assembled from
    the band for callers that want whole operators; the latest two spins are kept."""
    band, idx, K, Q, _ = tensor_band(sys)
    flat = np.zeros((len(K), len(K) + 1), dtype=complex)   # column d^2 takes the off-rho zeros
    flat[np.arange(len(K))[:, None], idx[Q + sys.d - 1]] = band[Q + sys.d - 1, K]
    stack = flat[:, :-1].reshape(len(K), sys.d, sys.d)
    stack.setflags(write=False)
    return stack


def spherical_tensor_basis(sys: SpinSystem) -> dict:
    """All (2I+1)^2 operators keyed by (K, Q): read-only views of tensor_stack, fresh dict."""
    return dict(zip(tensor_keys(sys), tensor_stack(sys)))


def tensor_keys(sys: SpinSystem):
    """Fixed (K, Q) ordering used for coefficient vectors."""
    _, _, K, Q, _ = tensor_band(sys)
    return list(zip(K.tolist(), Q.tolist()))


def tensor_coefficients(sys: SpinSystem, rho: np.ndarray) -> np.ndarray:
    """c_KQ = Tr(T_KQ^dag rho) in tensor_keys order, so that rho = sum_KQ c_KQ T_KQ: one batched
    real product of the band with rho's diagonals."""
    band, idx, _, _, at = tensor_band(sys)
    if rho.shape != band.shape[1:]:
        raise ValueError(f"density matrix must be {sys.d}x{sys.d}")
    return (band @ _diagonal_pairs(rho, idx)).view(complex).ravel()[at]


def _diagonal_pairs(rho: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """rho's diagonals at tensor_band's idx as (re, im) pairs; off-rho slots ("clip") meet zeros."""
    return rho.take(idx, mode="clip").astype(complex, copy=False).view(float).reshape(*idx.shape, 2)


def from_tensor_coefficients(sys: SpinSystem, c) -> np.ndarray:
    """rho = sum_KQ c_KQ T_KQ for c in tensor_keys order, the inverse of tensor_coefficients:
    the transposed band product, scattered onto rho's diagonals."""
    band, idx, K, _, at = tensor_band(sys)
    if len(c) != len(K):
        raise ValueError(f"I={sys.I} has {len(K)} tensor coefficients, got {len(c)}")
    by_order = np.zeros(band.shape[:2], dtype=complex)
    by_order.put(at, c)
    diagonals = band.transpose(0, 2, 1) @ by_order.view(float).reshape(*by_order.shape, 2)
    rho = np.zeros(len(K) + 1, dtype=complex)   # entry d^2 takes the off-rho zeros
    rho[idx] = diagonals.view(complex)[..., 0]
    return rho[:-1].reshape(sys.d, sys.d)


def reduced_wigner_d(L, theta: float) -> np.ndarray:
    """Reduced rotation matrix d^L_{m',m}(theta), rows/cols ordered m = +L..-L.

    Standard convention: matrix elements of exp(-i theta Iy) in the
    |L, m> basis, so d^L(0) is the identity and the matrix is orthogonal.
    """
    twoL = _twice_half_integer(L, 0, f"rank must be a non-negative half-integer, got {L!r}")
    return expm_hermitian(_angular_momentum_cached(twoL).Iy, require_real(theta, "theta")).real


def _wigner_d_rows(L: int, mu: int, theta) -> np.ndarray:
    """d[K, L + Q, t] = d^K_{mu,Q}(theta_t) for mu in {0, -1}, K = 0..L, Q = -L..L, exactly 0 for
    K < k = max(|mu|, |Q|).  Wigner's closed form seeds rank k, (-1)^max(0, mu - Q) times
    sqrt(C(2k, k + mu) C(2k, k + Q)) cos^(2k - |Q - mu|) sin^|Q - mu| of theta/2, and the
    three-term recurrence in K (Kostelec & Rockmore, J. Fourier Anal. Appl. 14, 145 (2008)),
    with r_J = sqrt((J^2 - mu^2)(J^2 - Q^2)) and its coefficients tabulated once, climbs on:
      d^J = (2J-1) J/r_J (cos theta - mu Q/(J(J-1))) d^(J-1) - J r_(J-1)/((J-1) r_J) d^(J-2)."""
    Q, x, half = np.arange(-L, L + 1), np.cos(theta), np.multiply(0.5, theta)
    seed, dQ = np.maximum(-mu, abs(Q)), abs(Q - mu)
    scale = [(-1) ** max(0, mu - q) * math.sqrt(math.comb(2 * k, k + mu) * math.comb(2 * k, k + q))
             for k, q in zip(seed.tolist(), Q.tolist())]
    d = np.zeros((L + 1, 2 * L + 1, len(x)))
    d[seed, L + Q] = np.array(scale)[:, None] * (
        np.cos(half) ** (2 * seed - dQ)[:, None] * np.sin(half) ** dQ[:, None])
    J, Q3 = np.arange(L + 1)[:, None, None], Q[:, None]
    r2 = (J * J - mu * mu) * (J * J - Q3 * Q3)     # r_J^2, at least 1 where rank J is reached
    over = J[1:] / np.sqrt(np.maximum(r2[1:], 1))   # row J - 1 holds the step to rank J
    a, b = (2 * J[1:] - 1) * over, -mu * Q3 / np.maximum(J[1:] * J[:-1], 1)
    c = np.sqrt(np.maximum(r2[:-1], 0)) * over / np.maximum(J[:-1], 1)
    for k in range(-mu, L):                         # rank k + 1 at the orders |Q| <= k
        on = slice(L - k, L + k + 1)
        d[k + 1, on] = a[k, on] * (x + b[k, on]) * d[k, on] - c[k, on] * d[k - 1, on]
    return d


def expm_hermitian(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition (exactly unitary)."""
    require_hermitian(H, "generator")
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * lam * require_real(t, "t"))) @ V.conj().T


def rotation_operator(sys: SpinSystem, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Euler rotation exp(-i alpha Iz) exp(-i beta Iy) exp(-i gamma Iz)."""
    alpha, beta, gamma = map(require_real, (alpha, beta, gamma), ("alpha", "beta", "gamma"))
    ms = sys.m_values
    return np.exp(-1j * (alpha * ms[:, None] + gamma * ms)) * reduced_wigner_d(sys.I, beta)


def euler_rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The corresponding 3x3 rotation Rz(alpha) Ry(beta) Rz(gamma) on vectors."""
    alpha, beta, gamma = map(require_real, (alpha, beta, gamma), ("alpha", "beta", "gamma"))

    def Rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1.0]])

    def Ry(t):
        return np.array([[np.cos(t), 0, np.sin(t)], [0, 1.0, 0], [-np.sin(t), 0, np.cos(t)]])

    return Rz(alpha) @ Ry(beta) @ Rz(gamma)
