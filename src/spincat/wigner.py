"""Spherical quasiprobability map of a spin density matrix.

W(theta, phi) = sqrt((2I+1)/4pi) sum_KQ <T_KQ> Y_KQ(theta, phi), evaluated
on a Gauss-Legendre (in cos theta) x uniform (in phi) grid.  With the
orthonormal tensor convention the map integrates to exactly Tr(rho).

T_KQ lives on rho's Q-th diagonal and Y_KQ(theta, phi) = Y_KQ(theta, 0) e^{iQ phi}, so a map
runs by order, as fast spherical-harmonic transforms do (Driscoll & Healy, Adv. Appl. Math. 15,
202 (1994)): a kernel G[Q] = sqrt(d/4pi) Y[Q]^T band[Q], harmonics Y[Q, K, t] = Y_KQ(theta_t, 0)
times spin_ops' tensor band, sums the ranks on the diagonals.  As band[-Q, K, i] = (-1)^Q
band[Q, K, i - Q] and Y_K,-Q = (-1)^Q Y_KQ, G[-Q, t, i] = G[Q, t, i - Q]: with u_Q, v_Q rho's
Q-th super- and subdiagonals, s_Q = G[Q](u_Q + v_Q), t_Q = G[Q](u_Q - v_Q) and s_0 halved,
W = sum_{Q >= 0} s_Q cos Q phi + i t_Q sin Q phi, and one real product of (Re s_Q, Im t_Q) with
[cos Q phi; -sin Q phi] spreads the 4I + 1 orders, exact for any n_phi where an FFT would fold
|Q| >= n_phi/2.  A map is refused when sum_Q hypot(Im s_Q, Re t_Q) >= |Im W|, maxed over
theta, exceeds 1e-10 max(1, |W|max).  (Re t_Q, Im s_Q) is G[Q] times D = rho - rho^dag on the
Q-th diagonal, so that sum is at most res c_G, with res = max|D| as require_hermitian measured
it and c_G = max_theta sum_Q,i |G[Q, theta, i]|: the sweep runs only where res c_G > 1e-10, the
threshold's floor.  On 64 x 128, c_G is 1.04, 4.97, 25.3 and 242 at I = 3/2, 7/2, 15/2 and 20,
so up to I = 15/2 no rho with |rho|max <= 1 that passes the 1e-12 Hermiticity check is swept;
at I = 20, or at larger scales, one near that tolerance still is, and an exactly Hermitian rho
(res = 0) never is.  The nodes, G[Q >= 0], the table and c_G are built once per
(2I, n_theta, n_phi) and kept read-only.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_ops import (SpinSystem, _wigner_d_rows, require_hermitian, require_integer,
                       tensor_band, tensor_coefficients, tensor_keys)

MIN_GRID = 8


def tensor_expectations(sys: SpinSystem, rho: np.ndarray) -> dict:
    """Coefficients Tr(rho T_KQ^dag) for every (K, Q)."""
    return dict(zip(tensor_keys(sys), tensor_coefficients(sys, rho).tolist()))


def spherical_harmonic(K: int, Q: int, theta, phi):
    """Orthonormal spherical harmonic Y_KQ with the Condon-Shortley phase."""
    K, Q = require_integer(K, "K", 0), require_integer(Q, "Q")
    if not -K <= Q <= K:
        raise ValueError(f"invalid rank/order ({K},{Q})")
    from scipy.special import sph_harm_y
    return sph_harm_y(K, Q, theta, phi)


def _polar_harmonics(K: np.ndarray, Q: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Y_KQ(theta, 0) = sqrt((2K+1)/4pi) d^K_{Q,0}(theta) = sqrt((2K+1)/4pi) (-1)^Q d^K_{0,Q}(theta)
    for integer arrays K, Q, with the Condon-Shortley phase: spin_ops' rotation rows, normalized."""
    L = int(K.max())
    Y = _wigner_d_rows(L, 0, theta)[K, L + Q]
    Y *= (np.sqrt((2 * K + 1) / (4 * np.pi)) * (-1.0) ** Q)[..., None]
    return Y


@dataclass(frozen=True)
class WignerGrid:
    theta: np.ndarray      # (n_theta,) polar nodes in (0, pi)
    phi: np.ndarray        # (n_phi,) azimuth nodes in [0, 2pi)
    values: np.ndarray     # (n_theta, n_phi) real samples
    weights: np.ndarray    # (n_theta,) quadrature weights including dphi

    @property
    def n_theta(self):
        return len(self.theta)

    @property
    def n_phi(self):
        return len(self.phi)


def _grid_nodes(n_theta, n_phi):
    """Polar nodes, weights times dphi, azimuths.  Gauss-Legendre in x = cos theta: Newton's
    method on P_n from its three-term recurrence, started at x_k = cos(pi (k - 1/4)/(n + 1/2)),
    one step past 1e-10; w = 2 / ((1 - x^2) P_n'(x)^2)."""
    n, x, done = n_theta, np.cos(np.pi * (np.arange(n_theta) + 0.75) / (n_theta + 0.5)), False
    for _ in range(50):   # converges quadratically: a handful of passes
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, (2 - 1 / k) * x * p1 - (1 - 1 / k) * p0
        dp = n * (p0 - x * p1) / (1 - x * x)
        if done:
            break
        done, x = np.abs(p1 / dp).max() < 1e-10, x - p1 / dp
    w = 2 / ((1 - x * x) * dp * dp)
    return np.arccos(x), w * (2 * np.pi / n_phi), np.arange(n_phi) * 2 * np.pi / n_phi


@lru_cache(maxsize=4)
def _grid_factors(twoI: int, n_theta: int, n_phi: int):
    """Read-only (theta, weights, phi, G, idx, CS, c_G) of a spin-2I/2 map on an n_theta x n_phi
    grid for Q = 0..2I, G as in the module docstring with G[0] halved (Y, like the band, is 0 for
    K < Q), idx[:, Q] the flat indices of u_Q and v_Q from spin_ops' band,
    CS = [cos Q phi, Q = 0..2I; -sin Q phi, Q = 1..2I] and c_G = max_t sum_Q,i |G[Q, t, i]|, raised
    by (d + 2)^2 eps for the rounding of the residual, of its product with c_G and of the sums."""
    theta, wtheta, phi = _grid_nodes(n_theta, n_phi)
    band, idx, _, _, _ = tensor_band(SpinSystem(twoI / 2))
    orders = np.arange(twoI + 1)
    Y = _polar_harmonics(orders, orders[:, None], theta)
    G = Y.transpose(0, 2, 1) @ band[twoI:] * np.sqrt((twoI + 1) / (4 * np.pi))
    G[0] /= 2
    idx = np.stack((idx[twoI:], idx[twoI:] + twoI * orders[:, None]))   # v_Q lies 2I Q past u_Q
    CS = np.concatenate((np.cos(np.outer(orders, phi)), -np.sin(np.outer(orders[1:], phi))))
    c_G = float(np.abs(G).sum(axis=(0, 2)).max()) * (1 + (twoI + 3) ** 2 * np.finfo(float).eps)
    for a in (theta, wtheta, phi, G, idx, CS):
        a.setflags(write=False)
    return theta, wtheta, phi, G, idx, CS, c_G


def wigner_point(sys: SpinSystem, rho: np.ndarray, theta, phi):
    """W evaluated at arbitrary angles (vectorized over theta/phi arrays)."""
    require_hermitian(rho, "density matrix")
    acc = sum(c * spherical_harmonic(K, Q, theta, phi)
              for (K, Q), c in tensor_expectations(sys, rho).items())
    return (np.sqrt(sys.d / (4 * np.pi)) * acc).real


def wigner_function(sys: SpinSystem, rho: np.ndarray, n_theta: int = 64,
                    n_phi: int = 128) -> WignerGrid:
    if rho.shape != (sys.d, sys.d):
        raise ValueError(f"density matrix must be {sys.d}x{sys.d}, got shape {rho.shape}")
    residual = require_hermitian(rho, "density matrix")
    n_theta, n_phi = (require_integer(n, name, MIN_GRID)
                      for name, n in (("n_theta", n_theta), ("n_phi", n_phi)))
    theta, wtheta, phi, G, idx, CS, c_G = _grid_factors(round(2 * sys.I), n_theta, n_phi)
    u, v = rho.take(idx, mode="clip").astype(complex, copy=False)   # off rho, G is 0
    st = G @ np.stack((u + v, u - v), -1).view(float)   # [Q, t]: Re s, Im s, Re t, Im t
    values = np.concatenate((st[..., 0], st[1:, :, 3])).T @ CS
    if residual * c_G > 1e-10 and np.hypot(st[..., 1], st[..., 2]).sum(axis=0).max() > (
            1e-10 * max(1.0, np.abs(values).max())):
        raise ValueError("imaginary residue above 1e-10 max(1, |W|max): rho not Hermitian")
    return WignerGrid(theta, phi, values, wtheta)


def integrate_sphere(grid: WignerGrid) -> float:
    """Quadrature estimate of the solid-angle integral of the samples."""
    return float((grid.weights[:, None] * grid.values).sum())


def grid_argmax(grid: WignerGrid):
    """(theta, phi) of the first sample in row-major order within 1e-12 max|W|
    of the largest, so round-off cannot choose between a cat's equal lobes."""
    top = grid.values >= grid.values.max() - 1e-12 * np.abs(grid.values).max()
    i, j = np.unravel_index(np.argmax(top), top.shape)
    return grid.theta[i], grid.phi[j]


def write_csv(grid: WignerGrid, sys: SpinSystem, path):
    """Serialize as CSV: one metadata line (I, n_theta, n_phi), then
    theta,phi,W triples in row-major theta order.  Formatting is fixed
    (17 significant digits) so identical grids give identical bytes."""
    with open(path, "w", newline="\n") as f:
        f.write(f"# I={sys.I:.17g} n_theta={grid.n_theta} n_phi={grid.n_phi}\n")
        f.write("theta,phi,W\n")
        phis = [f"{ph:.17g}" for ph in grid.phi.tolist()]
        for th, row in zip(map("{:.17g}".format, grid.theta.tolist()), grid.values.tolist()):
            f.write("".join([f"{th},{ph},{w:.17g}\n" for ph, w in zip(phis, row)]))

