"""Spherical quasiprobability map of a spin density matrix.

W(theta, phi) = sqrt((2I+1)/4pi) sum_KQ <T_KQ> Y_KQ(theta, phi), evaluated
on a Gauss-Legendre (in cos theta) x uniform (in phi) grid.  With the
orthonormal tensor convention the map integrates to exactly Tr(rho).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import sph_harm_y

from .spin_ops import SpinSystem, spherical_tensor_basis, require_hermitian

MIN_GRID = 8


def tensor_expectations(sys: SpinSystem, rho: np.ndarray) -> dict:
    """Coefficients Tr(rho T_KQ^dag) for every (K, Q)."""
    if rho.shape != (sys.d, sys.d):
        raise ValueError(f"density matrix must be {sys.d}x{sys.d}")
    basis = spherical_tensor_basis(sys)
    return {kq: complex(np.trace(rho @ t.conj().T)) for kq, t in basis.items()}


def spherical_harmonic(K: int, Q: int, theta, phi):
    """Orthonormal spherical harmonic Y_KQ with the Condon-Shortley phase."""
    if not (0 <= K) or not (-K <= Q <= K):
        raise ValueError(f"invalid rank/order ({K},{Q})")
    return sph_harm_y(K, Q, theta, phi)


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
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])
    w = w[::-1]
    phi = np.arange(n_phi) * 2 * np.pi / n_phi
    return theta, w * (2 * np.pi / n_phi), phi


def wigner_point(sys: SpinSystem, rho: np.ndarray, theta, phi):
    """W evaluated at arbitrary angles (vectorized over theta/phi arrays)."""
    require_hermitian(rho, "density matrix")
    coeffs = tensor_expectations(sys, rho)
    acc = 0
    for (K, Q), c in coeffs.items():
        acc = acc + c * sph_harm_y(K, Q, theta, phi)
    return (np.sqrt(sys.d / (4 * np.pi)) * acc).real


def wigner_function(sys: SpinSystem, rho: np.ndarray, n_theta: int = 64,
                    n_phi: int = 128) -> WignerGrid:
    require_hermitian(rho, "density matrix")
    if n_theta < MIN_GRID or n_phi < MIN_GRID:
        raise ValueError(f"grid sizes below {MIN_GRID} make the quadrature unreliable")
    theta, wtheta, phi = _grid_nodes(n_theta, n_phi)
    coeffs = tensor_expectations(sys, rho)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    acc = np.zeros((n_theta, n_phi), dtype=complex)
    for (K, Q), c in coeffs.items():
        acc += c * sph_harm_y(K, Q, tt, pp)
    values = np.sqrt(sys.d / (4 * np.pi)) * acc
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("imaginary residue exceeds tolerance; rho not Hermitian enough")
    return WignerGrid(theta, phi, values.real, wtheta)


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
        for i, th in enumerate(grid.theta):
            for j, ph in enumerate(grid.phi):
                f.write(f"{th:.17g},{ph:.17g},{grid.values[i, j]:.17g}\n")


def read_csv(path):
    """Inverse of write_csv; returns (I, WignerGrid)."""
    with open(path) as f:
        meta = f.readline().strip().lstrip("# ").split()
        kv = dict(item.split("=") for item in meta)
        I = float(kv["I"])
        n_theta, n_phi = int(kv["n_theta"]), int(kv["n_phi"])
        f.readline()
        data = np.loadtxt(f, delimiter=",")
    theta = data[::n_phi, 0]
    phi = data[:n_phi, 1]
    values = data[:, 2].reshape(n_theta, n_phi)
    _, wtheta, _ = _grid_nodes(n_theta, n_phi)
    return I, WignerGrid(theta, phi, values, wtheta)
