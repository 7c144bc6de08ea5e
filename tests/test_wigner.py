"""Spherical quasiprobability map: normalization, covariance, serialization."""

import numpy as np
import pytest

from spincat.spin_ops import (SpinSystem, euler_rotation_matrix,
                              rotation_operator, spherical_tensor)
from spincat.states import cat_state, coherent_state, projector
from spincat.wigner import (WignerGrid, grid_argmax, integrate_sphere,
                            read_csv, spherical_harmonic, tensor_expectations,
                            wigner_function, wigner_point, write_csv)


def random_density(sys, rng):
    A = rng.normal(size=(sys.d, sys.d)) + 1j * rng.normal(size=(sys.d, sys.d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_tensor_expectations_examples():
    sys = SpinSystem(1.5)
    rho = np.eye(4) / 4
    coeffs = tensor_expectations(sys, rho)
    # identity/d overlaps only the K = 0 component
    assert abs(coeffs[(0, 0)] - 0.5) < 1e-12
    for kq, c in coeffs.items():
        if kq != (0, 0):
            assert abs(c) < 1e-12


def test_spherical_harmonic_examples():
    assert abs(spherical_harmonic(0, 0, 0.3, 1.0) - 1 / np.sqrt(4 * np.pi)) < 1e-12
    th = 0.8
    want = np.sqrt(3 / (4 * np.pi)) * np.cos(th)
    assert abs(spherical_harmonic(1, 0, th, 0.0) - want) < 1e-12
    with pytest.raises(ValueError):
        spherical_harmonic(2, 3, 0.1, 0.1)


def test_quadrature_orthonormality():
    # the default grid integrates products of spherical harmonics exactly
    sys = SpinSystem(1.5)
    theta, w, phi = None, None, None
    from spincat.wigner import _grid_nodes
    theta, w, phi = _grid_nodes(32, 64)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    for (K, Q) in [(0, 0), (1, 0), (2, 1), (3, -2)]:
        for (K2, Q2) in [(0, 0), (1, 0), (2, 1), (3, -2)]:
            Y1 = spherical_harmonic(K, Q, tt, pp)
            Y2 = spherical_harmonic(K2, Q2, tt, pp)
            val = (w[:, None] * (np.conj(Y1) * Y2)).sum()
            want = 1.0 if (K, Q) == (K2, Q2) else 0.0
            assert abs(val - want) < 1e-6


@pytest.mark.parametrize("I", [0.5, 1.5, 2.5])
def test_unit_trace_normalization(I):
    sys = SpinSystem(I)
    rng = np.random.default_rng(2)
    for _ in range(5):
        grid = wigner_function(sys, random_density(sys, rng), 32, 64)
        assert abs(integrate_sphere(grid) - 1) < 1e-10


def test_uniform_state_flat_map():
    sys = SpinSystem(1.5)
    grid = wigner_function(sys, np.eye(4) / 4)
    assert np.abs(grid.values - 1 / (4 * np.pi)).max() < 1e-12


def test_coherent_state_peak_location():
    sys = SpinSystem(1.5)
    grid = wigner_function(sys, projector(coherent_state(sys, np.pi / 2, 0.0)))
    th, ph = grid_argmax(grid)
    assert abs(th - np.pi / 2) < np.pi / grid.n_theta
    assert min(ph, 2 * np.pi - ph) < 2 * np.pi / grid.n_phi


@pytest.mark.parametrize("shift,expected_phi", [(1e-16, 0.0), (-1e-16, 0.0),
                                                (1e-9, np.pi)])
def test_grid_argmax_ties_pick_first_node(shift, expected_phi):
    # two lobes of equal height at phi = 0 and pi on the equator: a
    # round-off difference does not choose between them, a real one does
    theta = np.linspace(0.2, np.pi - 0.2, 9)
    phi = np.arange(16) * 2 * np.pi / 16
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    values = 0.25 * np.sin(tt) ** 4 * np.cos(pp) ** 2
    assert values[4, 0] == values[4, 8] == values.max()
    values[4, 8] += shift
    grid = WignerGrid(theta, phi, values, np.full(9, 0.1))
    assert grid_argmax(grid) == (theta[4], expected_phi)


def test_cat_state_equatorial_oscillations():
    # an I = 3/2 cat has 2I = 3 maxima and 3 minima around the equator
    sys = SpinSystem(1.5)
    rho = projector(cat_state(sys, np.pi / 2, 0.0, 1))
    phi = np.arange(256) * 2 * np.pi / 256
    vals = wigner_point(sys, rho, np.full_like(phi, np.pi / 2), phi)
    # periodic scan: count extrema including any at the phi = 0 seam
    slopes = np.sign(np.diff(vals, append=vals[0]))
    sign_changes = np.diff(slopes, append=slopes[0])
    n_max = (sign_changes < 0).sum()
    n_min = (sign_changes > 0).sum()
    assert n_max == 3
    assert n_min == 3


def test_reality():
    sys = SpinSystem(2.0)
    rng = np.random.default_rng(9)
    grid = wigner_function(sys, random_density(sys, rng), 16, 16)
    assert np.isrealobj(grid.values)


def test_rotational_covariance():
    # W of the rotated state at n equals W of the original at R^T n
    sys = SpinSystem(1.5)
    rng = np.random.default_rng(4)
    rho = random_density(sys, rng)
    a, b, g = rng.uniform(0, 2 * np.pi, 3)
    U = rotation_operator(sys, a, b, g)
    R = euler_rotation_matrix(a, b, g)
    rho_rot = U @ rho @ U.conj().T
    for _ in range(20):
        th = rng.uniform(0.05, np.pi - 0.05)
        ph = rng.uniform(0, 2 * np.pi)
        n = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        nb = R.T @ n
        thb = np.arccos(np.clip(nb[2], -1, 1))
        phb = np.arctan2(nb[1], nb[0])
        w1 = wigner_point(sys, rho_rot, th, ph)
        w2 = wigner_point(sys, rho, thb, phb)
        assert abs(w1 - w2) < 1e-8


def test_linearity():
    sys = SpinSystem(1.5)
    rng = np.random.default_rng(6)
    r1, r2 = random_density(sys, rng), random_density(sys, rng)
    g1 = wigner_function(sys, r1, 16, 16)
    g2 = wigner_function(sys, r2, 16, 16)
    g12 = wigner_function(sys, 0.3 * r1 + 0.7 * r2, 16, 16)
    assert np.abs(0.3 * g1.values + 0.7 * g2.values - g12.values).max() < 1e-12


def test_minimum_grid_size():
    sys = SpinSystem(1.5)
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        wigner_function(sys, rho, 4, 64)
    with pytest.raises(ValueError):
        wigner_function(sys, rho, 64, 4)


def test_csv_roundtrip_and_determinism(tmp_path):
    sys = SpinSystem(1.5)
    grid = wigner_function(sys, projector(cat_state(sys, np.pi / 2, 0, 1)), 16, 32)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(grid, sys, p1)
    write_csv(grid, sys, p2)
    assert p1.read_bytes() == p2.read_bytes()
    I, back = read_csv(p1)
    assert I == sys.I
    assert np.allclose(back.theta, grid.theta, atol=1e-15)
    assert np.allclose(back.phi, grid.phi, atol=1e-15)
    assert np.abs(back.values - grid.values).max() < 1e-15
    assert abs(integrate_sphere(back) - integrate_sphere(grid)) < 1e-12
