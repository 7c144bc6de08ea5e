"""Spherical quasiprobability map: normalization, covariance, serialization."""

import decimal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincat import spin_ops, wigner
from spincat.spin_ops import (SpinSystem, euler_rotation_matrix, rotation_operator,
                              tensor_keys, tensor_stack)
from spincat.states import cat_state, coherent_state, projector
from spincat.wigner import (WignerGrid, _grid_nodes, _polar_harmonics, grid_argmax,
                            integrate_sphere, spherical_harmonic,
                            tensor_expectations, wigner_function, wigner_point,
                            write_csv)


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


@pytest.mark.parametrize("name, K, Q", [("K", True, 0), ("K", 1.5, 0), ("K", np.nan, 0),
                                         ("K", "1", 0), ("K", None, 0), ("K", -1, 0),
                                         ("Q", 1, True), ("Q", 1, 0.5), ("Q", 1, np.inf),
                                         ("Q", 1, "0")])
def test_spherical_harmonic_reads_rank_and_order_as_integers(name, K, Q):
    # refused by name, not inside scipy with an unnamed TypeError, nor taken as K = 1 for True
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        spherical_harmonic(K, Q, 0.3, 0.4)
    assert spherical_harmonic(np.int64(2), 2.0, 0.3, 0.4) == spherical_harmonic(2, 2, 0.3, 0.4)


def test_polar_harmonics_match_scipy():
    # every rank a map needs up to the spin cap of 20 (2I = 40), every order
    from scipy.special import sph_harm_y
    theta, _, _ = _grid_nodes(64, 8)
    K = np.repeat(np.arange(41), 2 * np.arange(41) + 1)
    Q = np.concatenate([np.arange(-k, k + 1) for k in range(41)])
    want = sph_harm_y(K[:, None], Q[:, None], theta, 0)
    assert np.abs(_polar_harmonics(K, Q, theta) - want).max() < 1e-13


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


def test_large_spin_cat_map():
    # an I = 15 cat on a grid with n_phi < 4I + 1, where FFT bins would fold
    sys = SpinSystem(15)
    grid = wigner_function(sys, projector(cat_state(sys, np.pi / 2, 0.0, 1)), 16, 32)
    assert abs(integrate_sphere(grid) - 1) < 1e-12
    tt, pp = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    ref = wigner_point(sys, projector(cat_state(sys, np.pi / 2, 0.0, 1)), tt, pp)
    assert np.abs(grid.values - ref).max() < 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(twoI=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       n_theta=st.integers(8, 40), n_phi=st.integers(8, 40))
def test_synthesis_matches_pointwise_harmonics(twoI, seed, n_theta, n_phi):
    sys = SpinSystem(twoI / 2)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(sys.d, sys.d)) + 1j * rng.normal(size=(sys.d, sys.d))
    H = (A + A.conj().T) / 2
    rho = H + (1 - np.trace(H).real) / sys.d * np.eye(sys.d)
    grid = wigner_function(sys, rho, n_theta, n_phi)
    tt, pp = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    ref = wigner_point(sys, rho, tt, pp)
    assert np.abs(grid.values - ref).max() < 1e-12 * np.abs(ref).max()
    # the quadrature is exact once it resolves every harmonic: Gauss-Legendre
    # in cos(theta) up to degree 2 n_theta - 1 >= 2I, and |Q| <= 2I < n_phi
    if 2 * n_theta > twoI and n_phi > twoI:
        assert abs(integrate_sphere(grid) - 1) < 1e-12


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


@pytest.mark.parametrize("I, scale", [(7.5, 1e5), (1.5, 1e7)])
def test_scaled_hermitian_matrix_maps_to_scaled_map(I, scale):
    # the imaginary-residue guard is relative to |W|max, as the Hermiticity check is
    # to |rho|max: an exactly Hermitian rho at a large scale maps without error
    sys = SpinSystem(I)
    A = np.random.default_rng(31).normal(size=(sys.d, sys.d, 2)) @ [1, 1j]
    rho = A + A.conj().T
    unit = wigner_function(sys, rho).values
    scaled = wigner_function(sys, scale * rho).values
    assert np.abs(scaled - scale * unit).max() <= 1e-12 * scale * np.abs(unit).max()


def test_minimum_grid_size():
    sys = SpinSystem(1.5)
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        wigner_function(sys, rho, 4, 64)
    with pytest.raises(ValueError):
        wigner_function(sys, rho, 64, 4)


@pytest.mark.parametrize("name, n", [("n_theta", 64.5), ("n_phi", 128.5), ("n_theta", np.nan),
                                     ("n_phi", np.inf), ("n_phi", -np.inf)])
def test_grid_sizes_must_be_finite_integers(name, n):
    # refused by name before any grid factor is built; integral values of any type map alike
    sys = SpinSystem(1.5)
    rho = projector(cat_state(sys, np.pi / 2, 0.0, 1))
    wigner._grid_factors.cache_clear()
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        wigner_function(sys, rho, **{name: n})
    assert wigner._grid_factors.cache_info().currsize == 0
    want = wigner_function(sys, rho, 16, 17).values
    for n_theta, n_phi in [(np.int64(16), np.int32(17)), (16.0, 17.0)]:
        grid = wigner_function(sys, rho, n_theta, n_phi)
        assert grid.values.shape == (16, 17) and np.array_equal(grid.values, want)


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (16,)])
def test_density_matrix_shape_checked(shape):
    # the map gathers rho's diagonals by flat index, so a wrong shape must not reach it
    with pytest.raises(ValueError, match="4x4"):
        wigner_function(SpinSystem(1.5), np.ones(shape))


def test_csv_roundtrip_and_determinism(tmp_path):
    sys = SpinSystem(1.5)
    grid = wigner_function(sys, projector(cat_state(sys, np.pi / 2, 0, 1)), 16, 32)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(grid, sys, p1)
    write_csv(grid, sys, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # 17 significant digits bring every double back exactly
    meta, columns, *_ = p1.read_text().splitlines()
    assert meta == "# I=1.5 n_theta=16 n_phi=32" and columns == "theta,phi,W"
    theta, phi, values = np.loadtxt(p1, delimiter=",", skiprows=2, unpack=True)
    assert np.array_equal(theta, np.repeat(grid.theta, 32))
    assert np.array_equal(phi, np.tile(grid.phi, 16))
    assert np.array_equal(values, grid.values.ravel())


def test_csv_matches_cell_by_cell_format(tmp_path):
    # the row-wise writer gives the bytes of formatting every cell on its own
    sys = SpinSystem(2.5)
    theta, w, phi = _grid_nodes(9, 13)
    rng = np.random.default_rng(4)
    values = rng.normal(size=(9, 13)) * 10.0 ** rng.integers(-300, 300, size=(9, 13))
    values[0, :4] = [0.0, -0.0, 5e-324, 1.0]
    grid = WignerGrid(theta, phi, values, w)
    write_csv(grid, sys, tmp_path / "w.csv")
    want = "# I=2.5 n_theta=9 n_phi=13\ntheta,phi,W\n" + "".join(
        f"{th:.17g},{ph:.17g},{values[i, j]:.17g}\n"
        for i, th in enumerate(theta) for j, ph in enumerate(phi))
    assert (tmp_path / "w.csv").read_bytes() == want.encode()


def uncached_map(sys, rho, n_theta, n_phi):
    """The half-kernel synthesis with every grid factor built afresh: the kernel G[Q, t, i],
    Q >= 0 and G[0] halved, from each order's band of the stack, times rho's Q-th super- and
    subdiagonals u_Q + v_Q and u_Q - v_Q, spread by cos Q phi and -sin Q phi."""
    theta, _, phi = _grid_nodes(n_theta, n_phi)
    K, Q = np.array(tensor_keys(sys)).T
    Y = _polar_harmonics(K, Q, theta)
    orders = np.arange(sys.d)
    G = np.zeros((sys.d, n_theta, sys.d))
    diagonals = np.zeros((sys.d, sys.d, 2), dtype=complex)
    for g, w, q in zip(G, diagonals, orders):
        band = np.diagonal(tensor_stack(sys)[Q == q].real, q, 1, 2)
        g[:, :sys.d - q] = Y[Q == q].T @ np.ascontiguousarray(band)
        u, v = np.diagonal(rho, q), np.diagonal(rho, -q)
        w[:sys.d - q] = np.stack((u + v, u - v), -1)
    G *= np.sqrt(sys.d / (4 * np.pi))
    G[0] /= 2
    st = G @ diagonals.view(float)
    table = np.concatenate((np.cos(np.outer(orders, phi)), -np.sin(np.outer(orders[1:], phi))))
    return np.concatenate((st[..., 0], st[1:, :, 3])).T @ table


def harmonic_sum_map(sys, rho, n_theta, n_phi):
    """The complex map as a sum of all d^2 harmonics: c_KQ Y_KQ(theta, 0) e^{iQ phi}."""
    theta, _, phi = _grid_nodes(n_theta, n_phi)
    coeffs = tensor_stack(sys).reshape(sys.d ** 2, -1).conj() @ rho.ravel()
    K, Q = np.array(tensor_keys(sys)).T
    Y = _polar_harmonics(K, Q, theta)
    return np.sqrt(sys.d / (4 * np.pi)) * (Y.T * coeffs) @ np.exp(1j * np.outer(Q, phi))


@pytest.mark.parametrize("I", [0.5, 1, 1.5, 2, 3.5, 7.5, 12, 20])
@pytest.mark.parametrize("n_theta,n_phi", [(64, 128), (9, 13)])
def test_kernel_map_matches_harmonic_sum(I, n_theta, n_phi):
    # summing the ranks first on rho's diagonals changes only the round-off
    sys = SpinSystem(I)
    rng = np.random.default_rng(round(4 * I))
    for rho in (random_density(sys, rng), projector(cat_state(sys, np.pi / 2, 0.0, 1))):
        want = harmonic_sum_map(sys, rho, n_theta, n_phi).real
        got = wigner_function(sys, rho, n_theta, n_phi).values
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("I", [1.5, 7.5])
def test_imaginary_residue_guard_reads_the_map(monkeypatch, I):
    # with the Hermiticity check switched off (its residual unknown, so the sweep runs), the map
    # itself still shows Im W
    monkeypatch.setattr(wigner, "require_hermitian", lambda *args: np.inf)
    sys = SpinSystem(I)
    rho = np.random.default_rng(3).normal(size=(sys.d, sys.d, 2)) @ [1, 1j]
    with pytest.raises(ValueError, match="imaginary residue"):
        wigner_function(sys, rho)


# rho = H + eps A on a small grid: log-uniform eps or eps = 0, three scales, and A arbitrary,
# real antisymmetric (seen only in Re t) or imaginary symmetric (seen only in Im s)
PERTURBED = dict(twoI=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
                 log_eps=st.one_of(st.none(), st.floats(-17, 0)),
                 scale=st.sampled_from([1.0, 1e5, 1e7]),
                 skew=st.sampled_from(["complex", "real", "imaginary"]),
                 n_theta=st.integers(8, 24), n_phi=st.integers(8, 24))


def perturbed_rho(sys, seed, log_eps, scale, skew):
    R, S, X, Y = scale * np.random.default_rng(seed).normal(size=(4, sys.d, sys.d))
    A = {"complex": R + 1j * S, "real": R - R.T, "imaginary": 1j * (S + S.T)}[skew]
    return (X + 1j * Y + X.T - 1j * Y.T) / 2 + (0.0 if log_eps is None else 10.0 ** log_eps) * A


@settings(max_examples=150, deadline=None)
@given(**PERTURBED)
def test_residue_guard_refuses_every_map_the_complex_map_shows(twoI, seed, log_eps, scale, skew,
                                                                n_theta, n_phi):
    # with the Hermiticity check switched off (its residual unknown, np.inf, so the sweep always
    # runs): the guard's bound, the sum over Q >= 0 of hypot(Im s_Q, Re t_Q), is at least |Im W|
    # at every phi, so every map whose all-orders complex synthesis shows a residue above the
    # threshold is refused, and an exactly Hermitian rho, at any scale, never is
    sys = SpinSystem(twoI / 2)
    rho = perturbed_rho(sys, seed, log_eps, scale, skew)
    W = harmonic_sum_map(sys, rho, n_theta, n_phi)
    with mock.patch.object(wigner, "require_hermitian", lambda *args: np.inf):
        if np.abs(W.imag).max() > 1e-10 * max(1.0, np.abs(W).max()):
            with pytest.raises(ValueError, match="imaginary residue"):
                wigner_function(sys, rho, n_theta, n_phi)
        elif log_eps is None:
            wigner_function(sys, rho, n_theta, n_phi)


def residue_sweep(sys, rho, n_theta, n_phi):
    """The residue guard's sweep at every theta, sum_{Q >= 0} hypot(Im s_Q, Re t_Q), read off
    the cached half kernel as wigner_function reads it."""
    _, _, _, G, idx, _, _ = wigner._grid_factors(sys.d - 1, n_theta, n_phi)
    u, v = rho.take(idx, mode="clip").astype(complex)
    st = G @ np.stack((u + v, u - v), -1).view(float)
    return np.hypot(st[..., 1], st[..., 2]).sum(axis=0)


@pytest.mark.parametrize("I", [0.5, 1.5, 3.5, 7.5, 20])
@pytest.mark.parametrize("n_theta,n_phi", [(64, 128), (9, 13)])
def test_residue_bound_holds_and_is_reached(I, n_theta, n_phi):
    # (Re t_Q, Im s_Q) is G[Q] times D = rho - rho^dag on the Q-th diagonal, so the sweep is at
    # most res c_G, res = max|D|.  rho = H + i eps B, H real symmetric and B real symmetric with
    # B[i, i+Q] = sign G[Q, t, i] at the theta t where sum_Q,i |G| peaks: D = 2 i eps B meets
    # every G[Q, t] in phase there, so the sweep reaches res c_G up to c_G's rounding margin
    sys = SpinSystem(I)
    _, _, _, G, _, _, c_G = wigner._grid_factors(sys.d - 1, n_theta, n_phi)
    top = np.abs(G).sum(axis=(0, 2)).argmax()
    B = sum(np.diag(np.sign(g[:sys.d - q]), q) for q, g in enumerate(G[:, top]))
    B = B + np.triu(B, 1).T
    H = np.random.default_rng(round(2 * I)).normal(size=(sys.d, sys.d))
    for scale, eps in [(1.0, 1e-13), (1e10, 1e-3)]:
        rho = scale * (H + H.T) + 1j * eps * B
        res = spin_ops.require_hermitian(rho)
        assert res == 2 * eps
        sweep = residue_sweep(sys, rho, n_theta, n_phi)
        assert np.all(sweep <= res * c_G)
        assert sweep[top] >= res * c_G * (1 - 1e-6)


@settings(max_examples=150, deadline=None)
@given(**PERTURBED)
def test_residue_guard_decides_as_the_forced_sweep(twoI, seed, log_eps, scale, skew, n_theta,
                                                   n_phi):
    # with the Hermiticity check on, the sweep is skipped where its residual proves the sweep
    # passes; the map is refused, or not, and its values are, as when the sweep always runs
    sys = SpinSystem(twoI / 2)
    rho = perturbed_rho(sys, seed, log_eps, scale, skew)

    def decision():
        try:
            return wigner_function(sys, rho, n_theta, n_phi).values
        except ValueError as refusal:
            return str(refusal)

    checked = decision()
    if isinstance(checked, str) and "not Hermitian" in checked:
        return
    with mock.patch.object(wigner, "require_hermitian", lambda *args: np.inf):
        forced = decision()
    assert type(checked) is type(forced) and np.array_equal(checked, forced)


@pytest.mark.parametrize("I", [1.5, 3.5, 7.5, 20])
@pytest.mark.parametrize("n_theta,n_phi", [(64, 128), (9, 13)])
def test_cached_grid_factors_bit_identical(I, n_theta, n_phi):
    sys = SpinSystem(I)
    rng = np.random.default_rng(round(2 * I))
    wigner._grid_factors.cache_clear()
    for _ in range(3):  # one cold map, then warm ones
        rho = random_density(sys, rng)
        grid = wigner_function(sys, rho, n_theta, n_phi)
        assert np.array_equal(grid.values, uncached_map(sys, rho, n_theta, n_phi))
        theta, w, phi = _grid_nodes(n_theta, n_phi)
        assert np.array_equal(grid.theta, theta) and np.array_equal(grid.phi, phi)
        assert np.array_equal(grid.weights, w)


def test_spins_on_one_grid_keep_their_own_factors():
    rng = np.random.default_rng(5)
    systems = [SpinSystem(1.5), SpinSystem(2.0), SpinSystem(1.5), SpinSystem(2.0)]
    for sys in systems:
        rho = random_density(sys, rng)
        assert np.array_equal(wigner_function(sys, rho, 16, 16).values,
                              uncached_map(sys, rho, 16, 16))
    assert wigner._grid_factors(3, 16, 16)[3].shape == (4, 16, 4)
    assert wigner._grid_factors(4, 16, 16)[3].shape == (5, 16, 5)


def test_grid_factors_built_once(monkeypatch):
    calls = {"nodes": 0, "harmonics": 0}
    nodes, harmonics = wigner._grid_nodes, wigner._polar_harmonics

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(wigner, "_grid_nodes", counted("nodes", nodes))
    monkeypatch.setattr(wigner, "_polar_harmonics", counted("harmonics", harmonics))
    wigner._grid_factors.cache_clear()
    sys = SpinSystem(3.5)
    rng = np.random.default_rng(8)
    for _ in range(5):
        wigner_function(sys, random_density(sys, rng), 32, 48)
    assert calls == {"nodes": 1, "harmonics": 1}


def decimal_gauss_legendre(n, k, digits=40):
    """Node k (descending) and weight of n-point Gauss-Legendre to `digits` digits: Newton's
    method on the Legendre recurrence in decimal arithmetic, from the double-precision node."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x = decimal.Decimal(float(np.cos(_grid_nodes(n, 8)[0][k])))
        for _ in range(4):
            p0, p1 = decimal.Decimal(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (p0 - x * p1) / (1 - x * x)
            x -= p1 / dp
        return float(x), float(2 / ((1 - x * x) * dp * dp))


@pytest.mark.parametrize("n", [8, 64, 2048])
def test_grid_nodes_match_leggauss(n):
    # Newton on the Legendre recurrence gives numpy's nodes and weights without importing
    # numpy.polynomial; at n = 2048 leggauss's own end weights are 1.1e-13 off (against
    # 40 digits), so there the weights are held to the 40-digit values at 1e-14
    start = time.perf_counter()
    theta, w, _ = _grid_nodes(n, 8)
    newton = time.perf_counter() - start
    start = time.perf_counter()
    x, want = np.polynomial.legendre.leggauss(n)
    oracle = time.perf_counter() - start
    w = w / (2 * np.pi / 8)
    assert np.abs(np.cos(theta) - x[::-1]).max() <= 1e-14
    assert np.all(np.diff(theta) > 0) and 0 < theta[0] and theta[-1] < np.pi
    if n < 2048:
        assert np.abs(w - want[::-1]).max() <= 1e-14
        return
    assert newton < oracle
    assert np.abs(w - want[::-1]).max() <= 2e-13
    worst = np.argsort(-np.abs(w - want[::-1]))[:3]
    for k in {0, n // 3, n // 2, n - 1, *worst.tolist()}:
        xk, wk = decimal_gauss_legendre(n, k)
        assert abs(np.cos(theta[k]) - xk) <= 1e-15 and abs(w[k] - wk) <= 1e-14, k


def test_grid_nodes_are_read_only():
    sys = SpinSystem(1.5)
    rho = projector(cat_state(sys, np.pi / 2, 0.0, 1))
    grid = wigner_function(sys, rho, 16, 32)
    for nodes in (grid.theta, grid.phi, grid.weights):
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
    assert np.array_equal(wigner_function(sys, rho, 16, 32).values, uncached_map(sys, rho, 16, 32))
