"""Operator algebra: commutators, tensor basis, rotations."""

import decimal
import math
import re
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from spincat.dynamics import (NmrParams, effective_hamiltonian, evolve, free_evolution_schedule,
                              nmr_hamiltonian)
from spincat.smp import optimize_smp
from spincat.spin_ops import (HERMITICITY_TOL, SpinSystem, _wigner_d_rows, angular_momentum,
                              expm_hermitian, from_tensor_coefficients, reduced_wigner_d,
                              require_hermitian, require_integer, rotation_operator,
                              spherical_tensor_basis, tensor_band, tensor_coefficients,
                              tensor_keys, tensor_stack)
from spincat.states import cat_state, coherent_state, fidelity
from spincat.tomography import measure, pulse_set
from spincat.wigner import wigner_function, wigner_point

SPINS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 7.5, 10.0]


@pytest.mark.parametrize("I", SPINS)
def test_commutation_relations(I):
    ops = angular_momentum(SpinSystem(I))
    assert np.allclose(ops.Ix @ ops.Iy - ops.Iy @ ops.Ix, 1j * ops.Iz, atol=1e-12)
    assert np.allclose(ops.Iy @ ops.Iz - ops.Iz @ ops.Iy, 1j * ops.Ix, atol=1e-12)
    assert np.allclose(ops.Iz @ ops.Ix - ops.Ix @ ops.Iz, 1j * ops.Iy, atol=1e-12)


@pytest.mark.parametrize("I", SPINS)
def test_casimir(I):
    sys = SpinSystem(I)
    ops = angular_momentum(sys)
    assert np.allclose(ops.Isq, I * (I + 1) * np.eye(sys.d), atol=1e-10)


def test_casimir_three_halves():
    sys = SpinSystem(1.5)
    ops = angular_momentum(sys)
    assert np.allclose(ops.Isq, 15 / 4 * np.eye(4), atol=1e-12)


def test_ladder_elements_spin_one():
    ops = angular_momentum(SpinSystem(1.0))
    # <m'|I+|m> = sqrt(2) on both superdiagonal entries for I = 1
    expected = np.array([[0, np.sqrt(2), 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
    assert np.allclose(ops.Iplus, expected, atol=1e-12)
    assert np.allclose(ops.Iminus, expected.T, atol=1e-12)


def test_iz_ordering():
    sys = SpinSystem(1.5)
    ops = angular_momentum(sys)
    assert np.allclose(np.diag(ops.Iz), [1.5, 0.5, -0.5, -1.5])


@pytest.mark.parametrize("I", [0.5, 1.0, 1.5, 2.5, 4.0, 10.0, 15.0])
def test_tensor_orthonormality(I):
    sys = SpinSystem(I)
    basis = spherical_tensor_basis(sys)
    keys = tensor_keys(sys)
    assert len(keys) == sys.d ** 2
    vecs = np.array([basis[kq].ravel() for kq in keys])
    gram = vecs.conj() @ vecs.T
    assert np.abs(gram - np.eye(len(keys))).max() < 1e-10


@pytest.mark.parametrize("I", [1.5, 3.5, 7.5, 12.0, 20.0])
def test_tensor_stack_accuracy(I):
    # the Gram matrix and T_00 = identity/sqrt(d) through the dense stack; the band's own,
    # tighter bounds are in test_tensor_band_closed_forms
    sys = SpinSystem(I)
    T = tensor_stack(sys)
    vecs = T.reshape(sys.d ** 2, -1)
    assert np.abs(vecs.conj() @ vecs.T - np.eye(sys.d ** 2)).max() <= 1e-14
    assert np.abs(T[0] - np.eye(sys.d) / np.sqrt(sys.d)).max() <= 1e-13


@pytest.mark.parametrize("I", [1.0, 1.5, 2.0])
def test_tensor_completeness(I):
    sys = SpinSystem(I)
    basis = spherical_tensor_basis(sys)
    rng = np.random.default_rng(3)
    M = rng.normal(size=(sys.d, sys.d)) + 1j * rng.normal(size=(sys.d, sys.d))
    rebuilt = sum(np.trace(M @ t.conj().T) * t for t in basis.values())
    assert np.allclose(rebuilt, M, atol=1e-10)


@pytest.mark.parametrize("I", [1.0, 1.5, 2.5, 10.0, 15.0])
def test_tensor_conjugation(I):
    sys = SpinSystem(I)
    basis = spherical_tensor_basis(sys)
    for (K, Q), T in basis.items():
        assert np.allclose(T.conj().T, (-1) ** Q * basis[(K, -Q)], atol=1e-10)


@pytest.mark.parametrize("I", [7.5, 15.0, 20.0])
def test_tensor_casimir_and_ladder_relations(I):
    # sum_a [I_a, [I_a, T_KQ]] = K(K+1) T_KQ and
    # [I-, T_KQ] = sqrt(K(K+1) - Q(Q-1)) T_K,Q-1, the defining relations
    sys = SpinSystem(I)
    ops = angular_momentum(sys)
    T = tensor_stack(sys)
    K, Q = np.array(tensor_keys(sys)).T
    bound = 1e-12 * np.maximum(1, K * (K + 1))

    def comm(A, B):
        return A @ B - B @ A

    casimir = sum(comm(A, comm(A, T)) for A in (ops.Ix, ops.Iy, ops.Iz))
    err = np.abs(casimir - (K * (K + 1))[:, None, None] * T).max(axis=(1, 2))
    assert (err <= bound).all()
    # T_K,Q-1 sits one index below T_KQ; the factor vanishes at Q = -K
    lowered = np.sqrt(K * (K + 1) - Q * (Q - 1))[:, None, None] * np.roll(T, 1, axis=0)
    err = np.abs(comm(ops.Iminus, T) - lowered).max(axis=(1, 2))
    assert (err <= bound).all()
    # {I_z, T_KQ} = alpha_(K+1) T_(K+1)Q + alpha_K T_(K-1)Q, the recurrence tensor_band solves;
    # an alpha that vanishes (K = |Q| or K + 1 = d) multiplies a clipped stand-in
    def alpha(k):
        return np.sqrt((k * k - Q * Q) * (sys.d ** 2 - k * k) / (4 * k * k - 1))

    def rank(k):
        return T.take(k * k + k + Q, axis=0, mode="clip")

    anti = ops.Iz @ T + T @ ops.Iz
    step = alpha(K + 1)[:, None, None] * rank(K + 1) + alpha(K)[:, None, None] * rank(K - 1)
    assert np.abs(anti - step).max() <= 1e-13


@pytest.mark.parametrize("I", [0.5, 1.5, 3.5, 7.5, 20.0])
def test_tensor_band_layout(I):
    # one real, read-only diagonal per T_KQ: band[2I + Q, K, i] = (T_KQ)_{i,i+Q}, exactly 0
    # where K < |Q| or i + Q falls off rho, and about 1 MB at the largest spin
    sys = SpinSystem(I)
    band, idx, K, Q, at = tensor_band(sys)
    twoI, d = sys.d - 1, sys.d
    assert band.shape == (2 * twoI + 1, d, d) and band.dtype == np.float64
    assert not any(a.flags.writeable for a in (band, idx, K, Q, at))
    q, i = np.ogrid[-twoI:twoI + 1, :d]
    on = (0 <= i + q) & (i + q < d)
    assert (band[np.arange(d) < abs(q)] == 0).all()   # K < |Q|
    assert (band.transpose(0, 2, 1)[~on] == 0).all()   # i + Q off rho
    assert np.array_equal(idx[on], (i * (d + 1) + q)[on]) and (idx[~on] == d * d).all()
    assert band.nbytes <= 1.1e6
    assert tensor_keys(sys) == list(zip(K.tolist(), Q.tolist()))
    T = tensor_stack(sys)
    for n, (rank, order) in enumerate(zip(K, Q)):   # each operator holds its band, only that
        rows = slice(max(0, -order), d - max(0, order))
        assert np.array_equal(np.diagonal(T[n], order), band[twoI + order, rank, rows])
        assert np.count_nonzero(T[n]) == np.count_nonzero(band[twoI + order, rank])
        assert at[n] == (twoI + order) * d + rank


def _band_by_decimal_recurrence(twoI):
    """band[2I + Q, K, i] run forward in K from T_|Q|Q ~ (-I+)^Q or (I-)^|Q| in 60-digit decimal:
    T_(K+1)Q = ((2 m_i - Q) T_KQ - alpha_K T_(K-1)Q) / alpha_(K+1), all inputs exact rationals.
    The recurrence is unstable forward (6e-6 off at 2I = 40 in double), not at 60 digits."""
    d = twoI + 1
    band = np.zeros((2 * twoI + 1, d, d))
    with decimal.localcontext() as ctx:
        ctx.prec = 60

        def alpha(k, q):
            return (Decimal((k * k - q * q) * (d * d - k * k)) / (4 * k * k - 1)).sqrt()

        for q in range(-twoI, twoI + 1):
            twice_m = [twoI - 2 * i for i in range(max(0, -q), d - max(0, q))]
            # 4^|Q| (I+)^|Q| squared along the diagonal: products of (I - m)(I + m + 1), m climbing
            # from the pair's lower m
            sq = [math.prod((twoI - low - 2 * s) * (twoI + low + 2 * s + 2) for s in range(abs(q)))
                  for low in (min(tm, tm - 2 * q) for tm in twice_m)]
            sign = (-1) ** max(q, 0)
            prev, cur = [Decimal(0)] * len(sq), [sign * (Decimal(v) / sum(sq)).sqrt() for v in sq]
            for k in range(abs(q), d):
                band[twoI + q, k, max(0, -q):d - max(0, q)] = [float(v) for v in cur]
                if k + 1 < d:
                    a_k, a_up = alpha(k, q), alpha(k + 1, q)
                    prev, cur = cur, [((tm - q) * v - a_k * p) / a_up
                                      for tm, v, p in zip(twice_m, cur, prev)]
    return band


@pytest.mark.parametrize("twoI", [3, 7, 15, 24, 40])
def test_tensor_band_matches_decimal_recurrence(twoI):
    # the Jacobi-matrix eigenvectors against the exact-arithmetic forward run, entry by entry
    band = tensor_band(SpinSystem(twoI / 2))[0]
    assert np.abs(band - _band_by_decimal_recurrence(twoI)).max() <= 5e-15


def test_tensor_band_closed_forms():
    # from the band alone, for every 2I <= 40: T_00 = 1/sqrt(d) and Tr T_KQ = 0 for K > 0 (only
    # Q = 0 has a trace)
    for twoI in range(1, 41):
        band = tensor_band(SpinSystem(twoI / 2))[0]
        assert np.abs(band[twoI, 0] - 1 / np.sqrt(twoI + 1)).max() <= 3e-15
        assert np.abs(band[twoI, 1:].sum(axis=1)).max() <= 2e-14


@settings(max_examples=60, deadline=None)
@given(twoI=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_tensor_coefficients_round_trip_and_match_dense(twoI, seed, scale):
    # rho -> c -> rho through the band and its inverse, and c against the dense contraction
    sys = SpinSystem(twoI / 2)
    rho = scale * (np.random.default_rng(seed).normal(size=(sys.d, sys.d, 2)) @ [1, 1j])
    c = tensor_coefficients(sys, rho)
    bound = 1e-14 * max(1.0, np.linalg.norm(rho))
    assert np.abs(from_tensor_coefficients(sys, c) - rho).max() <= bound
    dense = tensor_stack(sys).reshape(sys.d ** 2, -1).conj() @ rho.ravel()
    assert np.abs(c - dense).max() <= bound


def test_tensor_basis_dict_is_a_copy():
    sys = SpinSystem(1.5)
    stack = tensor_stack(sys).copy()
    basis = spherical_tensor_basis(sys)
    basis[(1, 0)] = np.zeros((4, 4))
    del basis[(0, 0)]
    with pytest.raises(ValueError):
        basis[(2, 1)][0, 1] = 5.0
    assert np.array_equal(spherical_tensor_basis(sys)[(1, 0)], stack[2])
    assert np.array_equal(tensor_stack(sys), stack)
    assert np.array_equal(spherical_tensor_basis(sys)[(0, 0)], stack[0])


def test_identity_tensor():
    sys = SpinSystem(1.5)
    T00 = spherical_tensor_basis(sys)[(0, 0)]
    assert np.allclose(T00, np.eye(4) / 2, atol=1e-12)


def test_reduced_wigner_identity():
    assert np.allclose(reduced_wigner_d(0.5, 0.0), np.eye(2), atol=1e-12)
    assert np.allclose(reduced_wigner_d(2.0, 0.0), np.eye(5), atol=1e-12)


def test_reduced_wigner_pi_exchange():
    d = reduced_wigner_d(0.5, np.pi)
    assert np.allclose(np.abs(d), [[0, 1], [1, 0]], atol=1e-12)


def test_reduced_wigner_orthonormal_rows():
    d = reduced_wigner_d(1.5, 0.7)
    assert np.allclose(d @ d.T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("I", [0.5, 1.0, 1.5, 2.5, 15.0, 20.0])
def test_reduced_wigner_matches_expm(I):
    sys = SpinSystem(I)
    ops = angular_momentum(sys)
    beta = 1.234
    want = scipy.linalg.expm(-1j * beta * ops.Iy)
    assert np.abs(reduced_wigner_d(I, beta) - want).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.floats(0, 2 * np.pi))
@example(0.0)
@example(np.pi)
@example(2 * np.pi)
def test_wigner_d_rows_match_expm(theta):
    # the one recurrence behind tomography's rotation rows and the Wigner map's harmonics, at
    # every rank up to the spin cap's 2I = 40, against exp(-i theta Iy); synthesize_spectrum
    # takes theta up to 2 pi
    L = 40
    refs = [reduced_wigner_d(k, theta) for k in range(L + 1)]
    K, Q = np.arange(L + 1)[:, None], np.arange(-L, L + 1)
    for mu in (0, -1):
        d = _wigner_d_rows(L, mu, np.array([theta]))[..., 0]
        want = np.zeros_like(d)
        for k in range(-mu, L + 1):
            want[k, L - k:L + k + 1] = refs[k][k - mu, ::-1]   # d^k_{mu,Q}, Q = -k..k
        assert np.abs(d - want).max() <= 1e-13
        assert np.all(d[K < np.maximum(-mu, abs(Q))] == 0)


@pytest.mark.parametrize("I", [1.0, 1.5, 2.0])
def test_rotation_unitary_and_composition(I):
    sys = SpinSystem(I)
    rng = np.random.default_rng(11)
    a1, b1, g1, a2, b2, g2 = rng.uniform(0, 2 * np.pi, 6)
    U1 = rotation_operator(sys, a1, b1, g1)
    assert np.allclose(U1 @ U1.conj().T, np.eye(sys.d), atol=1e-12)
    # z-rotations compose additively
    Z1 = rotation_operator(sys, a1, 0, 0)
    Z2 = rotation_operator(sys, a2, 0, 0)
    assert np.allclose(Z1 @ Z2, rotation_operator(sys, a1 + a2, 0, 0), atol=1e-12)


def test_expm_hermitian_unitary():
    sys = SpinSystem(2.0)
    ops = angular_momentum(sys)
    U = expm_hermitian(ops.Ix + 0.3 * ops.Iz @ ops.Iz, 2.7)
    assert np.allclose(U @ U.conj().T, np.eye(sys.d), atol=1e-12)


def test_hermiticity_tolerance_is_relative():
    # a rotated I = 7/2 Hamiltonian in rad/s carries round-off asymmetry far
    # above 1e-12 but far below 1e-12 of its largest entry
    sys = SpinSystem(3.5)
    R = rotation_operator(sys, 0.3, 1.1, 2.0)
    H = R @ nmr_hamiltonian(sys, NmrParams(0.0, 2 * np.pi * 25e3, 2 * np.pi * 15220.0)) @ R.conj().T
    assert np.abs(H - H.conj().T).max() > 10 * HERMITICITY_TOL
    U = expm_hermitian(H, 1e-6)
    assert np.allclose(U @ U.conj().T, np.eye(sys.d), atol=1e-12)
    # a density matrix with a 1e-9 anti-Hermitian part is still not Hermitian
    rho = np.eye(sys.d) / sys.d + 1e-9j * np.ones((sys.d, sys.d))
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(rho, "density matrix")


def test_residual_is_measured_in_double_precision():
    # the residual comes back for the Wigner map's residue bound; an int8 -128 - 0 = -128 and
    # 0 - (-128) = 128, which int8 arithmetic wraps to -128 and |-128| again to -128, so
    # measured in int8 this non-Hermitian matrix showed a residual of 0
    H = np.array([[1.0, 2 + 1e-13j], [2, 3]])
    assert require_hermitian(H) == abs(H[0, 1] - H[1, 0].conjugate())
    assert require_hermitian(np.eye(3, dtype=np.float32)) == 0.0
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0, -128], [0, 0]], dtype=np.int8))


SYS, NU_Q = SpinSystem(1.5), 15220.0
NMR = NmrParams(0.0, 0.0, 2 * np.pi * NU_Q)
RHO = np.eye(4, dtype=complex) / 4
HERMITIAN_ENTRY_POINTS = {
    "wigner_function": ("density matrix", lambda M: wigner_function(SYS, M)),
    "wigner_point": ("density matrix", lambda M: wigner_point(SYS, M, 0.3, 0.4)),
    "measure": ("density matrix", lambda M: measure(SYS, M, pulse_set(SYS), NMR)),
    "fidelity": ("first argument", lambda M: fidelity(M, M)),
    "evolve": ("Hamiltonian", lambda M: evolve(RHO, M, 1e-6)),
}


@pytest.mark.parametrize("entry", HERMITIAN_ENTRY_POINTS)
@pytest.mark.parametrize("shape", [(4, 5), (1, 4, 4)])
def test_non_square_matrices_are_refused_by_name_and_shape(entry, shape):
    # refused before any arithmetic, naming the argument and its shape
    name, call = HERMITIAN_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"{name} must be .*{re.escape(str(shape))}"):
        call(np.zeros(shape))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
@pytest.mark.parametrize("entry", [*HERMITIAN_ENTRY_POINTS, "expm_hermitian"])
def test_non_finite_entries_are_refused_by_name(entry, value):
    # an infinite entry made the relative tolerance infinite, so the matrix passed and
    # wigner_function returned a map of +-inf
    name, call = {**HERMITIAN_ENTRY_POINTS,
                  "expm_hermitian": ("generator", lambda M: expm_hermitian(M, 1e-6))}[entry]
    M = RHO.copy()
    M[0, 1] = value
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
        call(M)


def smp_fidelity(**kwargs):
    target = coherent_state(SYS, np.pi / 2, 0.0)
    args = {"n_segments": 2, "delta_t": 1e-6, "budget": 2, "n_variants": 1, "n_starts": 1, **kwargs}
    return optimize_smp(SYS, NMR, target, **args).fidelity


# site -> (argument name, a valid value, the call with that argument set)
INTEGER_SITES = {
    "effective_hamiltonian": ("p", 3, lambda v: effective_hamiltonian(SYS, 1.0, v)),
    "schedule_p": ("p", 3, lambda v: free_evolution_schedule(SYS, v, NU_Q, [1])[0]),
    "schedule_checkpoints": ("checkpoints", 3,
                             lambda v: free_evolution_schedule(SYS, 1, NU_Q, [v])[0]),
    "cat_state": ("p", 3, lambda v: cat_state(SYS, np.pi / 2, 0.0, v)),
    "wigner_n_theta": ("n_theta", 9, lambda v: wigner_function(SYS, RHO, v, 10).values),
    "wigner_n_phi": ("n_phi", 9, lambda v: wigner_function(SYS, RHO, 10, v).values),
    "smp_n_segments": ("n_segments", 3, lambda v: smp_fidelity(n_segments=v)),
    "smp_n_variants": ("n_variants", 3, lambda v: smp_fidelity(n_variants=v)),
    "smp_n_starts": ("n_starts", 3, lambda v: smp_fidelity(n_starts=v)),
    "smp_budget": ("budget", 3, lambda v: smp_fidelity(budget=v)),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_argument_follows_one_policy(site):
    # ints, numpy ints and integral floats give the int's result; bools, fractions, non-finite
    # floats and other types are refused by the argument's name
    name, n, call = INTEGER_SITES[site]
    want = call(n)
    for same in (np.int64(n), np.int32(n), float(n), np.float32(n)):
        assert np.array_equal(call(same), want), same
    for bad in (True, np.True_, n + 0.5, np.nan, np.inf, -np.inf, str(n), None):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(bad)


def test_require_integer_states_its_minimum():
    assert require_integer(np.float64(-4.0), "k") == -4 and type(require_integer(2**60, "k")) is int
    for bad in (0, 0.0, False):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1, got {bad!r}")):
            require_integer(bad, "n", 1)


def test_invalid_spin():
    with pytest.raises(ValueError):
        SpinSystem(0.7)
    with pytest.raises(ValueError):
        SpinSystem(-1.0)


@pytest.mark.parametrize("I", [np.nan, np.inf, -np.inf])
def test_non_finite_spin_is_refused_by_name(I):
    # refused as a spin, not by round() with "cannot convert float NaN" or an OverflowError
    with pytest.raises(ValueError, match=f"2I must be a positive integer, got I={I}"):
        SpinSystem(I)
