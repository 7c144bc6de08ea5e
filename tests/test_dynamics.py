"""Hamiltonian builders and exact evolution."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spincat.dynamics import (NmrParams, atom_field_hamiltonian, cat_time,
                              effective_hamiltonian, evolve,
                              free_evolution_schedule, nmr_hamiltonian)
from spincat.spin_ops import SpinSystem, angular_momentum
from spincat.states import cat_state, coherent_state, fidelity, projector

NU_Q = 15220.0
OMEGA_Q = 2 * np.pi * NU_Q


def test_nmr_hamiltonian_terms():
    # the offset and quadrupolar terms only: the RF term belongs to the SMP segments
    sys = SpinSystem(1.5)
    ops = angular_momentum(sys)
    H = nmr_hamiltonian(sys, NmrParams(omega_L=100.0, omega_RF=30.0, omega_Q=OMEGA_Q))
    want = -70.0 * ops.Iz + OMEGA_Q / 6 * (3 * ops.Iz @ ops.Iz - ops.Isq)
    assert np.allclose(H, want, atol=1e-9)
    assert [f.name for f in dataclasses.fields(NmrParams)] == ["omega_L", "omega_RF", "omega_Q"]


def test_quadrupolar_term_traceless():
    # on resonance with the RF off only the quadrupolar term is left
    sys = SpinSystem(2.5)
    H = nmr_hamiltonian(sys, NmrParams(omega_L=100.0, omega_RF=100.0, omega_Q=OMEGA_Q))
    assert abs(np.trace(H)) < 1e-9


def test_effective_hamiltonian_resonance_degeneracy():
    # for p = 0 the +-m levels are exactly degenerate
    sys = SpinSystem(1.5)
    H = effective_hamiltonian(sys, OMEGA_Q, 0)
    e = np.diag(H).real
    assert abs(e[0] - e[3]) < 1e-9   # m = +3/2 vs -3/2
    assert abs(e[1] - e[2]) < 1e-9   # m = +1/2 vs -1/2


@pytest.mark.parametrize("p", [0.5, np.inf, -np.inf, np.nan])
def test_effective_hamiltonian_refuses_non_integer_p(p):
    with pytest.raises(ValueError, match="p must be an integer"):
        effective_hamiltonian(SpinSystem(1.5), OMEGA_Q, p)


def test_satellite_line_gaps():
    # single-quantum transition frequencies of the pure quadrupolar
    # Hamiltonian sit at -nu_Q, 0, +nu_Q for I = 3/2
    sys = SpinSystem(1.5)
    H = nmr_hamiltonian(sys, NmrParams(omega_L=100.0, omega_RF=100.0, omega_Q=OMEGA_Q))
    e = np.diag(H).real
    gaps = np.diff(e) / (2 * np.pi)
    assert np.allclose(gaps, [-NU_Q, 0.0, NU_Q], atol=1e-9)


def test_atom_field_shift_proportional_to_identity():
    # kappa ((2n+1) Iz - Iz^2 + I^2) differs from the p = 2n+1 effective
    # form only by a multiple of the identity (after rescaling)
    sys = SpinSystem(1.5)
    kappa = 7.0
    nbar = 3.0
    H = atom_field_hamiltonian(sys, kappa, nbar)
    Heff = effective_hamiltonian(sys, -2 * kappa, round(2 * nbar + 1))
    diff = H - Heff
    assert np.allclose(diff, diff[0, 0] * np.eye(sys.d), atol=1e-9)


@pytest.mark.parametrize("name", ["kappa", "nbar"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_atom_field_hamiltonian_refuses_non_finite_input_by_name(name, value):
    # a NaN used to return a NaN matrix, and an infinity an unnamed RuntimeWarning
    args = {"kappa": 7.0, "nbar": 3.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        atom_field_hamiltonian(SpinSystem(1.5), **args)


def test_evolve_unitary_and_energy_conserving():
    sys = SpinSystem(2.0)
    H = effective_hamiltonian(sys, OMEGA_Q, 1)
    psi = coherent_state(sys, 1.0, 0.2)
    out = evolve(psi, H, 1e-4)
    assert abs(np.linalg.norm(out) - 1) < 1e-12
    e0 = np.vdot(psi, H @ psi).real
    e1 = np.vdot(out, H @ out).real
    assert abs(e0 - e1) < 1e-6 * abs(e0)


def test_evolve_density_matrix():
    sys = SpinSystem(1.5)
    H = effective_hamiltonian(sys, OMEGA_Q, 1)
    psi = coherent_state(sys, np.pi / 2, 0)
    t = 1e-5
    rho_t = evolve(projector(psi), H, t)
    assert np.allclose(rho_t, projector(evolve(psi, H, t)), atol=1e-12)


def test_cat_time_value():
    assert abs(cat_time(NU_Q) - 1 / (2 * NU_Q)) < 1e-18
    assert abs(cat_time(NU_Q) * 1e6 - 32.85) < 0.01
    with pytest.raises(ValueError):
        cat_time(0.0)


@pytest.mark.parametrize("I,period", [(1.5, 4), (2.0, 4)])
def test_periodicity(I, period):
    # the quadratic phase exp(-i pi m^2 k / 2) has period 4 in k (period 2
    # up to sign structure for some spins); check full revival at 4 t_S
    sys = SpinSystem(I)
    H = effective_hamiltonian(sys, OMEGA_Q, 0)
    psi = coherent_state(sys, np.pi / 2, 0.3)
    out = evolve(psi, H, period * cat_time(NU_Q))
    assert abs(abs(np.vdot(psi, out)) - 1) < 1e-10


@pytest.mark.parametrize("I", [1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("p", [-2, -1, 0, 1, 2, 3])
def test_analytic_vs_numeric_sweep(I, p):
    sys = SpinSystem(I)
    H = effective_hamiltonian(sys, OMEGA_Q, p)
    t_S = cat_time(NU_Q)
    for vt in (np.pi / 4, np.pi / 2):
        for vp in (0.0, np.pi / 3):
            evolved = evolve(coherent_state(sys, vt, vp), H, t_S)
            assert np.abs(evolved - cat_state(sys, vt, vp, p)).max() < 1e-9


def test_free_evolution_schedule():
    sys = SpinSystem(1.5)
    devs = free_evolution_schedule(sys, 1, NU_Q, [0, 1, 2])
    assert np.array_equal(devs, free_evolution_schedule(sys, 1, NU_Q, (k for k in [0, 1, 2])))
    rho0 = projector(coherent_state(sys, np.pi / 2, 0))
    assert np.allclose(devs[0], rho0, atol=1e-12)
    assert fidelity(devs[1], projector(cat_state(sys, np.pi / 2, 0, 1))) > 1 - 1e-12
    # two cat times re-focus the state into a single coherent state
    assert abs(np.trace(devs[2] @ devs[2]).real - 1) < 1e-10


def _exact_schedule(sys, p, k, vartheta, varphi):
    """rho_k from the phases pi k (p m - m^2) / 2, formed as Fractions and reduced mod 2 pi."""
    m = [Fraction(round(2 * sys.I) - 2 * j, 2) for j in range(sys.d)]
    phases = [cmath.exp(1j * math.pi * float(Fraction(k) * (p * mj - mj * mj) / 2 % 2))
              for mj in m]
    psi = np.array(phases) * coherent_state(sys, vartheta, varphi)
    return projector(psi)


@settings(max_examples=200, deadline=None)
@given(twoI=st.integers(1, 40), p=st.integers(-3, 3),
       vartheta=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, np.pi)),
       varphi=st.floats(-1e6, 1e6), checkpoints=st.lists(st.integers(0, 8), max_size=5))
def test_schedule_matches_general_evolution(twoI, p, vartheta, varphi, checkpoints):
    # the schedule is exact, and exp(-i H t) of the same Hamiltonian agrees with it up to the
    # rounding of its own phases h k t_S, which grows with the largest level |h| and with k
    sys = SpinSystem(twoI / 2)
    rho0 = projector(coherent_state(sys, vartheta, varphi))
    H = effective_hamiltonian(sys, OMEGA_Q, p)
    h_max = np.abs(H.diagonal()).max()
    devs = free_evolution_schedule(sys, p, NU_Q, checkpoints, vartheta, varphi)
    assert len(devs) == len(checkpoints)
    for k, rho in zip(checkpoints, devs):
        assert rho.shape == (sys.d, sys.d)
        assert np.abs(rho - _exact_schedule(sys, p, k, vartheta, varphi)).max() < 1e-15
        phase_rounding = 2 * np.finfo(float).eps * h_max * k * cat_time(NU_Q)
        assert np.abs(rho - evolve(rho0, H, k * cat_time(NU_Q))).max() < 1e-13 + phase_rounding
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho) - 1) < 1e-12
        assert abs(np.trace(rho @ rho) - 1) < 1e-12


@pytest.mark.parametrize("N", [1, 10**6, 2**40, 2**50])
def test_schedule_period_four_in_k_and_p(N):
    # the phases are powers of i with k and p reduced mod 4, so no size of either blurs them
    for twoI in range(1, 41):
        sys = SpinSystem(twoI / 2)
        for p in (-3, 0, 1, 2):
            base = free_evolution_schedule(sys, p, NU_Q, [0, 1, 2, 3], 0.7, 0.3)
            later = free_evolution_schedule(sys, p, NU_Q, [4 * N, 1 + 4 * N, 2 + 4 * N, 3 + 4 * N],
                                            0.7, 0.3)
            shifted = free_evolution_schedule(sys, p + 4 * N, NU_Q, [0, 1, 2, 3], 0.7, 0.3)
            for a, b, c in zip(base, later, shifted):
                assert np.array_equal(a, b) and np.array_equal(a, c)


@pytest.mark.parametrize("bad", [{"p": 0.5}, {"p": 1.5}, {"nu_Q": 0.0}, {"nu_Q": -NU_Q},
                                 {"nu_Q": np.nan}, {"nu_Q": np.inf}, {"vartheta": -0.1},
                                 {"vartheta": 3.2}, {"varphi": np.inf}, {"varphi": np.nan},
                                 {"checkpoints": [np.nan]}, {"checkpoints": [np.inf]},
                                 {"checkpoints": [0.5]}])
def test_schedule_refuses_bad_input(bad):
    args = {"p": 1, "nu_Q": NU_Q, "checkpoints": [0, 1], "vartheta": np.pi / 2, "varphi": 0.0,
            **bad}
    with pytest.raises(ValueError, match=f"{next(iter(bad))} must"):
        free_evolution_schedule(SpinSystem(1.5), args["p"], args["nu_Q"], args["checkpoints"],
                                args["vartheta"], args["varphi"])


def test_nmr_params_validation():
    with pytest.raises(ValueError):
        NmrParams(np.inf, 0, OMEGA_Q)
