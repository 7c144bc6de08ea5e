"""Coherent states, cat superpositions, thermal matrices, fidelity."""

from math import comb

import numpy as np
import pytest

from spincat.dynamics import cat_time, effective_hamiltonian, evolve
from spincat.spin_ops import SpinSystem, angular_momentum
from spincat.states import (NA23_EPSILON, bloch_vector, cat_phase_prefactor,
                            cat_state, coherent_state, equilibrium_deviation,
                            fidelity, projector, thermal_density, traceless_part)


def test_north_pole_is_lowest_state():
    sys = SpinSystem(1.5)
    psi = coherent_state(sys, 0.0, 0.0)
    # vartheta = 0 leaves the spin in |I, -I>, the last basis state
    assert np.allclose(psi, [0, 0, 0, 1], atol=1e-14)


def test_south_pole_is_highest_state():
    sys = SpinSystem(1.5)
    psi = coherent_state(sys, np.pi, 0.0)
    assert abs(abs(psi[0]) - 1) < 1e-14


def test_equatorial_amplitudes_spin_three_halves():
    sys = SpinSystem(1.5)
    psi = coherent_state(sys, np.pi / 2, 0.0)
    want = np.array([1, np.sqrt(3), np.sqrt(3), 1]) / (2 * np.sqrt(2))
    assert np.allclose(np.abs(psi), want, atol=1e-14)


def test_normalization():
    sys = SpinSystem(2.5)
    for vt in (0.0, 0.3, np.pi / 2, 2.9, np.pi):
        assert abs(np.linalg.norm(coherent_state(sys, vt, 1.1)) - 1) < 1e-14


def test_bloch_vector_equatorial():
    sys = SpinSystem(1.5)
    v = bloch_vector(sys, coherent_state(sys, np.pi / 2, 0.0))
    assert np.allclose(v, [1.5, 0, 0], atol=1e-14)


@pytest.mark.parametrize("I", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_bloch_vector_length(I):
    sys = SpinSystem(I)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vt, vp = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        v = bloch_vector(sys, coherent_state(sys, vt, vp))
        assert abs(np.linalg.norm(v) - I) < 1e-12


def test_cat_phase_prefactor_three_halves():
    assert abs(cat_phase_prefactor(1.5) - (-1j) / np.sqrt(2)) < 1e-14


@pytest.mark.parametrize("I", [1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("p", [-2, -1, 0, 1, 2, 3])
def test_cat_state_matches_propagator(I, p):
    sys = SpinSystem(I)
    nu_Q = 15220.0
    H = effective_hamiltonian(sys, 2 * np.pi * nu_Q, p)
    for vt, vp in [(np.pi / 4, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 3)]:
        evolved = evolve(coherent_state(sys, vt, vp), H, cat_time(nu_Q))
        assert np.abs(evolved - cat_state(sys, vt, vp, p)).max() < 1e-12


def test_cat_state_two_branch_structure():
    # for p = 0 the cat is the even/odd combination of antipodal-azimuth
    # coherent states with phases -pi/4 and +pi/4 and a rank-dependent
    # global phase
    sys = SpinSystem(1.5)
    vt, vp = np.pi / 2, 0.4
    I = sys.I
    delta = -np.pi * I
    G = np.exp(1j * np.pi * (I * (I + 1) / 3 - I * I) / 2)
    manual = G / np.sqrt(2) * (
        np.exp(-1j * np.pi / 4) * coherent_state(sys, vt, vp + delta)
        + np.exp(1j * np.pi / 4) * coherent_state(sys, vt, vp + delta - np.pi))
    assert np.abs(manual - cat_state(sys, vt, vp, 0)).max() < 1e-14


def test_cat_state_normalized():
    sys = SpinSystem(2.0)
    assert abs(np.linalg.norm(cat_state(sys, 1.1, 0.7, 1)) - 1) < 1e-13


def test_cat_rejects_non_integer_p():
    with pytest.raises(ValueError):
        cat_state(SpinSystem(1.5), np.pi / 2, 0.0, 0.5)


def test_equilibrium_deviation():
    sys = SpinSystem(1.5)
    dev = equilibrium_deviation(sys)
    ops = angular_momentum(sys)
    assert abs(np.trace(dev) - 1) < 1e-14
    assert np.allclose(traceless_part(dev), ops.Iz.real, atol=1e-14)


def test_thermal_density_defaults():
    sys = SpinSystem(1.5)
    rho, dev = thermal_density(sys)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.allclose(traceless_part(rho), NA23_EPSILON * traceless_part(dev),
                       atol=1e-18)


def test_thermal_density_with_projector():
    sys = SpinSystem(1.5)
    P = projector(coherent_state(sys, np.pi / 2, 0))
    rho, dev = thermal_density(sys, deviation=P)
    assert np.allclose(dev @ dev, dev, atol=1e-12)  # idempotent projector
    assert abs(np.trace(rho) - 1) < 1e-12


def test_thermal_density_rejects_bad_inputs():
    sys = SpinSystem(1.5)
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            thermal_density(sys, epsilon=epsilon)
    with pytest.raises(ValueError):
        thermal_density(sys, deviation=np.eye(4))  # trace 4, not 1


def test_fidelity_properties():
    sys = SpinSystem(1.5)
    P = projector(coherent_state(sys, np.pi / 2, 0))
    Q = projector(coherent_state(sys, np.pi / 2, np.pi))
    assert abs(fidelity(P, P) - 1) < 1e-12
    assert abs(fidelity(P, 3.7 * P) - 1) < 1e-12  # scale invariant
    assert fidelity(P, Q) < 0.1
    assert abs(fidelity(P, Q) - fidelity(Q, P)) < 1e-14


def test_fidelity_rejects_bad_inputs():
    sys = SpinSystem(1.5)
    P = projector(coherent_state(sys, np.pi / 2, 0))
    with pytest.raises(ValueError):
        fidelity(P, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        fidelity(P, np.eye(3))
    with pytest.raises(ValueError):
        fidelity(P, P + 1j * np.eye(4))


def test_coherent_state_domain():
    with pytest.raises(ValueError):
        coherent_state(SpinSystem(1.5), -0.1, 0.0)


@pytest.mark.parametrize("vartheta", [0.0, np.pi / 3, np.pi / 2, np.pi])
def test_coherent_state_matches_per_entry_formula(vartheta):
    # the array form against the loop it replaced, one complex exponential per level
    for twoI in range(1, 41):
        sys = SpinSystem(twoI / 2)
        for varphi in (0.0, 0.4, -2.9):
            n = (sys.I + sys.m_values).round().astype(int)
            s, c = np.sin(vartheta / 2), np.cos(vartheta / 2)
            want = np.array([np.sqrt(comb(twoI, k)) * s ** k * c ** (twoI - k)
                             * np.exp(-1j * k * varphi) for k in n])
            want /= np.linalg.norm(want)
            assert np.abs(coherent_state(sys, vartheta, varphi) - want).max() <= 1e-15
