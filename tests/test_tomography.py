"""Simulated tomography: phase cycling, design matrix, reconstruction."""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spincat.dynamics import NmrParams
from spincat.spin_ops import (SpinSystem, angular_momentum, from_tensor_coefficients,
                              spherical_tensor_basis, tensor_coefficients, tensor_keys,
                              tensor_stack)
from spincat import tomography
from spincat.states import cat_state, coherent_state, fidelity, projector
from spincat.tomography import (PulseSet, TomographyPulse, TomographyRankError,
                                build_design_matrix, coherence_cycle, measure, pulse_set,
                                SpectrumLines, reconstruct, synthesize_spectrum,
                                zero_order_cycle)

NU_Q = 15220.0
SYS = SpinSystem(1.5)
NMR = NmrParams(0.0, 0.0, 2 * np.pi * NU_Q)


@pytest.fixture(scope="module")
def design():
    return build_design_matrix(SYS, pulse_set(SYS), NMR)


def random_density(rng, d=4):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_zero_order_cycle_verbatim():
    cycle = zero_order_cycle(SYS)
    assert [p.theta_qst for p in cycle] == [np.pi / 2] * 4
    assert [p.phi_qst for p in cycle] == [np.pi / 2, np.pi, 3 * np.pi / 2, 0.0]
    assert [p.alpha_qst for p in cycle] == [0.0, 3 * np.pi / 2, np.pi, np.pi / 2]


def test_line_frequencies():
    lines = synthesize_spectrum(SYS, np.eye(4) / 4, zero_order_cycle(SYS)[0], NMR)
    assert np.allclose(lines.frequencies, [NU_Q, 0.0, -NU_Q], atol=1e-9)


@pytest.mark.parametrize("q", [-3, -2, -1, 0, 1, 2, 3])
def test_cycle_selectivity(q):
    # a cycle tuned to order q rejects every tensor component of other order
    basis = spherical_tensor_basis(SYS)
    cycle = coherence_cycle(SYS, q, np.pi / 2)
    for (K, Q), T in basis.items():
        # the measurement is linear in rho, so the response to the pure
        # order-Q operator T is the Hermitian-part response plus i times
        # the anti-Hermitian-part response
        Th = (T + T.conj().T) / 2
        Ta = (T - T.conj().T) / 2j
        acc = np.zeros(3, dtype=complex)
        for pulse in cycle:
            acc += (synthesize_spectrum(SYS, Th, pulse, NMR).amplitudes
                    + 1j * synthesize_spectrum(SYS, Ta, pulse, NMR).amplitudes)
        amp = np.abs(acc).max() / len(cycle)
        if Q != q:
            assert amp < 1e-10, (K, Q)


def test_cycle_length_and_order_bound():
    assert len(coherence_cycle(SYS, 0, np.pi / 2)) == 7  # 4I + 1
    with pytest.raises(ValueError):
        coherence_cycle(SYS, 4, np.pi / 2)


@pytest.mark.parametrize("q", [0.5, True, np.nan, np.inf])
def test_cycle_order_must_be_an_integer(q):
    # 0.5 and True used to give a cycle, and NaN one of NaN receiver phases
    with pytest.raises(ValueError, match="q must be an integer"):
        coherence_cycle(SYS, q, np.pi / 2)
    assert coherence_cycle(SYS, 1.0, np.pi / 2) == coherence_cycle(SYS, np.int64(1), np.pi / 2)


def test_design_full_rank_and_conditioning(design):
    assert design.rank == 16
    assert design.condition_number < 1e3


def test_identity_column_only_in_trace_row(design):
    col = design.matrix[:, design.keys.index((0, 0))]
    assert np.abs(col[:-1]).max() < 1e-12
    assert abs(col[-1]) > 0.1


def test_single_angle_set_is_rank_deficient():
    # exact pi/2 pulses are blind to the rank-2 longitudinal component
    # (its reduced rotation element into single-quantum order vanishes),
    # so a pi/2-only cycle set cannot determine the full density matrix
    cycles = [zero_order_cycle(SYS)] + [coherence_cycle(SYS, q, np.pi / 2)
                                        for q in range(-3, 4)]
    with pytest.raises(TomographyRankError) as exc:
        build_design_matrix(SYS, cycles, NMR)
    assert exc.value.rank < 16
    assert (2, 0) in exc.value.null_keys


def test_measurement_linearity():
    rng = np.random.default_rng(0)
    cycles = pulse_set(SYS)
    r1, r2 = random_density(rng), random_density(rng)
    b1 = measure(SYS, r1, cycles, NMR)
    b2 = measure(SYS, r2, cycles, NMR)
    b12 = measure(SYS, (r1 + r2) / 2, cycles, NMR)
    assert np.abs((b1 + b2) / 2 - b12).max() < 1e-10


def test_noise_free_roundtrip(design):
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = random_density(rng)
        B = measure(SYS, rho, pulse_set(SYS), NMR)
        rec, info = reconstruct(design, B, SYS)
        assert np.abs(rec - rho).max() < 1e-8
        assert not info["ill_conditioned"]


def test_noisy_reconstruction_quality(design):
    rng = np.random.default_rng(2)
    cycles = pulse_set(SYS)
    fids = []
    for trial in range(30):
        rho = projector(cat_state(SYS, np.pi / 2, rng.uniform(0, 2 * np.pi), 1))
        B = measure(SYS, rho, cycles, NMR, noise_sigma=0.05, seed=trial)
        rec, _ = reconstruct(design, B, SYS)
        fids.append(fidelity(rec, rho))
    fids = np.sort(fids)
    assert np.median(fids) >= 0.98
    assert fids[int(0.05 * len(fids))] >= 0.96


def test_fid_mode_defaults_and_consistency():
    # fid mode reads each line after the delay 1/nu_Q, through which it
    # precesses by e^{i pi (2m+1)}: +1 for half-integer spin, -1 for
    # integer spin; the closed form needs no decay or sampling parameters
    for spin, factor in ((1.5, 1.0), (2.0, -1.0)):
        sys = SpinSystem(spin)
        pulse = zero_order_cycle(sys)[0]
        rho = projector(coherent_state(sys, np.pi / 2, 0.3))
        direct = synthesize_spectrum(sys, rho, pulse, NMR, mode="coherence")
        fid = synthesize_spectrum(sys, rho, pulse, NMR, mode="fid")
        assert np.abs(factor * direct.amplitudes - fid.amplitudes).max() < 1e-10


def test_fid_mode_with_decay():
    # after the delay 1/nu_Q each cat-state line is the coherence-mode line times (-1)^d:
    # +1 at half-integer spin, -1 at integer spin
    for spin, factor in ((1.5, 1.0), (2.0, -1.0)):
        sys = SpinSystem(spin)
        pulse = zero_order_cycle(sys)[1]
        rho = projector(cat_state(sys, np.pi / 2, 0.0, 1))
        direct = synthesize_spectrum(sys, rho, pulse, NMR, mode="coherence")
        fid = synthesize_spectrum(sys, rho, pulse, NMR, mode="fid")
        assert np.abs(factor * direct.amplitudes - fid.amplitudes).max() < 1e-10


def test_run_tomography_pipeline(design):
    # pulse_set -> measure -> reconstruct on a cat state, as the pipeline's
    # tomography stage runs it
    rho = projector(cat_state(SYS, np.pi / 2, 0, 1))
    rec, info = reconstruct(design, measure(SYS, rho, pulse_set(SYS), NMR), SYS)
    assert fidelity(rec, rho) > 1 - 1e-10
    assert info["hermitian_residual"] < 1e-10


def test_fid_mode_aliased_lines_reconstruct():
    # at nu_Q = 1/(2 x 12 us) fid mode reads each line with the sign (-1)^d, which depends on
    # no nu_Q, so the fid-mode design still determines rho
    nmr = NmrParams(0.0, 0.0, 2 * np.pi / (2 * 12e-6))
    rho, cycles = random_density(np.random.default_rng(7)), pulse_set(SYS)
    B = measure(SYS, rho, cycles, nmr, mode="fid")
    rec, _ = reconstruct(build_design_matrix(SYS, cycles, nmr, mode="fid"), B, SYS)
    assert np.abs(rec - rho).max() < 1e-9


@pytest.mark.parametrize("spin", [1.5, 3.5])
def test_synthesize_spectrum_matches_expm_reference(spin):
    sys = SpinSystem(spin)
    ops = angular_momentum(sys)
    rng = np.random.default_rng(11)
    rho = random_density(rng, sys.d)
    lower = np.arange(1, sys.d)
    for _ in range(20):
        theta, phi, alpha = rng.uniform(0, 2 * np.pi, size=3)
        U = expm(-1j * theta * (np.cos(phi) * ops.Ix + np.sin(phi) * ops.Iy))
        rot = U @ rho @ U.conj().T
        expected = (np.exp(1j * alpha) * rot[lower, lower - 1]
                    * ops.Iplus[lower - 1, lower])
        lines = synthesize_spectrum(sys, rho, TomographyPulse(theta, phi, alpha), NMR)
        assert np.abs(lines.amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("spin", [1.5, 3.5])
def test_mixed_angle_cycle_matches_expm_reference(spin):
    # a cycle's map sums one phase mask per nutation angle; pulses of two
    # angles in one cycle must still average to the per-pulse amplitudes
    sys = SpinSystem(spin)
    ops = angular_momentum(sys)
    rng = np.random.default_rng(21)
    rho = random_density(rng, sys.d)
    thetas = rng.permutation([np.pi / 2] * 5 + [np.pi / 4] * 4)
    phis, alphas = rng.uniform(0, 2 * np.pi, size=(2, 9))
    lower = np.arange(1, sys.d)
    expected = 0
    for theta, phi, alpha in zip(thetas, phis, alphas):
        U = expm(-1j * theta * (np.cos(phi) * ops.Ix + np.sin(phi) * ops.Iy))
        rot = U @ rho @ U.conj().T
        expected = expected + (np.exp(1j * alpha) * rot[lower, lower - 1]
                               * ops.Iplus[lower - 1, lower]) / 9
    cycle = [TomographyPulse(*p) for p in zip(thetas, phis, alphas)]
    B = measure(sys, rho, [cycle], NMR)
    assert np.abs(B[:-1] - expected).max() < 1e-12
    assert abs(B[-1] - 1) < 1e-12


@pytest.mark.parametrize("spin", [1.5, 3.5])
def test_noisy_measure_adds_cycle_mean_of_one_draw(spin):
    # the mean of a cycle's N spectra, each with CN(0, s^2) line noise, is CN(0, s^2 / N):
    # one default_rng(seed) draw of (real, imaginary) pairs per line of every cycle, in
    # cycle order, each part of deviation s / sqrt(2 N)
    sys = SpinSystem(spin)
    cycles = pulse_set(sys)
    rho = random_density(np.random.default_rng(12), sys.d)
    sigma, seed = 0.05, (4, 2)
    clean = measure(sys, rho, cycles, NMR)
    noisy = measure(sys, rho, cycles, NMR, noise_sigma=sigma, seed=seed)
    scale = sigma * np.abs(clean[:-1]).max()
    draw = np.random.default_rng(seed).normal(size=(len(cycles), sys.d - 1, 2))
    expected = [(re + 1j * im) * scale / np.sqrt(2 * len(cycle))
                for cycle, (re, im) in zip(cycles, draw.transpose(0, 2, 1))]
    expected = clean + np.concatenate(expected + [[0.0]])
    assert {len(cycle) for cycle in cycles} == {4, 2 * sys.d - 1}
    assert np.abs(noisy - expected).max() < 1e-12


@pytest.mark.parametrize("mode", ["coherence", "fid"])
def test_noisy_measure_divides_by_root_pulse_counts(mode):
    # the design carries sqrt(N_c): the same bytes as sqrt taken of the cycles' lengths, on the
    # built-in set and on cycles of mixed lengths
    sys = SpinSystem(3.5)
    rho = random_density(np.random.default_rng(18), sys.d)
    mixed = list(pulse_set(sys)[:9]) + [coherence_cycle(sys, q, np.pi / 3)[:9 + abs(q)]
                                        for q in range(-7, 8)]
    for cycles in (pulse_set(sys), mixed):
        clean = measure(sys, rho, cycles, NMR, mode)
        scale = max(np.abs(clean[:-1]).max(), 1e-300) * 0.03 / np.sqrt(
            [len(cycle) for cycle in cycles])
        noise = np.random.default_rng((6, 1)).normal(scale=1 / np.sqrt(2),
                                                     size=(len(cycles), sys.d - 1, 2))
        clean[:-1] += (scale[:, None] * (noise[..., 0] + 1j * noise[..., 1])).ravel()
        noisy = measure(sys, rho, cycles, NMR, mode, noise_sigma=0.03, seed=(6, 1))
        assert np.array_equal(noisy, clean)
        design = tomography._closed_form(sys, PulseSet(cycles), mode)
        assert not design.sqrt_pulses.flags.writeable


def test_pulse_set_is_one_immutable_handle():
    # the pulses are built once per spin into one PulseSet that every call shares
    first = pulse_set(SYS)
    want = [zero_order_cycle(SYS)] + [coherence_cycle(SYS, q, theta)
                                      for theta in (np.pi / 2, np.pi / 4) for q in range(-3, 4)]
    assert type(first) is PulseSet and first == tuple(map(tuple, want))
    assert all(type(cycle) is tuple for cycle in first)
    assert pulse_set(SYS) is first and PulseSet(first) is first
    with pytest.raises(TypeError):
        first[1] = first[2]
    with pytest.raises(AttributeError):
        first[0].append(TomographyPulse(0.1, 0.2, 0.3))
    with pytest.raises(TypeError, match=re.escape("pulse_set() takes 1 positional argument")):
        pulse_set(SYS, 0.5)
    assert hash(PulseSet(want)) == hash(first) and PulseSet(want) == first


def test_one_pulse_set_is_built_once(monkeypatch):
    # measure and build_design_matrix look the design up under the PulseSet they are given:
    # over repeated calls in both modes no further PulseSet is built than pulse_set's first
    new, built = PulseSet.__new__, []

    def counting_new(cls, cycles):
        if type(cycles) is not cls:
            built.append(cycles)
        return new(cls, cycles)

    monkeypatch.setattr(PulseSet, "__new__", counting_new)
    pulse_set.cache_clear()
    cycles = pulse_set(SYS)
    assert len(built) == 1
    rho = random_density(np.random.default_rng(19))
    for mode in ("coherence", "fid", "coherence"):
        build_design_matrix(SYS, cycles, NMR, mode)
        measure(SYS, rho, cycles, NMR, mode)
        measure(SYS, rho, cycles, NMR, mode, noise_sigma=0.1, seed=1)
    assert pulse_set(SYS) is cycles and len(built) == 1


def test_noisy_measure_has_cycle_mean_law():
    # over many seeds each cycle line's noise has variance scale^2 / N_c (a chi-square of
    # 2 x seeds degrees of freedom, held to 5 sigma) with uncorrelated real and imaginary parts
    cycles, rho, seeds = pulse_set(SYS), random_density(np.random.default_rng(15)), 4000
    clean = measure(SYS, rho, cycles, NMR)
    noise = np.array([measure(SYS, rho, cycles, NMR, noise_sigma=0.1, seed=s) - clean
                      for s in range(seeds)])
    assert not noise[:, -1].any()   # the trace row carries no noise
    noise = noise[:, :-1]
    expected = (0.1 * np.abs(clean[:-1]).max()) ** 2 / np.repeat(
        [len(cycle) for cycle in cycles], SYS.d - 1)
    bound = 5 / np.sqrt(seeds)   # chi2(2n) / 2n has deviation 1 / sqrt(n)
    assert np.abs((np.abs(noise) ** 2).mean(axis=0) / expected - 1).max() <= bound
    re, im = noise.real, noise.imag
    correlation = (re * im).mean(axis=0) / np.sqrt((re ** 2).mean(axis=0) * (im ** 2).mean(axis=0))
    assert np.abs(correlation).max() <= bound


def test_measure_reuses_compiled_map():
    # build_design_matrix compiles the measurement map; measuring with an
    # equal, freshly built pulse set must not compile it again, and a
    # single-pulse spectrum neither compiles nor evicts a cached map
    tomography._closed_form.cache_clear()
    nmr = NmrParams(0.0, 0.0, 2 * np.pi * 12345.0)
    build_design_matrix(SYS, pulse_set(SYS), nmr)
    compiled = tomography._closed_form.cache_info().misses
    assert compiled > 0
    rho = random_density(np.random.default_rng(13))
    clean = measure(SYS, rho, pulse_set(SYS), nmr)
    synthesize_spectrum(SYS, rho, pulse_set(SYS)[1][2], nmr)
    noisy = measure(SYS, rho, pulse_set(SYS), nmr, noise_sigma=0.1, seed=3)
    assert tomography._closed_form.cache_info().misses == compiled
    assert not np.array_equal(clean, noisy)


@pytest.mark.parametrize("mode", ["coherence", "fid"])
def test_map_compiled_once_across_nu_q(mode):
    # no map depends on nu_Q, so measuring at a second nu_Q reuses the first map
    tomography._closed_form.cache_clear()
    rho = random_density(np.random.default_rng(14))
    first = measure(SYS, rho, pulse_set(SYS), NMR, mode)
    compiled = tomography._closed_form.cache_info().misses
    assert compiled > 0
    second = measure(SYS, rho, pulse_set(SYS), NmrParams(0.0, 0.0, 2 * np.pi * 12345.0), mode)
    assert tomography._closed_form.cache_info().misses == compiled
    assert np.array_equal(first, second)


def test_pulse_sets_sharing_length_and_end_cycles_compile_apart():
    # sets of one length and the same end cycles, a different middle cycle, compile apart
    cycles = pulse_set(SYS)
    other = list(cycles[:5]) + [coherence_cycle(SYS, 1, np.pi / 3)] + list(cycles[6:])
    rho = random_density(np.random.default_rng(16))
    first, second = (measure(SYS, rho, c, NMR) for c in (cycles, other))
    assert not np.allclose(first[15:18], second[15:18])
    assert np.array_equal(first[:15], second[:15]) and np.array_equal(first[18:], second[18:])
    designs = [build_design_matrix(SYS, c, NMR) for c in (cycles, other)]
    for design, c in zip(designs, (cycles, other)):
        assert np.array_equal(design.matrix, compiled_map(SYS, c))


def test_equal_pulse_set_hits_compiled_map(monkeypatch):
    # value-equal cycles of new pulse objects, as lists, tuples or a new PulseSet, find the
    # compiled map, factored with it: a warm build_design_matrix takes no SVD and returns the
    # same design, and measure gives the same bytes
    design = build_design_matrix(SYS, pulse_set(SYS), NMR)
    misses = tomography._closed_form.cache_info().misses
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    fresh = [zero_order_cycle(SYS)] + [coherence_cycle(SYS, q, theta)
                                       for theta in (np.pi / 2, np.pi / 4) for q in range(-3, 4)]
    rho, outs = random_density(np.random.default_rng(17)), []
    for cycles in (pulse_set(SYS), fresh, tuple(map(tuple, fresh)), PulseSet(fresh)):
        assert build_design_matrix(SYS, cycles, NMR) is design
        outs.append(measure(SYS, rho, cycles, NMR, noise_sigma=0.1, seed=2).tobytes())
    assert tomography._closed_form.cache_info().misses == misses
    assert not calls and len(set(outs)) == 1


def test_designs_compare_by_identity():
    # one design is shared per pulse set, so equality is identity: comparing two designs
    # must not compare their arrays, and a design can be hashed
    coherence, fid = (build_design_matrix(SYS, pulse_set(SYS), NMR, mode)
                      for mode in ("coherence", "fid"))
    assert coherence != fid and not coherence == fid
    assert len({coherence, fid, coherence}) == 2
    assert build_design_matrix(SYS, pulse_set(SYS), NMR) is build_design_matrix(
        SYS, pulse_set(SYS), NMR)


@pytest.mark.parametrize("call", ["measure", "build_design_matrix"])
def test_empty_pulse_set_is_refused(call):
    with pytest.raises(ValueError, match="the pulse set has no cycles"):
        {"measure": lambda: measure(SYS, np.eye(4) / 4, [], NMR),
         "build_design_matrix": lambda: build_design_matrix(SYS, [], NMR)}[call]()


@pytest.mark.parametrize("call", ["measure", "build_design_matrix"])
def test_empty_cycle_is_refused(call):
    cycles = list(pulse_set(SYS))
    cycles.insert(3, [])
    for _ in range(2):   # refused again: a failed compile is not cached
        with pytest.raises(ValueError, match="cycle 3 has no pulses"):
            {"measure": lambda: measure(SYS, np.eye(4) / 4, cycles, NMR),
             "build_design_matrix": lambda: build_design_matrix(SYS, cycles, NMR)}[call]()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("angle", [0, 1, 2])
def test_non_finite_pulse_angle_is_refused(angle, value):
    # a NaN theta at I = 3/2 used to give all-zero lines instead of an error
    pulse = [np.pi / 2, 0.3, 0.0]
    pulse[angle] = value
    cycles = list(pulse_set(SYS)) + [[TomographyPulse(np.pi / 4, 0.0, 0.0),
                                      TomographyPulse(*pulse)]]
    name = TomographyPulse._fields[angle]
    for call in (lambda: measure(SYS, np.eye(4) / 4, cycles, NMR),
                 lambda: build_design_matrix(SYS, cycles, NMR)):
        with pytest.raises(ValueError, match=f"cycle 15: pulse 1 {name} must be finite"):
            call()
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        synthesize_spectrum(SYS, np.eye(4) / 4, TomographyPulse(*pulse), NMR)


_P = TomographyPulse(np.pi / 4, 0.0, 0.0)
MALFORMED_CYCLES = {   # a cycle, and how its first bad pulse is refused
    "list": ([_P, [np.pi / 2, 0.3, 0.0]], "pulse 1 is not a tuple of 3 angles: [1.57"),
    "scalar": ([_P, np.pi / 2], "pulse 1 is not a tuple of 3 angles: 1.57"),
    "two angles": ([(np.pi / 2, 0.3), (np.pi / 4, 0.0)], "pulse 0 is not a tuple of 3 angles"),
    "four angles": ([(np.pi / 2, 0.3, 0.0, 0.1)] * 2, "pulse 0 is not a tuple of 3 angles"),
    "ragged": ([_P, (np.pi / 2, 0.3)], "pulse 1 is not a tuple of 3 angles: (1.57"),
    "bool": ([_P, TomographyPulse(True, 0.3, 0.0)], "pulse 1 theta_qst must be finite and real"),
    "string": ([_P, TomographyPulse(1.0, "0.3", 0.0)], "pulse 1 phi_qst must be finite and real"),
    "huge": ([_P, TomographyPulse(1.0, 0.3, 10**400)], "pulse 1 alpha_qst must be finite and real"),
}


@pytest.mark.parametrize("case", MALFORMED_CYCLES)
def test_malformed_pulse_is_refused_by_name(case):
    # a pulse is a tuple of three finite real angles; anything else is refused naming its cycle,
    # not with "unhashable type", an IndexError, a failed unpacking or a 1 rad nutation
    cycle, says = MALFORMED_CYCLES[case]
    cycles = list(pulse_set(SYS)) + [cycle]
    for call in (lambda: measure(SYS, np.eye(4) / 4, cycles, NMR),
                 lambda: build_design_matrix(SYS, cycles, NMR)):
        with pytest.raises(ValueError, match=re.escape(f"cycle 15: {says}")):
            call()


def test_pulse_set_or_cycle_that_is_not_a_sequence_is_refused_by_name():
    # a number in place of the set or of a cycle is named, not a bare "'int' object is not
    # iterable"; a cycle given as an iterator is read once, into the cycle it yields
    for cycles, says in ((5, "the pulse set is not a sequence of cycles: 5"),
                         ([5], "cycle 0 is not a sequence of pulses: 5"),
                         (list(pulse_set(SYS)) + [0.5], "cycle 15 is not a sequence of pulses")):
        for call in (lambda: measure(SYS, np.eye(4) / 4, cycles, NMR),
                     lambda: build_design_matrix(SYS, cycles, NMR)):
            with pytest.raises(ValueError, match=re.escape(says)):
                call()
    read = PulseSet(iter([iter(cycle) for cycle in pulse_set(SYS)]))
    assert read == pulse_set(SYS) and hash(read) == hash(pulse_set(SYS))


def test_pulse_set_holds_only_float_angles():
    # every PulseSet reads its angles once, into TomographyPulses of floats: an int, a numpy
    # scalar or a plain tuple is not kept as given
    sets = [PulseSet(list(pulse_set(SYS)) + [[(1, 0, 2)]]),
            PulseSet([[(np.float64(0.5), np.int64(1), 2.0)], [TomographyPulse(1, 0.3, 0)]])]
    sets += [pulse_set(SpinSystem(spin)) for spin in (1.5, 2.0, 3.5)]
    for ps in sets:
        assert all(type(cycle) is tuple for cycle in ps)
        assert {type(pulse) for cycle in ps for pulse in cycle} == {TomographyPulse}
        assert {type(a) for cycle in ps for pulse in cycle for a in pulse} == {float}
    assert sets[0][-1] == ((1.0, 0.0, 2.0),) and sets[1][0] == ((0.5, 1.0, 2.0),)


def test_bool_angle_is_refused_after_an_equal_float_set():
    # True == 1.0 and hashes alike, so the design cache may not answer a bool angle with the
    # design it holds for 1.0: a list-built set is read first
    build_design_matrix(SYS, list(pulse_set(SYS)) + [[TomographyPulse(1.0, 0.2, 0.0)]], NMR)
    cycles = list(pulse_set(SYS)) + [[TomographyPulse(True, 0.2, 0.0)]]
    for call in (lambda: measure(SYS, np.eye(4) / 4, cycles, NMR),
                 lambda: build_design_matrix(SYS, cycles, NMR)):
        with pytest.raises(ValueError, match=re.escape("cycle 15: pulse 0 theta_qst must be")):
            call()


@pytest.mark.parametrize("spin", [1.5, 2.0, 3.5])
def test_fid_map_is_signed_coherence_map(spin):
    # the delay 1/nu_Q turns the line at (nu_Q/2)(2m+1) by pi(2m+1): (-1)^d exactly
    sys = SpinSystem(spin)
    cycles = tuple(map(tuple, pulse_set(sys)))
    fid, coherence = (tomography._closed_form.__wrapped__(sys, cycles, mode).stacks
                      for mode in ("fid", "coherence"))
    assert len(fid) == len(coherence)
    for (fid_M, fid_rows, fid_cols), (M, rows, cols) in zip(fid, coherence):
        assert np.array_equal(fid_rows, rows) and np.array_equal(fid_cols, cols)
        # the trace row, the one row of the block of column 0, is not a line
        sign = np.where(cols[:, :1] == 0, 1, (-1) ** sys.d)[..., None]
        assert np.array_equal(fid_M, sign * M)
    fid, coherence = (build_design_matrix(sys, cycles, NMR, mode).matrix
                      for mode in ("fid", "coherence"))
    assert np.array_equal(fid[:-1], (-1) ** sys.d * coherence[:-1])
    assert np.array_equal(fid[-1], coherence[-1])


def rx_product_map(sys, cycles, mode="coherence"):
    """The dense design from propagators: per nutation angle, the lines of Rx T_KQ Rx^dag,
    times each pulse's phase e^{i(alpha + phi(1 + Q))} and averaged per cycle, with the
    trace row Tr T_KQ of the stored basis."""
    ops = angular_momentum(sys)
    gain = np.diagonal(ops.Iplus, 1) * ((-1.0) ** sys.d if mode == "fid" else 1.0)
    Q = np.array(tensor_keys(sys))[:, 1]
    lines, rows = {}, []
    for cycle in cycles:
        acc = 0
        for theta, phi, alpha in cycle:
            if theta not in lines:
                R = expm(-1j * theta * ops.Ix)
                lines[theta] = np.einsum("ja,nab,jb->jn", R[1:], tensor_stack(sys), R[:-1].conj())
            acc = acc + lines[theta] * np.exp(1j * (alpha + phi * (1 + Q)))
        rows.append(gain[:, None] * acc / len(cycle))
    return np.vstack(rows + [np.trace(tensor_stack(sys), axis1=1, axis2=2)])


def compiled_map(sys, cycles, mode="coherence"):
    """The dense map assembled block by block from the compiled stacks of a pulse set,
    whose padded rows and columns, past the end, hold zeros."""
    n_rows, n_cols = len(cycles) * (sys.d - 1) + 1, sys.d ** 2
    A = np.zeros((n_rows, n_cols), dtype=complex)
    for stack in tomography._closed_form.__wrapped__(sys, cycles, mode).stacks:
        for M, rows, cols in zip(*stack):
            r, c = rows < n_rows, cols < n_cols
            assert not M[~r].any() and not M[:, ~c].any()
            A[np.ix_(rows[r], cols[c])] = M[np.ix_(r, c)]
    return A


def dense_null_keys(sys, A):
    """Rank and weakly determined keys from one SVD of the dense design."""
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    rank = int((s > tomography.SVD_CUTOFF * s[0]).sum())
    keys = tensor_keys(sys)
    return rank, [k for i, k in enumerate(keys) if np.abs(Vh[rank:, i]).max(initial=0) > 1e-6]


def aliased_cycles(sys, steps=None):
    """Cycles of too few phase steps (2I + 1 by default): each reads every order
    q' = q (mod steps), so the design's blocks join several orders."""
    twoI, steps = sys.d - 1, steps or sys.d
    return [zero_order_cycle(sys)] + [
        [TomographyPulse(theta, phi, (-(q + 1) * phi) % (2 * np.pi))
         for phi in 2 * np.pi * np.arange(steps) / steps]
        for theta in (np.pi / 2, np.pi / 3, np.pi / 5) for q in range(-twoI, twoI + 1)]


@pytest.mark.parametrize("mode", ["coherence", "fid"])
@pytest.mark.parametrize("spin", [1.5, 3.5, 7.5])
def test_closed_form_lines_match_rx_product(spin, mode):
    # L_theta[j, (K, Q)] = e^{-i pi (Q+1)/2} d^K_{-1,Q}(theta) (T_K,-1)_{j+1,j}, times the gain
    sys = SpinSystem(spin)
    for theta in (np.pi / 2, np.pi / 4, 0.0, np.pi, 2.3):
        cycles = ((TomographyPulse(theta, 0.0, 0.0),),)
        expected = rx_product_map(sys, cycles, mode)
        assert np.abs(compiled_map(sys, cycles, mode) - expected).max() <= 1e-13, theta


@pytest.mark.parametrize("cycle_set", ["pulse_set", "aliased", "mixed"])
@pytest.mark.parametrize("mode", ["coherence", "fid"])
@pytest.mark.parametrize("spin", [1.5, 3.5, 7.5])
def test_block_design_matches_dense_pinv(spin, mode, cycle_set):
    # the blocks assemble the dense design, and their SVDs give its rank, conditioning
    # and least-squares solution, as one SVD and pinv of the dense matrix do
    sys = SpinSystem(spin)
    rng = np.random.default_rng(31)
    cycles = {"pulse_set": pulse_set(sys), "aliased": aliased_cycles(sys),
              "mixed": list(pulse_set(sys)) + [[TomographyPulse(*p) for p in zip(
                  rng.permutation([np.pi / 2] * 5 + [np.pi / 4] * 4),
                  *rng.uniform(0, 2 * np.pi, size=(2, 9)))]]}[cycle_set]
    design = build_design_matrix(sys, cycles, NMR, mode)
    A = rx_product_map(sys, cycles, mode)
    assert np.abs(design.matrix - A).max() <= 1e-13
    assert not design.matrix.flags.writeable
    assert design.rank == dense_null_keys(sys, A)[0] == sys.d ** 2
    assert abs(design.condition_number / np.linalg.cond(A) - 1) <= 1e-12
    rho = random_density(rng, sys.d)
    B = measure(sys, rho, cycles, NMR, mode, noise_sigma=0.05, seed=5)
    assert np.abs(B - A @ tensor_coefficients(sys, rho)).max() > 1e-3   # noise is on
    X = np.linalg.pinv(A) @ B
    _, info = reconstruct(design, B, sys)
    coefficients = np.array([info["coefficients"][key] for key in design.keys])
    assert np.abs(coefficients - X).max() <= 1e-12 * np.abs(X).max()


@pytest.mark.parametrize("spin", [0.5, 1.0, 1.5, 2.0, 3.5, 7.5])
def test_block_count(spin):
    # each order Q != 0 (mod 4) alone, the orders Q = 0 (mod 4) with the zero-order
    # quadruple, and T_00 with the trace row
    sys = SpinSystem(spin)
    design = build_design_matrix(sys, pulse_set(sys), NMR)
    assert sum(len(M) for M, _, _ in design.stacks) == 4 * spin + 2 - 2 * int(spin // 2)
    cols = np.concatenate([cols.ravel() for _, _, cols in design.stacks])
    assert sorted(cols[cols < sys.d ** 2]) == list(range(sys.d ** 2))   # the rest is padding


@pytest.mark.parametrize("spin", [1.5, 3.5])
@pytest.mark.parametrize("mode", ["coherence", "fid"])
@pytest.mark.parametrize("cycle_set", ["pi/2 only", "no order 1", "aliased"])
def test_rank_error_names_dense_null_keys(cycle_set, mode, spin):
    # a block short of rows, a block with no rows at all, and blocks of aliased orders;
    # the weak keys come from the kept right singular vectors of the compiled blocks
    sys = SpinSystem(spin)
    twoI = sys.d - 1
    cycles = {
        "pi/2 only": pulse_set(sys)[:2 * sys.d],
        "no order 1": [zero_order_cycle(sys)] + [coherence_cycle(sys, q, theta) for theta in
                                                 (np.pi / 2, np.pi / 4)
                                                 for q in range(-twoI, twoI + 1) if q != 1],
        # three phase steps still reach full rank at I = 3/2, two do not
        "aliased": aliased_cycles(sys, 3 if spin > 1.5 else 2),
    }[cycle_set]
    rank, null_keys = dense_null_keys(sys, rx_product_map(sys, cycles, mode))
    assert rank < sys.d ** 2 and null_keys
    errors, hits = [], tomography._closed_form.cache_info().hits
    for _ in range(2):   # the second build reads the cached rank-short design
        with pytest.raises(TomographyRankError) as exc:
            build_design_matrix(sys, cycles, NMR, mode)
        errors.append((exc.value.rank, exc.value.needed, exc.value.null_keys))
    assert errors == [(rank, sys.d ** 2, null_keys)] * 2
    assert tomography._closed_form.cache_info().hits == hits + 1


def test_spin_20_design_in_seconds():
    # 62 blocks, the largest 1,720 x 420, instead of one 6,521 x 1,681 SVD
    sys = SpinSystem(20)
    cycles = pulse_set(sys)
    rho = projector(coherent_state(sys, np.pi / 3, 0.7))
    tensor_stack(sys)
    start = time.perf_counter()
    design = build_design_matrix(sys, cycles, NMR)
    rec, info = reconstruct(design, measure(sys, rho, cycles, NMR), sys)
    assert time.perf_counter() - start < 10.0
    assert sum(len(M) for M, _, _ in design.stacks) == 62
    assert np.abs(rec - rho).max() < 1e-10
    assert info["condition_number"] < 1e3


@pytest.mark.parametrize("mode", ["coherence", "fid"])
@pytest.mark.parametrize("spin", [1.5, 3.5])
def test_design_columns_match_expm_reference(spin, mode):
    # column (K, Q) is the cycle-averaged line amplitudes of rho = T_KQ from
    # per-pulse unitaries; a cycle tuned to q has no weight outside Q = q
    sys = SpinSystem(spin)
    ops = angular_momentum(sys)
    cycles = pulse_set(sys)
    design = build_design_matrix(sys, cycles, NMR, mode)
    lower = np.arange(1, sys.d)
    gain = ops.Iplus[lower - 1, lower] * ((-1.0) ** sys.d if mode == "fid" else 1.0)
    expected = []
    for cycle in cycles:
        acc = 0
        for theta, phi, alpha in cycle:
            U = expm(-1j * theta * (np.cos(phi) * ops.Ix + np.sin(phi) * ops.Iy))
            rot = np.einsum("ab,nbc,dc->nad", U, tensor_stack(sys), U.conj())
            acc = acc + np.exp(1j * alpha) * rot[:, lower, lower - 1] * gain
        expected.append((acc / len(cycle)).T)
    traces = np.trace(tensor_stack(sys), axis1=1, axis2=2)
    expected = np.vstack(expected + [traces])
    assert np.abs(design.matrix - expected).max() < 1e-12
    # pulse_set order: the zero-order quadruple, then orders -2I..2I per nutation angle
    twoI = sys.d - 1
    tuned = list(range(-twoI, twoI + 1)) * 2
    Q = np.array([Q for _, Q in design.keys])
    blocks = design.matrix[:-1].reshape(len(cycles), twoI, -1)[1:]
    assert len(tuned) == len(blocks)
    for q, block in zip(tuned, blocks):
        assert np.abs(block[:, Q != q]).max() < 1e-13, q
        assert np.abs(block[:, Q == q]).max() > 1e-3, q


def test_equilibrium_line_ratios():
    # Iz deviation after a pi/2 pulse gives the 3:4:3 multiplet of I = 3/2
    Iz = angular_momentum(SYS).Iz.real
    pulse = zero_order_cycle(SYS)[3]  # phi = 0 pulse
    lines = synthesize_spectrum(SYS, Iz, pulse, NMR)
    mags = np.abs(lines.amplitudes)
    assert np.allclose(mags / mags[1], [0.75, 1.0, 0.75], atol=1e-10)


@pytest.mark.parametrize("d", [3, 5, 6])
def test_wrong_sized_density_matrix_is_refused(d):
    # every entry point checks rho's shape against the spin, not only reconstruct's caller
    rho = random_density(np.random.default_rng(d), d)
    for call in (lambda: measure(SYS, rho, pulse_set(SYS), NMR),
                 lambda: synthesize_spectrum(SYS, rho, zero_order_cycle(SYS)[0], NMR)):
        with pytest.raises(ValueError, match="density matrix must be 4x4"):
            call()


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
def test_measure_refuses_negative_or_nan_noise(sigma):
    with pytest.raises(ValueError, match="noise_sigma"):
        measure(SYS, np.eye(4) / 4, pulse_set(SYS), NMR, noise_sigma=sigma, seed=0)


@pytest.mark.parametrize("call", ["measure", "build_design_matrix", "synthesize_spectrum"])
def test_unknown_mode_is_refused_by_name(call):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        {"measure": lambda: measure(SYS, np.eye(4) / 4, pulse_set(SYS), NMR, "bogus"),
         "build_design_matrix": lambda: build_design_matrix(SYS, pulse_set(SYS), NMR, "bogus"),
         "synthesize_spectrum": lambda: synthesize_spectrum(
             SYS, np.eye(4) / 4, zero_order_cycle(SYS)[0], NMR, "bogus")}[call]()


def test_spectrum_lines_refuse_unequal_lengths():
    with pytest.raises(ValueError, match="frequency/amplitude length mismatch"):
        SpectrumLines(np.zeros(3), np.zeros(2, dtype=complex))


@settings(max_examples=40, deadline=None)
@given(twoI=st.integers(1, 8), mode=st.sampled_from(["coherence", "fid"]),
       cycle_set=st.sampled_from(["pulse_set", "extra", "aliased"]),
       seed=st.integers(0, 2**32 - 1))
def test_measure_is_design_times_coefficients(twoI, mode, cycle_set, seed):
    # measure applies the factored blocks: B = A c(rho) on any cycle set, and
    # reconstruct inverts it
    sys, rng = SpinSystem(twoI / 2), np.random.default_rng(seed)
    cycles = aliased_cycles(sys) if cycle_set == "aliased" else pulse_set(sys)
    if cycle_set == "extra":
        cycles = list(cycles) + [
            [TomographyPulse(rng.choice([np.pi / 2, np.pi / 4, np.pi / 3]),
                             *rng.uniform(0, 2 * np.pi, size=2))
             for _ in range(rng.integers(1, 6))]
            for _ in range(rng.integers(1, 4))]
    rho = random_density(rng, sys.d)
    design = build_design_matrix(sys, cycles, NMR, mode)
    B = measure(sys, rho, cycles, NMR, mode)
    assert np.abs(B - design.matrix @ tensor_coefficients(sys, rho)).max() <= (
        1e-13 * np.abs(B).max())
    assert np.abs(reconstruct(design, B, sys)[0] - rho).max() <= 1e-10


def test_measurement_vector_length_check(design):
    with pytest.raises(ValueError):
        reconstruct(design, np.zeros(5), SYS)


def test_coefficient_counts_must_match_the_spin(design):
    # the inverse takes exactly d^2 coefficients, so a design for another spin is refused
    # with both sizes named, not with a numpy shape error
    with pytest.raises(ValueError, match="has 16 tensor coefficients, got 9"):
        from_tensor_coefficients(SYS, np.zeros(9))
    B = measure(SYS, np.eye(4) / 4, pulse_set(SYS), NMR)
    with pytest.raises(ValueError, match="I=1 has 9 tensor coefficients, got 16"):
        reconstruct(design, B, SpinSystem(1))
