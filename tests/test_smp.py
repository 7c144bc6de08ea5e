"""Strongly modulating pulse design: simulation, gradients, optimization."""

import json
import re

import numpy as np
import pytest
import scipy.linalg

import spincat.smp
from spincat.cli import main
from spincat.dynamics import NmrParams
from spincat.smp import PulseSegment, PulseSequence, objective_for_test, optimize_smp
from spincat.spin_ops import SpinSystem, angular_momentum
from spincat.states import coherent_state, fidelity, projector, traceless_part
from smp_oracle import (segment_hamiltonian, sequence_propagator, simulate_sequence,
                        temporal_average)

SYS = SpinSystem(1.5)
NU_Q = 15220.0
NMR = NmrParams(0.0, 0.0, 2 * np.pi * NU_Q)
NO_Q = NmrParams(0.0, 0.0, 0.0)   # pure RF, no quadrupolar term
# carrier 3 kHz below the Larmor frequency: H_static gains an Iz term
OFF_RESONANCE = NmrParams(2 * np.pi * 3e3, 0.0, 2 * np.pi * NU_Q)


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(-1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        PulseSegment(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="omega"):
        PulseSegment(float("nan"), 0.0, 1e-6)
    with pytest.raises(ValueError, match="duration"):
        PulseSegment(1.0, 0.0, float("nan"))


def test_empty_sequence_is_identity():
    U = sequence_propagator(SYS, PulseSequence([]), NMR)
    assert np.allclose(U, np.eye(4), atol=1e-14)


def test_hard_pulse_rotates_iz_to_ix():
    # with no quadrupolar coupling, a resonant pi/2 pulse with phase pi/2
    # (rotation about +y) takes the Iz deviation to Ix
    ops = angular_momentum(SYS)
    omega = 2 * np.pi * 25e3
    t90 = (np.pi / 2) / omega
    seq = PulseSequence([PulseSegment(omega, np.pi / 2, t90)])
    out = simulate_sequence(SYS, ops.Iz.copy(), seq, NO_Q)
    assert np.abs(out - ops.Ix).max() < 1e-10


def test_opposite_segments_cancel():
    omega = 2 * np.pi * 20e3
    seq = PulseSequence([PulseSegment(omega, 0.0, 4e-6),
                         PulseSegment(omega, np.pi, 4e-6)])
    U = sequence_propagator(SYS, seq, NO_Q)
    assert np.allclose(U, np.eye(4), atol=1e-10)


def test_simulation_preserves_trace_and_norm():
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(4, 4))
    rho = rho + rho.T
    seq = PulseSequence([PulseSegment(2 * np.pi * 30e3, 1.0, 2e-6),
                         PulseSegment(0.0, 0.0, 1e-6),
                         PulseSegment(2 * np.pi * 10e3, 4.0, 3e-6)])
    out = simulate_sequence(SYS, rho.astype(complex), seq, NMR)
    assert abs(np.trace(out) - np.trace(rho)) < 1e-10
    assert abs(np.linalg.norm(out) - np.linalg.norm(rho)) < 1e-10


def test_single_segment_analytic_recovery():
    # without the quadrupolar term the optimum of a one-segment rotation of
    # Iz toward the +x coherent deviation is a pi/2 rotation: omega dt = pi/2
    # (pi/2) / 6 us is 0.833 of the amplitude cap, inside the bound
    target = coherent_state(SYS, np.pi / 2, 0.0)
    dt = 6e-6
    res = optimize_smp(SYS, NO_Q, target, n_segments=1, delta_t=dt,
                       n_variants=1, n_starts=2, seed=3)
    seg = res.variants[0].segments[0]
    assert abs(seg.omega * dt - np.pi / 2) < 0.01 * (np.pi / 2)


def random_point(rng, nv, ns, cap_hz=40e3):
    x = np.empty((nv, ns, 2))
    x[..., 0] = rng.uniform(0.2, 1.0, (nv, ns)) * 2 * np.pi * cap_hz
    x[..., 1] = rng.uniform(0, 2 * np.pi, (nv, ns))
    return x.ravel()


def point_of(variants):
    """The optimizer's parameter vector for a list of pulse sequences."""
    return np.array([[s.omega, s.phase] for v in variants for s in v.segments]).ravel()


def check_gradient(I, nv, ns, nmr=NMR):
    """Analytic gradient against central differences, 1e-5 relative."""
    sys_ = SpinSystem(I)
    target = coherent_state(sys_, np.pi / 2, 0.0)
    dt = 0.5e-6
    x = random_point(np.random.default_rng(7), nv, ns)
    f0, g = objective_for_test(sys_, nmr, target, x, dt, nv, ns)
    num = np.zeros_like(x)
    for i in range(len(x)):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = objective_for_test(sys_, nmr, target, xp, dt, nv, ns)[0]
        fm = objective_for_test(sys_, nmr, target, xm, dt, nv, ns)[0]
        num[i] = (fp - fm) / (2 * h)
    assert np.abs(g - num).max() / np.abs(num).max() < 1e-5


def test_gradient_matches_finite_differences():
    check_gradient(1.5, 2, 4)


@pytest.mark.parametrize("I,nv,ns", [
    (1.0, 1, 1), (1.0, 2, 4), (1.5, 1, 1), (3.5, 1, 1), (3.5, 2, 4),
])
def test_gradient_matches_finite_differences_other_sizes(I, nv, ns):
    check_gradient(I, nv, ns)


def test_gradient_off_resonance_matches_finite_differences():
    check_gradient(1.5, 2, 4, OFF_RESONANCE)


def frechet_gradient(sys_, nmr, target, x, dt, nv, ns):
    """-F and its gradient from scipy's expm_frechet per segment and explicit
    prefix/suffix products, apart from the optimizer's eigenbasis kernel."""
    ops = angular_momentum(sys_)
    rho0, dev = ops.Iz, traceless_part(projector(target))

    def chain(mats):   # mats[-1] ... mats[0]
        out = np.eye(sys_.d)
        for U in mats:
            out = U @ out
        return out

    U = np.empty((nv, ns, sys_.d, sys_.d), dtype=complex)
    dU = np.empty((nv, ns, 2, sys_.d, sys_.d), dtype=complex)
    for v, k in np.ndindex(nv, ns):
        w, ph = x.reshape(nv, ns, 2)[v, k]
        H = segment_hamiltonian(sys_, PulseSegment(w, ph, dt), nmr)
        dH = (np.cos(ph) * ops.Ix + np.sin(ph) * ops.Iy,           # d/dw
              w * (np.cos(ph) * ops.Iy - np.sin(ph) * ops.Ix))     # d/dphi
        for c in range(2):
            U[v, k], dU[v, k, c] = scipy.linalg.expm_frechet(-1j * dt * H, -1j * dt * dH[c])
    Utot = [chain(U[v]) for v in range(nv)]
    rho = sum(Ut @ rho0 @ Ut.conj().T for Ut in Utot) / nv
    nr, nt = np.linalg.norm(rho), np.linalg.norm(dev)
    F = np.trace(rho @ dev).real / (nr * nt)
    grad = np.zeros((nv, ns, 2))
    for v, k, c in np.ndindex(nv, ns, 2):
        dUtot = chain(U[v, k + 1:]) @ dU[v, k, c] @ chain(U[v, :k])
        drho = (dUtot @ rho0 @ Utot[v].conj().T + Utot[v] @ rho0 @ dUtot.conj().T) / nv
        grad[v, k, c] = (np.trace(drho @ dev).real / (nr * nt)
                         - F * np.trace(rho @ drho).real / nr ** 2)
    return -F, -grad


@pytest.mark.parametrize("nmr", [NMR, OFF_RESONANCE], ids=["on", "off"])
@pytest.mark.parametrize("I", [1.5, 2.0, 3.5])
def test_gradient_at_zero_amplitude_matches_frechet_reference(I, nmr):
    # L-BFGS-B's lower bound puts segments at w = 0, where H_static's +-m levels
    # are degenerate; central differences cannot resolve the derivative there
    sys_, nv, ns, dt = SpinSystem(I), 2, 6, 0.5e-6
    target = coherent_state(sys_, np.pi / 2, 0.0)
    x = random_point(np.random.default_rng(11), nv, ns).reshape(nv, ns, 2)
    x[:, ::3, 0] = 0.0
    x[:, 1::3, 0] = 1e-9
    x = x.ravel()
    f, g = objective_for_test(sys_, nmr, target, x, dt, nv, ns)
    f_ref, g_ref = frechet_gradient(sys_, nmr, target, x, dt, nv, ns)
    assert abs(f - f_ref) < 1e-12
    g = g.reshape(nv, ns, 2)
    for c in range(2):   # amplitude and phase, each on its own scale
        assert np.abs(g[..., c] - g_ref[..., c]).max() < 1e-10 * np.abs(g_ref[..., c]).max()


def check_objective_against_temporal_average(nmr):
    """The optimizer's objective against the independent simulation path, at a random point
    and at the variants of a short optimize_smp run, whose amplitudes are clipped at 0 and
    whose phases are wrapped into [0, 2 pi) as the result is assembled."""
    target = coherent_state(SYS, np.pi / 2, 0.0)
    nv, ns, dt = 3, 5, 0.5e-6
    x = random_point(np.random.default_rng(4), nv, ns, cap_hz=50e3)
    xs = x.reshape(nv, ns, 2)
    variants = [PulseSequence([PulseSegment(w, ph, dt) for w, ph in xs[v]])
                for v in range(nv)]
    ops = angular_momentum(SYS)
    dev = traceless_part(projector(target))

    def oracle_fidelity(seqs):
        avg = temporal_average(SYS, seqs, ops.Iz.copy(), nmr)
        return np.trace(avg @ dev).real / (np.linalg.norm(avg) * np.linalg.norm(dev))

    F = oracle_fidelity(variants)
    assert abs(-objective_for_test(SYS, nmr, target, x, dt, nv, ns)[0] - F) < 1e-12
    res = optimize_smp(SYS, nmr, target, n_segments=ns, delta_t=dt, budget=50,
                       n_variants=nv, seed=4)
    assert abs(oracle_fidelity(res.variants) - res.fidelity) < 1e-12


def test_objective_is_fidelity_of_temporal_average():
    check_objective_against_temporal_average(NMR)


def test_objective_off_resonance_matches_temporal_average():
    # the phase rule U(phi) = Rz(phi) U(0) Rz(-phi) holds with an Iz term in
    # H_static, as Iz commutes with it
    check_objective_against_temporal_average(OFF_RESONANCE)


def test_optimizer_history_monotone():
    target = coherent_state(SYS, np.pi / 2, 0.0)
    res = optimize_smp(SYS, NMR, target, n_segments=6, delta_t=0.5e-6,
                       budget=300, n_variants=2, seed=0)
    h = res.history
    assert len(h) > 1
    assert all(h[i + 1] <= h[i] + 1e-15 for i in range(len(h) - 1))
    assert res.evaluations == 300


@pytest.mark.parametrize("budget", [1, 2, 300])
def test_optimizer_spends_exact_budget(budget):
    target = coherent_state(SYS, np.pi / 2, 0.0)
    res = optimize_smp(SYS, NMR, target, n_segments=6, delta_t=0.5e-6,
                       budget=budget, n_variants=2, seed=0)
    assert res.evaluations == len(res.history) == budget
    # the result is the best point evaluated
    f, _ = objective_for_test(SYS, NMR, target, point_of(res.variants), 0.5e-6, 2, 6)
    assert abs(res.fidelity + f) < 1e-12
    assert abs(res.fidelity + res.history[-1]) < 1e-12


@pytest.mark.parametrize("budget", [1, 300])
def test_start_point_evaluated_once(monkeypatch, budget):
    points = []
    objective = spincat.smp._objective_and_gradient

    def counted(x, *args):
        points.append(np.array(x, copy=True))
        return objective(x, *args)

    monkeypatch.setattr(spincat.smp, "_objective_and_gradient", counted)
    target = coherent_state(SYS, np.pi / 2, 0.0)
    optimize_smp(SYS, NMR, target, n_segments=6, delta_t=0.5e-6,
                 budget=budget, n_variants=2, seed=0)
    assert len(points) == budget
    assert sum(np.array_equal(p, points[0]) for p in points) == 1


@pytest.mark.parametrize("budget", [1, 300, 40000])
def test_optimizer_records_each_start(budget):
    target = coherent_state(SYS, np.pi / 2, 0.0)
    res = optimize_smp(SYS, NMR, target, n_segments=6, delta_t=0.5e-6,
                       budget=budget, n_variants=2, seed=0)
    assert sum(s["nfev"] for s in res.starts) == res.evaluations
    assert max(s["fidelity"] for s in res.starts) == res.fidelity
    assert all(0 <= s["nit"] <= s["nfev"] for s in res.starts)
    assert all(s["message"] != "budget spent" for s in res.starts[:-1])
    if budget == 1:
        assert res.starts == [{"message": "budget spent", "nit": 0, "nfev": 1,
                               "fidelity": res.fidelity}]
    elif budget == 300:
        assert res.starts[-1]["message"] == "budget spent"
    else:   # every start converges (ftol or gtol) well inside the default budget
        assert len(res.starts) == 3 and res.evaluations < budget
        assert all(s["message"].startswith("CONVERGENCE") for s in res.starts)


def test_retired_values_are_refused(tmp_path, capsys):
    # no stage reads the polarization epsilon, so a config that sets it names an unknown key;
    # and the optimizer spends at least one evaluation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spin": 1.5, "nu_Q": 15220.0, "p": 1, "checkpoints": [1, 2],
                               "epsilon": 4.26e-6}))
    for args in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main([*args, "--config", str(cfg)]) == 2
        assert "unknown key 'epsilon'" in capsys.readouterr().err
    target = coherent_state(SYS, np.pi / 2, 0.0)
    with pytest.raises(ValueError, match=re.escape("budget must be an integer >= 1, got 0")):
        optimize_smp(SYS, NMR, target, n_segments=5, delta_t=0.5e-6, budget=0)


def test_temporal_average_contracts():
    ops = angular_momentum(SYS)
    seq1 = PulseSequence([PulseSegment(2 * np.pi * 30e3, 0.3, 2e-6)])
    seq2 = PulseSequence([PulseSegment(2 * np.pi * 30e3, 2.3, 2e-6)])
    avg = temporal_average(SYS, [seq1, seq2], ops.Iz.copy(), NMR)
    assert np.abs(avg - avg.conj().T).max() < 1e-12  # Hermitian
    same = temporal_average(SYS, [seq1, seq1], ops.Iz.copy(), NMR)
    assert np.allclose(same, simulate_sequence(SYS, ops.Iz.copy(), seq1, NMR),
                       atol=1e-12)
    with pytest.raises(ValueError):
        temporal_average(SYS, [], ops.Iz.copy(), NMR)
    with pytest.raises(ValueError):
        temporal_average(SYS, [seq1], np.eye(3, dtype=complex), NMR)


def test_json_roundtrip():
    seq = PulseSequence([PulseSegment(2 * np.pi * 12e3, 0.77, 2.5e-6),
                         PulseSegment(0.0, 0.0, 1e-6)], metadata={"variant": 0})
    back = PulseSequence.from_json(seq.to_json())
    assert len(back.segments) == 2
    for a, b in zip(seq.segments, back.segments):
        assert abs(a.omega - b.omega) < 1e-9
        assert abs(a.phase - b.phase) < 1e-12
        assert abs(a.duration - b.duration) < 1e-15
    assert back.metadata == seq.metadata


def test_pulse_sequence_built_directly_is_checked():
    # PulseSequence itself refuses what to_json could not write or from_json would refuse
    seg = PulseSegment(1.0, 0.0, 1e-6)
    for segments, metadata, says in (([seg], 5, '"metadata" is a JSON object, not 5'),
                                     ([seg], None, '"metadata" is a JSON object, not None'),
                                     ([1.0], {}, "segment 0 is not a PulseSegment: 1.0"),
                                     ([seg, {"omega": 1.0}], {}, "segment 1 is not a Pulse"),
                                     (5, {}, "segments are not a sequence of PulseSegments: 5"),
                                     (None, {}, "not a sequence of PulseSegments: None"),
                                     (1.0, {}, "not a sequence of PulseSegments: 1.0")):
        with pytest.raises(ValueError, match=re.escape(says)):
            PulseSequence(segments, metadata)
    assert PulseSequence([seg]).metadata == {}
    assert PulseSequence(s for s in (seg, seg)).segments == [seg, seg]   # read once, kept


def test_from_json_refuses_malformed_segment_by_name():
    # outside input: a bool is no amplitude, and a string, null or missing field is named,
    # not taken as 1 Hz or failed in numpy, in float arithmetic or with a bare KeyError
    good = {"amplitude_hz": 12e3, "phase_deg": 44.1, "duration_us": 2.5}
    for bad, says in (({**good, "amplitude_hz": True}, "segment 1 amplitude_hz must be finite"),
                      ({**good, "phase_deg": "44.1"}, "segment 1 phase_deg must be finite"),
                      ({**good, "duration_us": None}, "segment 1 duration_us must be finite"),
                      ({**good, "duration_us": -2.5}, "segment 1 duration_us must be finite"),
                      (dict(list(good.items())[:2]), "segment 1 has no 'duration_us'"),
                      (5, "segment 1 has no 'amplitude_hz'")):
        with pytest.raises(ValueError, match=re.escape(says)):
            PulseSequence.from_json(json.dumps({"segments": [good, bad]}))
    for text in ("{}", "[]", '{"segments": 3}'):
        with pytest.raises(ValueError, match='a JSON object with a "segments" list'):
            PulseSequence.from_json(text)
    # metadata is a JSON object or missing, never another JSON type
    for metadata in (5, None, [1]):
        with pytest.raises(ValueError, match='"metadata" is a JSON object'):
            PulseSequence.from_json(json.dumps({"segments": [good], "metadata": metadata}))
    assert PulseSequence.from_json(json.dumps({"segments": [good]})).metadata == {}


def test_optimizer_input_validation(monkeypatch):
    target = coherent_state(SYS, np.pi / 2, 0.0)
    with pytest.raises(ValueError):
        optimize_smp(SYS, NMR, target, n_segments=0, delta_t=1e-6)
    with pytest.raises(ValueError):
        optimize_smp(SYS, NMR, target, n_segments=5, delta_t=1e-6, n_variants=0)
    with pytest.raises(ValueError):
        optimize_smp(SYS, NMR, target, n_segments=5, delta_t=1e-6, budget=-1)
    for delta_t in (float("nan"), -1e-6, 0.0):
        with pytest.raises(ValueError, match="delta_t"):
            optimize_smp(SYS, NMR, target, n_segments=5, delta_t=delta_t)
    # a fractional or non-finite budget is refused before the first evaluation
    monkeypatch.setattr(spincat.smp, "_objective_and_gradient", None)
    for budget in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget"):
            optimize_smp(SYS, NMR, target, n_segments=3, delta_t=1e-6, budget=budget)
    # so are a fractional segment or variant count and fewer than one start
    for name, value in (("n_segments", 2.5), ("n_variants", 1.5), ("n_starts", 0),
                        ("n_starts", -3)):
        with pytest.raises(ValueError, match=name):
            optimize_smp(SYS, NMR, target, **{"n_segments": 3, "delta_t": 1e-6, name: value})
    # and a target state of the wrong length, zero or non-finite
    for state in (target[:3], np.zeros(SYS.d), np.full(SYS.d, np.nan),
                  np.array([1.0, np.inf, 0.0, 0.0])):
        with pytest.raises(ValueError, match="target_state"):
            optimize_smp(SYS, NMR, state, n_segments=3, delta_t=1e-6)
