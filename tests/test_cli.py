"""Configuration validation and command-line entry points."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spincat
from spincat import spin_ops, tomography, wigner
from spincat.cli import main, run_experiment
from spincat.config import (CONFIG_SCHEMA, ConfigError, ExperimentConfig, PRESETS,
                            _check_schema, get_preset, load_config, validate_config)


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


GOOD = {"spin": 1.5, "nu_Q": 15220.0, "p": 1, "checkpoints": [1, 2]}


def test_presets_are_valid():
    for name, cfg in PRESETS.items():
        assert cfg.name == name
        assert cfg.nu_Q == 15220.0
        assert cfg.spin == 1.5
    assert get_preset("na23-init").checkpoints == (0,)
    assert get_preset("na23-cat-p1").p == 1
    assert get_preset("na23-cat-p0").p == 0


def test_unknown_preset_suggestion():
    with pytest.raises(ConfigError, match="na23-cat-p1"):
        get_preset("na23-cat-p111")


def test_validate_good_config():
    cfg = validate_config(dict(GOOD))
    assert cfg.spin == 1.5
    assert cfg.checkpoints == (1, 2)
    assert cfg.mode == "coherence"


def test_negative_nu_q_names_field(tmp_path):
    p = write_config(tmp_path, {**GOOD, "nu_Q": -5.0})
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert "nu_Q" in str(exc.value)
    assert str(p) in str(exc.value)


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match="checkpoints"):
        validate_config({**GOOD, "checkpoint": [1]})


def test_invalid_spin():
    # 0.7 is not a half-integer; 20.5 is above the largest spin that runs
    # in the memory of a workstation
    for spin in (0.7, 20.5):
        with pytest.raises(ConfigError, match="spin"):
            validate_config({**GOOD, "spin": spin})


@pytest.mark.parametrize("key, value", [
    ("p", True), ("p", np.inf), ("p", np.nan), ("seed", np.True_), ("seed", -np.inf),
    ("n_theta", np.nan), ("n_phi", np.inf), ("checkpoints", (True,)),
    ("checkpoints", (1, np.nan)), ("checkpoints", (np.inf,)), ("spin", np.nan),
    ("spin", np.inf)])
def test_direct_config_refuses_bools_and_non_finite_values_by_name(key, value):
    # presets and dataclasses.replace build ExperimentConfig without a file, and it checks
    # CONFIG_SCHEMA itself: True was taken as 1, NaN raised an unnamed "cannot convert float
    # NaN to integer" and infinity an OverflowError
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(PRESETS["na23-cat-p1"], **{key: value})


def test_spin_above_bound_exit_code(tmp_path, capsys):
    p = write_config(tmp_path, {**GOOD, "spin": 40})
    assert main(["validate", "--config", str(p)]) == 2
    assert "spin" in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "spin" in capsys.readouterr().err


def test_grid_must_resolve_spin(tmp_path, capsys):
    # 8 x 8 nodes cannot integrate the rank-20 harmonics of a spin-10 map:
    # the run used to exit 0 with wigner_integral 1.403
    cfg = {"spin": 10, "nu_Q": 15220, "p": 1, "checkpoints": [1], "n_theta": 8, "n_phi": 8}
    for field, n in (("n_theta", 8), ("n_phi", 8), ("n_phi", 20)):
        p = write_config(tmp_path, {**cfg, "n_theta": 21, "n_phi": 21, field: n})
        assert main(["validate", "--config", str(p)]) == 2
        assert field in capsys.readouterr().err
    p = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "n_theta" in capsys.readouterr().err
    assert validate_config({**cfg, "n_theta": 21, "n_phi": 21}).n_phi == 21


@pytest.mark.parametrize("field,bound,outside", [
    ("n_theta", 2048, 4096), ("n_phi", 2048, 10**9), ("nu_Q", 1, 1e-300),
    ("noise_sigma", 1000, 1e308),
    pytest.param("p", 2**53, 10**400, id="p-2**53-10**400"),
    pytest.param("p", -2**53, -10**400, id="p--2**53--10**400"),
    pytest.param("checkpoints", [2**53], [10**400], id="checkpoints-2**53-10**400"),
    pytest.param("checkpoints", [2**53], [1e300], id="checkpoints-2**53-1e+300")])
def test_value_outside_bounds_exit_code(tmp_path, capsys, field, bound, outside):
    # a 1e9-node grid would exhaust memory, nu_Q = 1e-300 Hz gives a cat time
    # of 5e299 s and noise_sigma = 1e308 overflows: each is refused up front.
    # p and k become doubles: 10**400 overflows, and a checkpoint of 1e300 names
    # a file rho_1000...json too long to write
    assert validate_config({**GOOD, field: bound})
    p = write_config(tmp_path, {**GOOD, field: outside})
    assert main(["validate", "--config", str(p)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_run_missing_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_cli_validate_missing_config_exit_code(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "3", "\"spin\"", "null"])
def test_config_that_is_not_a_json_object_exit_code(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert main(["validate", "--config", str(p)]) == 2
    assert "configuration must be a JSON object" in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "configuration must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_summary_lines_of_validate_and_presets(tmp_path, capsys):
    # validate and presets list print one summary of a config, in one format
    assert main(["validate", "--config", str(write_config(tmp_path, GOOD))]) == 0
    assert capsys.readouterr().out == (
        "valid: custom (I=1.5, nu_Q=15220.0 Hz, p=1, checkpoints=[1, 2])\n")
    assert main(["presets", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "na23-cat-p0: I=1.5, nu_Q=15220.0 Hz, p=0, checkpoints=[1, 2]",
        "na23-cat-p1: I=1.5, nu_Q=15220.0 Hz, p=1, checkpoints=[1, 2]",
        "na23-init: I=1.5, nu_Q=15220.0 Hz, p=1, checkpoints=[0]"]


def test_mode_choices_are_the_schema_enum(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "na23-init", "--mode", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(repr(mode) in err for mode in CONFIG_SCHEMA["properties"]["mode"]["enum"])


def _near(spec):
    """Values of one property's type in and around its schema bounds."""
    if "enum" in spec:
        return st.sampled_from(spec["enum"])
    if spec["type"] == "string":
        return st.text(max_size=4)
    if spec["type"] == "array":
        return st.lists(_near(spec["items"]), max_size=3)
    lo = spec.get("minimum", spec.get("exclusiveMinimum", -30))
    hi = spec.get("maximum", lo + 60)
    step = spec.get("multipleOf", 1)   # whole multiples of the step, such as half-integer spins
    ints = st.integers(math.floor(lo / step) - 1, math.ceil(hi / step) + 1).map(lambda n: n * step)
    if spec["type"] == "integer":
        return ints | ints.map(float)
    return ints | st.floats(lo - 1, hi + 1)


# any JSON value, and exact edges of the schema; JSON has no NaN or infinity, and these
# numbers stay in the double range: _check_schema rejects all three and JSON Schema accepts them
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
    | st.sampled_from([0.0, -0.0, 7.5, 8.0, 20.0, 20.5, 10**30, 1e300, "fid", [], {}]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4)
_PROPS = CONFIG_SCHEMA["properties"]


def _value(spec):
    # mostly near the schema, so that whole configs are often valid
    return st.integers(0, 19).flatmap(
        lambda i: _JSON if i == 0 else st.floats(-50, 50) if i == 1 else _near(spec))


_CONFIGS = st.fixed_dictionaries(
    {k: _value(_PROPS[k]) for k in CONFIG_SCHEMA["required"]},
    optional={k: _value(spec) for k, spec in _PROPS.items() if k not in CONFIG_SCHEMA["required"]},
) | st.dictionaries(st.sampled_from(list(_PROPS)) | st.text(max_size=6), _JSON, max_size=5)


@settings(max_examples=400, deadline=None)
@given(data=_CONFIGS)
def test_schema_check_matches_jsonschema(data):
    errors = list(jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(data))
    try:
        _check_schema(data, "<config>")
    except ConfigError as exc:
        assert errors, f"rejected a config the schema accepts: {exc}"
        # the message names a field the schema faults
        bad = {e.path[0] for e in errors if e.path}
        bad |= {k for k in CONFIG_SCHEMA["required"] if k not in data}
        bad |= {k for k in data if k not in CONFIG_SCHEMA["properties"]}
        assert any(f": {k}: " in str(exc) or f"'{k}'" in str(exc) for k in bad), str(exc)
    else:
        assert not errors, [e.message for e in errors]


@settings(max_examples=300, deadline=None)
@given(change=st.sampled_from(sorted(_PROPS)).flatmap(
    lambda key: st.tuples(st.just(key), _value(_PROPS[key]))))
def test_direct_config_obeys_the_schema(change):
    # dataclasses.replace of a preset is refused, naming the field, exactly when JSON Schema
    # rejects the changed config; at this preset's spin and grid no single change that the
    # schema accepts can break the rule that the grid resolve 2I
    key, value = change
    base = PRESETS["na23-cat-p1"]
    valid = jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid({**base.to_dict(), key: value})
    try:
        cfg = dataclasses.replace(base, **{key: value})
    except ConfigError as exc:
        assert not valid, f"refused a config the schema accepts: {exc}"
        assert f": {key}: " in str(exc), str(exc)
    else:
        assert valid, f"built a config the schema rejects: {key}={value!r}"
        assert cfg.to_dict()[key] == value


# a run costs little at spin <= 7/2 on grids <= 48 with <= 3 checkpoints; now and then
# a value the schema or ExperimentConfig rejects, but never a valid larger problem
_RUNNABLE = {
    "spin": st.integers(1, 7).map(lambda n: n / 2),
    "n_theta": st.integers(8, 48),
    "n_phi": st.integers(8, 48),
    "checkpoints": st.lists(st.integers(0, 4), min_size=1, max_size=3),
}
_REJECTED = st.sampled_from([None, True, "1", [], {}, -1, 0, 0.25, 1.2, 7, 7.5, 2049,
                             [-1], [0.5], 10**400, -10**400])


def _runnable_value(key):
    near = _RUNNABLE.get(key, _near(_PROPS[key]))
    return st.integers(0, 19).flatmap(lambda i: _REJECTED if i == 0 else near)


_FIXED = CONFIG_SCHEMA["required"] + ["n_theta", "n_phi"]
_SMALL_CONFIGS = st.fixed_dictionaries(
    {k: _runnable_value(k) for k in _FIXED},
    optional={**{k: _runnable_value(k) for k in _PROPS if k not in _FIXED},
              "spni": st.integers(1, 3)})  # a misspelt key


@settings(max_examples=200, deadline=None)
@given(data=_SMALL_CONFIGS)
@example(data={"spin": 1.5, "nu_Q": 10**400, "p": 1, "checkpoints": [1], "n_theta": 8,
               "n_phi": 8})   # a number no double holds: refused by name, not an OverflowError
@example(data={"spin": 1.5, "nu_Q": 15220.0, "p": 1, "checkpoints": [1], "n_theta": 8,
               "n_phi": 8, "varphi": -10**400})
def test_any_config_is_rejected_by_name_or_runs(data, tmp_path_factory):
    try:
        cfg = validate_config(data)
    except ConfigError as exc:
        keys = set(data) | set(CONFIG_SCHEMA["required"])
        assert any(f": {k}" in str(exc) or f"'{k}'" in str(exc) for k in keys), str(exc)
        return
    out = tmp_path_factory.mktemp("run")
    report = run_experiment(cfg, out)
    assert [cp["k"] for cp in report["checkpoints"]] == list(cfg.checkpoints)
    for cp in report["checkpoints"]:
        rho = np.array(json.loads((out / f"rho_{cp['k']}.json").read_text())["rho_re"])
        assert math.isfinite(cp["fidelity"])
        assert abs(cp["wigner_integral"] - np.trace(rho)) <= 1e-9 * max(1.0, np.abs(rho).max())


@pytest.mark.parametrize("mode", ["coherence", "fid"])
def test_pipeline_never_builds_the_dense_tensor_stack(tmp_path, monkeypatch, mode):
    # every stage reads the banded basis: a noisy run completes with the dense stack refused
    def refuse(sys):
        raise AssertionError(f"a pipeline stage built the dense tensor stack at I={sys.I}")

    dense = spin_ops.tensor_stack   # also counts calls through a name imported elsewhere
    for cached in (dense, spin_ops.tensor_band, tomography._closed_form, wigner._grid_factors):
        cached.cache_clear()
    monkeypatch.setattr(spin_ops, "tensor_stack", refuse)
    cfg = validate_config({"spin": 3.5, "nu_Q": 15220.0, "p": 1, "checkpoints": [0, 1],
                           "noise_sigma": 0.02, "seed": 4, "mode": mode})
    report = run_experiment(cfg, tmp_path)
    assert len(report["checkpoints"]) == 2
    assert all(cp["fidelity"] > 0.9 for cp in report["checkpoints"])
    assert dense.cache_info()[:2] == (0, 0)   # no hits, no misses


def test_invalid_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_cli_validate(tmp_path, capsys):
    p = write_config(tmp_path, GOOD)
    assert main(["validate", "--config", str(p)]) == 0
    assert "valid" in capsys.readouterr().out
    bad = write_config(tmp_path, {**GOOD, "p": 1.5}, "bad.json")
    assert main(["validate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("checkpoints", [[1, 1, 1], [0, 2, 2.0]])
def test_duplicate_checkpoints_exit_code(tmp_path, capsys, checkpoints):
    # a repeated checkpoint would rewrite its files and repeat its report entry;
    # as in JSON Schema, 2 and 2.0 are the same item
    data = {**GOOD, "checkpoints": checkpoints}
    assert not jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(data)
    p = write_config(tmp_path, data)
    assert main(["validate", "--config", str(p)]) == 2
    assert "checkpoints" in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "checkpoints" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


@pytest.mark.parametrize("field", ["varphi", "vartheta", "nu_Q", "noise_sigma"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_exit_code(tmp_path, capsys, field, literal):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(GOOD)[:-1] + f', "{field}": {literal}}}')
    assert main(["validate", "--config", str(p)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["coherence", "fid"])
def test_cli_run_outputs_and_determinism(tmp_path, mode):
    cfg = {**GOOD, "checkpoints": [1], "n_theta": 16, "n_phi": 16,
           "noise_sigma": 0.02, "seed": 5, "mode": mode}
    p = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    tomography._closed_form.cache_clear()   # a cold run, then one on the cached factors
    assert main(["run", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(p), "--out", str(out2)]) == 0
    for fname in ("report.json", "rho_1.json", "wigner_1.csv"):
        assert (out1 / fname).exists()
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    cp = report["checkpoints"][0]
    assert cp["fidelity"] > 0.9
    assert abs(cp["wigner_integral"] - 1) < 1e-6
    assert abs(report["t_S_us"] - 32.85) < 0.01


def test_integral_floats_run_like_integers(tmp_path):
    # JSON Schema's "integer" accepts 16.0 and [1.0]; the run treats them as
    # 16 and [1]: same file names (rho_1.json, not rho_1.0.json), same bytes
    ints = {**GOOD, "checkpoints": [1], "n_theta": 16, "n_phi": 16,
            "noise_sigma": 0.02, "seed": 5}
    floats = {**ints, "p": 1.0, "checkpoints": [1.0], "n_theta": 16.0,
              "n_phi": 16.0, "seed": 5.0}
    outs = []
    for name, cfg in (("ints", ints), ("floats", floats)):
        outs.append(tmp_path / name)
        p = write_config(tmp_path, cfg, f"{name}.json")
        assert main(["run", "--config", str(p), "--out", str(outs[-1])]) == 0
    files = sorted(f.name for f in outs[0].iterdir())
    assert files == ["report.json", "rho_1.json", "wigner_1.csv"]
    assert sorted(f.name for f in outs[1].iterdir()) == files
    for fname in files:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    # a non-integral value is rejected, not truncated
    for key, value in (("n_theta", 16.5), ("checkpoints", [1.5])):
        with pytest.raises(ConfigError, match=key):
            validate_config({**ints, key: value})
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{**ints, key: value})


def test_checkpoints_a_multiple_of_four_apart_write_the_same_bytes(tmp_path):
    # the schedule has period 4 in k at any size, up to the schema's 2^53 bound
    cfg = {**GOOD, "checkpoints": [1, 5, 4503599627370497], "n_theta": 16, "n_phi": 16}
    out = tmp_path / "r"
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    for name in ("rho_{}.json", "wigner_{}.csv"):
        first, *rest = ((out / name.format(k)).read_bytes() for k in cfg["checkpoints"])
        assert all(other == first for other in rest)


def test_cli_run_noise_free_fidelity(tmp_path):
    cfg = {**GOOD, "checkpoints": [1], "n_theta": 16, "n_phi": 16}
    p = write_config(tmp_path, cfg)
    out = tmp_path / "r"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checkpoints"][0]["fidelity"] > 1 - 1e-8


def test_cli_run_invalid_config_exit_code(tmp_path, capsys):
    p = write_config(tmp_path, {**GOOD, "nu_Q": "fast"})
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err


def _half_pi_pulse_set(sys):
    # a pi/2 pulse is blind to T_20, so this set leaves the design one rank short
    return tomography.pulse_set(sys)[:2 * sys.d]   # the zero-order cycle and the pi/2 cycles


def _svd_fails(*args):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("name, stand_in, message", [
    ("pulse_set", _half_pi_pulse_set,
     "tomography error: design matrix rank 15 < 16; weakly determined components: [(2, 0)]"),
    ("build_design_matrix", _svd_fails,
     "numerical error during experiment run: SVD did not converge"),
], ids=["short-rank", "linalg-error"])
def test_cli_run_numerical_failure_exit_code(tmp_path, capsys, monkeypatch, name, stand_in,
                                             message):
    monkeypatch.setattr(f"spincat.cli.{name}", stand_in)
    p = write_config(tmp_path, GOOD)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.strip() == message


def test_cli_seed_override(tmp_path):
    cfg = {**GOOD, "checkpoints": [1], "n_theta": 16, "n_phi": 16,
           "noise_sigma": 0.05, "seed": 1}
    p = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(p), "--out", str(out1)])
    main(["run", "--config", str(p), "--out", str(out2), "--seed", "2"])
    assert ((out1 / "rho_1.json").read_bytes()
            != (out2 / "rho_1.json").read_bytes())


@pytest.mark.parametrize("source", ["config", "preset"])
def test_cli_seed_override_is_validated(tmp_path, capsys, source):
    # an override passes the same schema as a file: a negative --seed exits 2 before any
    # work, whether or not the run draws noise
    p = write_config(tmp_path, {**GOOD, "noise_sigma": 0.01})
    given = ["--config", str(p)] if source == "config" else ["--preset", "na23-cat-p1"]
    out = tmp_path / "x"
    assert main(["run", *given, "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "seed" in err
    assert not out.exists()


def test_cli_import_leaves_out_optimizer():
    # only optimize_smp needs scipy.optimize, and importing it costs a
    # third of the CLI's start-up; the package itself imports no module,
    # so spincat.smp is not compiled either
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, spincat.cli; "
            "print('scipy.optimize' in sys.modules, 'spincat.smp' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


def test_cli_run_leaves_out_numpy_polynomial(tmp_path):
    # Gauss-Legendre nodes come from Newton's method, not numpy.polynomial's leggauss,
    # whose import costs about 2.5 ms of every run
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys; from spincat.cli import main; "
            f"main(['run', '--preset', 'na23-cat-p1', '--out', {str(tmp_path)!r}]); "
            "print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split()[-1] == "False"
    assert (tmp_path / "report.json").exists()


def test_cli_import_leaves_out_scipy_special_and_jsonschema():
    # the run path needs numpy only: harmonics come from a recurrence and the
    # config schema is checked directly
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, spincat.cli; "
            "print('scipy.special' in sys.modules, 'jsonschema' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]
