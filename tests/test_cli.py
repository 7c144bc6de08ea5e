"""Configuration validation and command-line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spincat
from spincat.cli import main
from spincat.config import (ConfigError, PRESETS, get_preset, load_config,
                            validate_config)


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


def test_spin_above_bound_exit_code(tmp_path, capsys):
    p = write_config(tmp_path, {**GOOD, "spin": 40})
    assert main(["validate", "--config", str(p)]) == 2
    assert "spin" in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
    assert "spin" in capsys.readouterr().err


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


def test_cli_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


@pytest.mark.parametrize("field", ["varphi", "vartheta", "nu_Q", "epsilon",
                                   "noise_sigma"])
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


def test_cli_seed_override(tmp_path):
    cfg = {**GOOD, "checkpoints": [1], "n_theta": 16, "n_phi": 16,
           "noise_sigma": 0.05, "seed": 1}
    p = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(p), "--out", str(out1)])
    main(["run", "--config", str(p), "--out", str(out2), "--seed", "2"])
    assert ((out1 / "rho_1.json").read_bytes()
            != (out2 / "rho_1.json").read_bytes())


def test_cli_import_leaves_out_optimizer():
    # only optimize_smp needs scipy.optimize, and importing it costs a
    # third of the CLI's start-up
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, spincat.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
