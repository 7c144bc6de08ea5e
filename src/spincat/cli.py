"""Command-line interface: run preset or configured experiments, validate
configuration files, list presets."""

import argparse
import json
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_SCHEMA, ConfigError, PRESETS, get_preset, load_config
from .dynamics import NmrParams, cat_time, free_evolution_schedule
from .spin_ops import SpinSystem
from .tomography import (TomographyRankError, build_design_matrix, measure,
                         pulse_set, reconstruct, reconstruction_record)
from .wigner import wigner_function, write_csv, integrate_sphere, grid_argmax


def _json_dump(obj, path: Path):
    # sorted keys and a fixed separator set keep reruns byte-identical
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def run_experiment(cfg, out_dir: Path) -> dict:
    """Evolve, tomograph and map every checkpoint; write one report plus a
    reconstruction record and quasiprobability CSV per checkpoint."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sys = SpinSystem(cfg.spin)
    omega_Q = 2 * np.pi * cfg.nu_Q
    nmr = NmrParams(omega_L=0.0, omega_RF=0.0, omega_Q=omega_Q)
    targets = free_evolution_schedule(sys, cfg.p, cfg.nu_Q, cfg.checkpoints,
                                      cfg.vartheta, cfg.varphi)
    cycles = pulse_set(sys)
    design = build_design_matrix(sys, cycles, nmr, cfg.mode)

    report = {
        "config": cfg.to_dict(),
        "version": __version__,
        "t_S_us": cat_time(cfg.nu_Q) * 1e6,
        "design_condition_number": design.condition_number,
        "checkpoints": [],
    }
    for k, target in zip(cfg.checkpoints, targets):
        B = measure(sys, target, cycles, nmr, cfg.mode,
                    noise_sigma=cfg.noise_sigma, seed=(cfg.seed, k))
        rho, info = reconstruct(design, B, sys)
        rec = reconstruction_record(
            sys, rho, info, target=target,
            noise_settings={"noise_sigma": cfg.noise_sigma, "seed": cfg.seed})
        _json_dump(rec, out_dir / f"rho_{k}.json")
        grid = wigner_function(sys, rho, cfg.n_theta, cfg.n_phi)
        write_csv(grid, sys, out_dir / f"wigner_{k}.csv")
        th_max, ph_max = grid_argmax(grid)
        report["checkpoints"].append({
            "k": k,
            "time_us": k * cat_time(cfg.nu_Q) * 1e6,
            "fidelity": rec["fidelity_vs_target"],
            "wigner_integral": integrate_sphere(grid),
            "wigner_max_theta": float(th_max),
            "wigner_max_phi": float(ph_max),
        })
    _json_dump(report, out_dir / "report.json")
    return report


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config) if args.config else get_preset(args.preset)
        given = {k: v for k, v in (("seed", args.seed), ("mode", args.mode)) if v is not None}
        cfg = replace(cfg, **given)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    try:
        report = run_experiment(cfg, Path(args.out))
    except TomographyRankError as exc:
        print(f"tomography error: {exc}", file=_sys.stderr)
        return 3
    except (np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error during experiment run: {exc}", file=_sys.stderr)
        return 3
    for cp in report["checkpoints"]:
        print(f"checkpoint {cp['k']}: t = {cp['time_us']:.3f} us, fidelity = {cp['fidelity']:.6f}")
    print(f"wrote results to {args.out}")
    return 0


def _summary(cfg) -> str:
    return f"I={cfg.spin}, nu_Q={cfg.nu_Q} Hz, p={cfg.p}, checkpoints={list(cfg.checkpoints)}"


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=_sys.stderr)
        return 2
    print(f"valid: {cfg.name} ({_summary(cfg)})")
    return 0


def _cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        print(f"{name}: {_summary(PRESETS[name])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Quadrupolar spin dynamics: cat-state evolution, "
                    "tomography and quasiprobability maps.",
        epilog="exit codes: 0 success, 2 invalid configuration, 3 numerical failure")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON configuration file")
    src.add_argument("--preset", help="name of a built-in preset")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override RNG seed")
    run.add_argument("--mode", choices=CONFIG_SCHEMA["properties"]["mode"]["enum"], default=None,
                     help="override spectrum synthesis mode")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)

    pre = sub.add_parser("presets", help="inspect built-in presets")
    pre_sub = pre.add_subparsers(dest="presets_command", required=True)
    pre_sub.add_parser("list", help="list available presets").set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
