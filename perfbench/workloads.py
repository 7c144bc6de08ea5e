"""The four benchmark workloads and the per-layer probe.

Each workload generates its inputs from the run's seed in ``setup``, then
runs whole rounds of the same operations.  A round times only the calls
into spincat; every output is checked afterwards against ``reference``
computations or against properties the method must have.  An operation
that raises, exits non-zero or fails a check counts as failed.

Every workload reports two times: ``short`` samples (one coherence-mode
CLI run, one tomographed state, one Wigner map, one optimizer evaluation)
and ``long`` samples (one round of the three CLI runs, one full
tomography pass with its design build, one sweep of maps, one optimizer
solve).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref

NU_Q = 15220.0                 # sodium-23 quadrupolar splitting, Hz
N_THETA, N_PHI = 64, 128       # CLI default Wigner grid
CAT_VARTHETA = np.pi / 2
NOISE_SIGMA = 0.01
WIGNER_POINTS = 3              # grid nodes per map compared with wigner_point

# The paper's sodium-23 presets as spincat.config defines them.
NA23_PRESETS = {
    "na23-cat-p1": {"p": 1, "checkpoints": (1, 2)},
    "na23-cat-p0": {"p": 0, "checkpoints": (1, 2)},
    "na23-init": {"p": 1, "checkpoints": (0,)},
}

# SMP at the settings of acceptance criterion 7.
SMP_SPIN, SMP_SEGMENTS, SMP_DT = 1.5, 20, 0.5e-6
SMP_VARIANTS, SMP_STARTS, SMP_SEED = 4, 3, 0
SMP_BUDGET = 1000
SMP_EVAL_CALLS = 5             # objective_for_test calls timed per traced round
GRAD_VARIANTS, GRAD_SEGMENTS = 2, 4   # criterion 7's finite-difference point

CLI_ENV = None                 # environment for spincat subprocesses, set by run.py


def cli_command(*args):
    return [sys.executable, "-m", "spincat.cli", *args]


def _max_err(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


_BASIS_BUILT = set()


def first_basis(tr, sys_):
    """Build the tensor basis for a spin, inside a span the first time only:
    spin_ops caches it per spin for the life of the process."""
    from spincat.spin_ops import spherical_tensor_basis
    if sys_.I in _BASIS_BUILT:
        spherical_tensor_basis(sys_)
        return
    _BASIS_BUILT.add(sys_.I)
    with tr.span("spin_ops.tensor_basis"):
        spherical_tensor_basis(sys_)


def smp_point(rng, n_variants, n_segments, cap_hz):
    """Random (amplitude, phase) pulse parameters, as criterion 7 draws them."""
    x = np.empty((n_variants, n_segments, 2))
    x[..., 0] = rng.uniform(0.2, 1.0, (n_variants, n_segments)) * 2 * np.pi * cap_hz
    x[..., 1] = rng.uniform(0, 2 * np.pi, (n_variants, n_segments))
    return x.ravel()


def write_init_config(directory: Path) -> Path:
    """The na23-init preset written out as a config file."""
    path = directory / "na23-init.json"
    path.write_text(json.dumps({"name": "na23-init", "spin": 1.5, "nu_Q": NU_Q,
                                "p": 1, "checkpoints": [0]}) + "\n")
    return path


def _json_dump(obj, path: Path):
    # the CLI's record format: sorted keys, indent 2, trailing newline
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, trace: bool):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.short = []
        self.long = []
        self.calibration = None    # sampled after every operation when set

    def setup(self):
        """Import the program and generate this run's inputs."""
        import spincat.cli  # noqa: F401  (what every CLI run pays)

    def run_round(self, r: int, tr) -> float:
        """Run one round; return the seconds spent in calls into spincat."""
        raise NotImplementedError

    def _operation(self, label, run_and_check):
        """Count one operation; ``run_and_check`` returns the list of
        problems found in its output."""
        self.attempted += 1
        try:
            problems = run_and_check()
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {problems[0]}")
        if self.calibration is not None:
            self.calibration.sample()

    def _check_map(self, sys_, rho, grid):
        """A Wigner map integrates to Tr rho and matches wigner_point at the
        run's seeded grid nodes."""
        from spincat.wigner import wigner_point
        problems = []
        integral = ref.sphere_integral(grid.theta, grid.values)
        if not abs(integral - np.trace(rho).real) < 1e-9:
            problems.append(f"map integrates to {integral!r}, Tr rho = {np.trace(rho).real!r}")
        rows, cols = self.nodes
        point = wigner_point(sys_, rho, grid.theta[rows], grid.phi[cols])
        if not _max_err(point, grid.values[rows, cols]) < 1e-10:
            problems.append(f"map differs from wigner_point by "
                            f"{_max_err(point, grid.values[rows, cols]):.2e}")
        return problems

    def _grid_nodes(self):
        return (self.rng.integers(N_THETA, size=WIGNER_POINTS),
                self.rng.integers(N_PHI, size=WIGNER_POINTS))


class Na23Cli(Workload):
    """Fresh-interpreter `spincat run` of the paper's presets, one at a time."""

    name = "na23-cli"

    def setup(self):
        super().setup()
        self.cli_seed = int(self.rng.integers(2 ** 31))
        # one run per round goes through config loading and validation
        config = write_init_config(self.workdir)
        self.jobs = [
            ("p1", "na23-cat-p1", ["--preset", "na23-cat-p1"], "coherence"),
            ("p0", "na23-cat-p0", ["--preset", "na23-cat-p0"], "coherence"),
            ("init", "na23-init", ["--config", str(config)], "coherence"),
        ]
        # Fid mode only in the traced run, which replays it in this process
        # for the per-layer fid metrics and checks it.  As a timed fresh
        # interpreter it is too unsteady to bound: one fid run takes 15-20 %
        # more or less than the next, largely in page faults (522,000 per
        # fid design build at I = 3/2, 0.9-1.2 s of system time in 6-8 s),
        # whose cost drifts apart from the machine's compute speed.
        if self.trace:
            self.jobs.append(("p1-fid", "na23-cat-p1",
                              ["--preset", "na23-cat-p1", "--mode", "fid"], "fid"))

    def run_round(self, r, tr):
        spent = 0.0
        coherence = []
        for label, preset, argv, mode in self.jobs:
            out = self.workdir / f"r{r}" / label
            times = []

            def run_and_check():
                if self.trace:
                    times.append(self._replay(argv, mode, out, tr))
                else:
                    t0 = time.perf_counter()
                    proc = subprocess.run(
                        cli_command("run", *argv, "--seed", str(self.cli_seed), "--out", str(out)),
                        env=CLI_ENV, capture_output=True, text=True)
                    times.append(time.perf_counter() - t0)
                    if proc.returncode != 0:
                        return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
                return self._check(r, label, preset, mode, out)

            self._operation(f"round {r} {label}", run_and_check)
            if times:
                spent += times[0]
                if mode == "coherence":
                    coherence.append(times[0])
        self.short += coherence
        if len(coherence) == len(NA23_PRESETS):
            self.long.append(sum(coherence))
        if r > 0:   # checked against round 0's files, which stay
            shutil.rmtree(self.workdir / f"r{r}", ignore_errors=True)
        return spent

    def _replay(self, argv, mode, out, tr) -> float:
        """The public calls `spincat run` makes, in the order run_experiment
        makes them, in this process and with a span around each."""
        from spincat import __version__
        from spincat.config import get_preset, load_config
        from spincat.dynamics import NmrParams, cat_time, free_evolution_schedule
        from spincat.spin_ops import SpinSystem
        from spincat.tomography import (build_design_matrix, measure, pulse_set,
                                        reconstruct, reconstruction_record)
        from spincat.wigner import grid_argmax, integrate_sphere, wigner_function, write_csv

        t0 = time.perf_counter()
        with tr.span("cli.run"):
            if argv[0] == "--config":
                with tr.span("config.load"):
                    cfg = load_config(argv[1])
            else:
                with tr.span("config.preset"):
                    cfg = get_preset(argv[1])
            cfg = dataclasses.replace(cfg, seed=self.cli_seed, mode=mode)
            out.mkdir(parents=True, exist_ok=True)
            sys_ = SpinSystem(cfg.spin)
            first_basis(tr, sys_)
            nmr = NmrParams(omega_L=0.0, omega_RF=0.0, omega_Q=2 * np.pi * cfg.nu_Q)
            with tr.span("dynamics.schedule"):
                targets = free_evolution_schedule(sys_, cfg.p, cfg.nu_Q, cfg.checkpoints,
                                                  cfg.vartheta, cfg.varphi)
            with tr.span("tomography.pulse_set"):
                cycles = pulse_set(sys_)
            tr.count("tomography.pulses", sum(len(c) for c in cycles))
            with tr.span("tomography.design_fid" if mode == "fid" else "tomography.design"):
                design = build_design_matrix(sys_, cycles, nmr, cfg.mode)
            report = {"config": cfg.to_dict(), "version": __version__,
                      "t_S_us": cat_time(cfg.nu_Q) * 1e6,
                      "design_condition_number": design.condition_number,
                      "checkpoints": []}
            measure_span = ("tomography.measure_fid" if mode == "fid" else
                            "tomography.measure_noisy" if cfg.noise_sigma > 0 else
                            "tomography.measure")
            for k, target in zip(cfg.checkpoints, targets):
                with tr.span(measure_span):
                    B = measure(sys_, target, cycles, nmr, cfg.mode,
                                noise_sigma=cfg.noise_sigma, seed=(cfg.seed, k))
                with tr.span("tomography.reconstruct"):
                    rho, info = reconstruct(design, B, sys_)
                with tr.span("wigner.map"):
                    grid = wigner_function(sys_, rho, cfg.n_theta, cfg.n_phi)
                tr.count("wigner.nodes", grid.values.size)
                with tr.span("cli.write"):
                    rec = reconstruction_record(
                        sys_, rho, info, target=target,
                        noise_settings={"noise_sigma": cfg.noise_sigma, "seed": cfg.seed})
                    _json_dump(rec, out / f"rho_{k}.json")
                    write_csv(grid, sys_, out / f"wigner_{k}.csv")
                    th_max, ph_max = grid_argmax(grid)
                    report["checkpoints"].append({
                        "k": k, "time_us": k * cat_time(cfg.nu_Q) * 1e6,
                        "fidelity": rec["fidelity_vs_target"],
                        "wigner_integral": integrate_sphere(grid),
                        "wigner_max_theta": float(th_max),
                        "wigner_max_phi": float(ph_max)})
            with tr.span("cli.report"):
                _json_dump(report, out / "report.json")
        return time.perf_counter() - t0

    def _check(self, r, label, preset, mode, out):
        problems = []
        spec = NA23_PRESETS[preset]
        for k in spec["checkpoints"]:
            rho = ref.read_rho(out / f"rho_{k}.json")
            target = ref.cat_schedule_target(1.5, NU_Q, spec["p"], k, CAT_VARTHETA, 0.0)
            if not _max_err(rho, target) < 1e-9:
                problems.append(f"rho_{k} differs from the target by {_max_err(rho, target):.2e}")
            theta, values = ref.read_wigner_csv(out / f"wigner_{k}.csv")
            if values.shape != (N_THETA, N_PHI):
                problems.append(f"wigner_{k}.csv has a {values.shape} grid")
            integral = ref.sphere_integral(theta, values)
            if not abs(integral - np.trace(rho).real) < 1e-9:
                problems.append(f"wigner_{k}.csv integrates to {integral!r}")
            if mode == "fid":
                coherent = ref.read_rho(out.parent / "p1" / f"rho_{k}.json")
                if not _max_err(rho, coherent) < 1e-8:
                    problems.append(f"fid rho_{k} differs from coherence mode by "
                                    f"{_max_err(rho, coherent):.2e}")
        if r > 0:
            first = self.workdir / "r0" / label
            names = sorted(p.name for p in first.iterdir())
            if sorted(p.name for p in out.iterdir()) != names:
                problems.append("writes other files than round 0")
            else:
                changed = [n for n in names if (out / n).read_bytes() != (first / n).read_bytes()]
                if changed:
                    problems.append(f"{changed} differ from round 0's bytes")
        return problems


class TomoSpin72(Workload):
    """Cat pipeline at I = 7/2: design build, then measure, reconstruct and
    map every checkpoint, noise-free and with seeded line noise."""

    name = "tomo-spin7_2"
    spin, p, checkpoints, noisy_draws = 3.5, 1, (0, 1, 2, 3, 4), 2

    def setup(self):
        super().setup()
        from spincat.dynamics import NmrParams
        from spincat.spin_ops import SpinSystem
        self.sys = SpinSystem(self.spin)
        self.nmr = NmrParams(0.0, 0.0, 2 * np.pi * NU_Q)
        self.varphi = 2 * np.pi * int(self.rng.integers(N_PHI)) / N_PHI
        self.nodes = self._grid_nodes()
        self.targets = [ref.cat_schedule_target(self.spin, NU_Q, self.p, k,
                                                CAT_VARTHETA, self.varphi)
                        for k in self.checkpoints]

    def run_round(self, r, tr):
        from spincat.dynamics import free_evolution_schedule
        from spincat.tomography import build_design_matrix, pulse_set

        t0 = time.perf_counter()
        first_basis(tr, self.sys)
        with tr.span("dynamics.schedule"):
            states = free_evolution_schedule(self.sys, self.p, NU_Q, self.checkpoints,
                                             CAT_VARTHETA, self.varphi)
        with tr.span("tomography.pulse_set"):
            cycles = pulse_set(self.sys)
        with tr.span("tomography.design"):
            design = build_design_matrix(self.sys, cycles, self.nmr)
        spent = time.perf_counter() - t0
        tr.count("tomography.pulses", sum(len(c) for c in cycles))
        state_time, n_states = 0.0, 0
        for i, (k, state) in enumerate(zip(self.checkpoints, states)):
            draws = [None] + [(self.seed, k, n) for n in range(self.noisy_draws)]
            for noise_seed in draws:
                times = []
                self._operation(f"round {r} k={k} noise={noise_seed}",
                                lambda: self._state(tr, design, cycles, i, state,
                                                    noise_seed, times))
                if times:
                    state_time += times[0]
                    n_states += 1
        spent += state_time
        self.long.append(spent)
        if n_states:
            self.short.append(state_time / n_states)
        return spent

    def _state(self, tr, design, cycles, i, state, noise_seed, times):
        from spincat.tomography import measure, reconstruct
        from spincat.wigner import tensor_expectations, wigner_function

        noisy = noise_seed is not None
        t0 = time.perf_counter()
        with tr.span("tomography.measure_noisy" if noisy else "tomography.measure"):
            B = measure(self.sys, state, cycles, self.nmr,
                        noise_sigma=NOISE_SIGMA if noisy else 0.0, seed=noise_seed)
        with tr.span("tomography.reconstruct"):
            rho, info = reconstruct(design, B, self.sys)
        if self.trace:
            with tr.span("wigner.tensor_expectations"):
                tensor_expectations(self.sys, rho)
        with tr.span("wigner.map"):
            grid = wigner_function(self.sys, rho, N_THETA, N_PHI)
        times.append(time.perf_counter() - t0)
        tr.count("wigner.nodes", grid.values.size)

        problems = []
        if noisy:
            X = np.linalg.lstsq(design.matrix, B, rcond=None)[0]
            coeffs = np.array([info["coefficients"][key] for key in design.keys])
            if not _max_err(coeffs, X) < 1e-9 * max(1.0, np.abs(X).max()):
                problems.append(f"coefficients differ from lstsq by {_max_err(coeffs, X):.2e}")
            if not abs(np.trace(rho) - 1) < 1e-9:
                problems.append(f"noisy reconstruction has trace {np.trace(rho)!r}")
        elif not _max_err(rho, self.targets[i]) < 1e-9:
            problems.append(f"reconstruction differs from the target by "
                            f"{_max_err(rho, self.targets[i]):.2e}")
        return problems + self._check_map(self.sys, rho, grid)


class WignerSpin152(Workload):
    """Wigner maps at I = 15/2 of schedule states for several azimuths,
    without tomography."""

    name = "wigner-spin15_2"
    spin, p, checkpoints, n_azimuths = 7.5, 1, (0, 1, 2), 3

    def setup(self):
        super().setup()
        from spincat.spin_ops import SpinSystem
        self.sys = SpinSystem(self.spin)
        shifts = self.rng.choice(np.arange(1, N_PHI), size=self.n_azimuths - 1, replace=False)
        self.shifts = [0] + [int(j) for j in shifts]
        self.nodes = self._grid_nodes()
        self.targets = {(j, k): ref.cat_schedule_target(self.spin, NU_Q, self.p, k, CAT_VARTHETA,
                                                        2 * np.pi * j / N_PHI)
                        for j in self.shifts for k in self.checkpoints}

    def run_round(self, r, tr):
        from spincat.dynamics import free_evolution_schedule

        spent = 0.0
        t0 = time.perf_counter()
        first_basis(tr, self.sys)
        spent += time.perf_counter() - t0
        unrotated = {}
        for j in self.shifts:
            t0 = time.perf_counter()
            with tr.span("dynamics.schedule"):
                states = free_evolution_schedule(self.sys, self.p, NU_Q, self.checkpoints,
                                                 CAT_VARTHETA, 2 * np.pi * j / N_PHI)
            spent += time.perf_counter() - t0
            for k, state in zip(self.checkpoints, states):
                times = []
                self._operation(f"round {r} shift={j} k={k}",
                                lambda: self._map(tr, j, k, state, unrotated, times))
                if times:
                    spent += times[0]
                    self.short.append(times[0])
        self.long.append(spent)
        return spent

    def _map(self, tr, j, k, state, unrotated, times):
        from spincat.wigner import tensor_expectations, wigner_function

        t0 = time.perf_counter()
        if self.trace:
            with tr.span("wigner.tensor_expectations"):
                tensor_expectations(self.sys, state)
        with tr.span("wigner.map"):
            grid = wigner_function(self.sys, state, N_THETA, N_PHI)
        times.append(time.perf_counter() - t0)
        tr.count("wigner.nodes", grid.values.size)

        problems = []
        target = self.targets[j, k]
        if not _max_err(state, target) < 1e-9:
            problems.append(f"schedule state differs from the target by {_max_err(state, target):.2e}")
        if j == 0:
            unrotated[k] = grid.values
        elif k in unrotated:
            rolled = np.roll(unrotated[k], j, axis=1)
            if not _max_err(grid.values, rolled) < 1e-10:
                problems.append(f"map at azimuth shift {j} differs from the rolled "
                                f"unshifted map by {_max_err(grid.values, rolled):.2e}")
        return problems + self._check_map(self.sys, state, grid)


class SmpNa23(Workload):
    """optimize_smp at the acceptance-criterion-7 settings with a fixed budget."""

    name = "smp-na23"

    def setup(self):
        super().setup()
        from spincat.dynamics import NmrParams
        from spincat.spin_ops import SpinSystem
        from spincat.states import coherent_state
        self.sys = SpinSystem(SMP_SPIN)
        self.nmr = NmrParams(0.0, 0.0, 2 * np.pi * NU_Q)
        self.target = coherent_state(self.sys, np.pi / 2, 0.0)
        self.grad_point = smp_point(self.rng, GRAD_VARIANTS, GRAD_SEGMENTS, 40e3)
        self.eval_point = smp_point(self.rng, SMP_VARIANTS, SMP_SEGMENTS, 50e3)

    def run_round(self, r, tr):
        from spincat.smp import objective_for_test, optimize_smp

        spent = 0.0
        if self.trace:
            for _ in range(SMP_EVAL_CALLS):
                t0 = time.perf_counter()
                with tr.span("smp.eval"):
                    objective_for_test(self.sys, self.nmr, self.target, self.eval_point,
                                       SMP_DT, SMP_VARIANTS, SMP_SEGMENTS)
                spent += time.perf_counter() - t0
        times = []

        def run_and_check():
            t0 = time.perf_counter()
            with tr.span("smp.solve"):
                res = optimize_smp(self.sys, self.nmr, self.target, n_segments=SMP_SEGMENTS,
                                   delta_t=SMP_DT, budget=SMP_BUDGET, n_variants=SMP_VARIANTS,
                                   n_starts=SMP_STARTS, seed=SMP_SEED)
            times.append(time.perf_counter() - t0)
            tr.count("smp.evaluations", res.evaluations)
            reached = np.flatnonzero(-np.asarray(res.history) >= 0.99)
            tr.count("smp.evals_to_f99", int(reached[0]) + 1 if reached.size else res.evaluations)
            self.short.append(times[0] / res.evaluations)
            return self._check(res)

        self._operation(f"round {r} solve", run_and_check)
        if times:
            spent += times[0]
            self.long.append(times[0])
        return spent

    def _check(self, res):
        from spincat.smp import objective_for_test

        problems = []
        F = ref.temporal_average_fidelity(res.variants, SMP_SPIN, self.nmr.omega_Q,
                                          ref.coherent_amplitudes(SMP_SPIN, np.pi / 2, 0.0))
        if not abs(F - res.fidelity) < 1e-8:
            problems.append(f"fidelity {res.fidelity!r} but the variants give {F!r}")
        if not res.fidelity >= 0.99:
            problems.append(f"fidelity {res.fidelity!r} below 0.99")

        def f(x):
            return objective_for_test(self.sys, self.nmr, self.target, x, SMP_DT,
                                      GRAD_VARIANTS, GRAD_SEGMENTS)

        x = self.grad_point
        g = f(x)[1]
        num = np.empty_like(x)
        for i in range(len(x)):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            num[i] = (f(xp)[0] - f(xm)[0]) / (2 * h)
        # amplitude and phase derivatives differ by ~1e5 in scale, so each
        # group is compared on its own scale
        for group, sl in (("amplitude", slice(0, None, 2)), ("phase", slice(1, None, 2))):
            rel = np.abs(g[sl] - num[sl]).max() / np.abs(num[sl]).max()
            if not rel < 1e-5:
                problems.append(f"{group} gradient differs from central differences by {rel:.2e}")
        return problems


WORKLOADS = {w.name: w for w in (Na23Cli, TomoSpin72, WignerSpin152, SmpNa23)}


def import_probe(tr, repeats=3):
    """cli.import: seconds to import spincat.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import spincat.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=CLI_ENV,
                              capture_output=True, text=True, check=True)
        tr.sample("cli.import", float(proc.stdout.split()[-1]))


def layer_probe(tr, missing, workdir: Path):
    """Time, at the paper's I = 3/2, each layer in ``missing`` that the
    workload itself does not call."""
    from spincat.config import load_config
    from spincat.dynamics import NmrParams, free_evolution_schedule
    from spincat.smp import objective_for_test, optimize_smp
    from spincat.spin_ops import SpinSystem
    from spincat.states import coherent_state
    from spincat.tomography import (build_design_matrix, measure, pulse_set,
                                    reconstruct, reconstruction_record)
    from spincat.wigner import tensor_expectations, wigner_function, write_csv

    sys_ = SpinSystem(1.5)
    nmr = NmrParams(0.0, 0.0, 2 * np.pi * NU_Q)
    first_basis(tr, sys_)
    with tr.span("dynamics.schedule"):
        states = free_evolution_schedule(sys_, 1, NU_Q, (1, 2))
    cycles = pulse_set(sys_)
    tr.count("tomography.pulses", sum(len(c) for c in cycles))
    with tr.span("tomography.design"):
        design = build_design_matrix(sys_, cycles, nmr)
    if "tomography.design_fid" in missing:
        with tr.span("tomography.design_fid"):
            build_design_matrix(sys_, cycles, nmr, "fid")
    out = workdir / "probe"
    out.mkdir(parents=True, exist_ok=True)
    for k, state in enumerate(states):
        with tr.span("tomography.measure"):
            B = measure(sys_, state, cycles, nmr)
        with tr.span("tomography.measure_noisy"):
            measure(sys_, state, cycles, nmr, noise_sigma=NOISE_SIGMA, seed=k)
        if "tomography.measure_fid" in missing:
            with tr.span("tomography.measure_fid"):
                measure(sys_, state, cycles, nmr, "fid")
        with tr.span("tomography.reconstruct"):
            rho, info = reconstruct(design, B, sys_)
        with tr.span("wigner.tensor_expectations"):
            tensor_expectations(sys_, rho)
        with tr.span("wigner.map"):
            grid = wigner_function(sys_, rho, N_THETA, N_PHI)
        tr.count("wigner.nodes", grid.values.size)
        with tr.span("cli.write"):
            _json_dump(reconstruction_record(sys_, rho, info, target=state), out / f"rho_{k}.json")
            write_csv(grid, sys_, out / f"wigner_{k}.csv")
    config = write_init_config(out)
    for _ in range(3):
        with tr.span("config.load"):
            load_config(config)
    if any(name.startswith("smp.") for name in missing):
        target = coherent_state(sys_, np.pi / 2, 0.0)
        x = smp_point(np.random.default_rng(0), SMP_VARIANTS, SMP_SEGMENTS, 50e3)
        for _ in range(SMP_EVAL_CALLS):
            with tr.span("smp.eval"):
                objective_for_test(sys_, nmr, target, x, SMP_DT, SMP_VARIANTS, SMP_SEGMENTS)
        with tr.span("smp.solve"):
            res = optimize_smp(sys_, nmr, target, n_segments=SMP_SEGMENTS, delta_t=SMP_DT,
                               budget=300, n_variants=SMP_VARIANTS, n_starts=SMP_STARTS,
                               seed=SMP_SEED)
        tr.count("smp.evaluations", res.evaluations)
        reached = np.flatnonzero(-np.asarray(res.history) >= 0.99)
        tr.count("smp.evals_to_f99", int(reached[0]) + 1 if reached.size else res.evaluations)
