"""spincat benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; spincat is imported from ./src.
The seed generates the workload's inputs.  Whole rounds of the workload's
operations run until S seconds have passed (at least two rounds).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, scaled to the reference machine's speed by
``calibration``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# One BLAS thread, set before numpy loads and inherited by every spincat
# subprocess.  At two threads (the core count) OpenBLAS's second thread
# spins on the other core: an optimize_smp solve ran at 1.97 CPUs for the
# same 4.4-4.6 s as at one thread, and timings then hang on that core too.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONPATH"] = str(SRC)

SETUP_REPEATS = 3
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "short_op_s": "s",
    "long_op_s": "s",
}

# per-layer metric -> (span or count name, unit)
PER_LAYER = {
    "cli.import_s": ("cli.import", "s"),
    "config.load_s": ("config.load", "s"),
    "cli.write_s": ("cli.write", "s"),
    "spin_ops.tensor_basis_s": ("spin_ops.tensor_basis", "s"),
    "dynamics.schedule_s": ("dynamics.schedule", "s"),
    "tomography.design_s": ("tomography.design", "s"),
    "tomography.design_fid_s": ("tomography.design_fid", "s"),
    "tomography.measure_s": ("tomography.measure", "s"),
    "tomography.measure_noisy_s": ("tomography.measure_noisy", "s"),
    "tomography.measure_fid_s": ("tomography.measure_fid", "s"),
    "tomography.reconstruct_s": ("tomography.reconstruct", "s"),
    "tomography.pulses": ("tomography.pulses", "count"),
    "wigner.map_s": ("wigner.map", "s"),
    "wigner.tensor_expectations_s": ("wigner.tensor_expectations", "s"),
    "wigner.nodes": ("wigner.nodes", "count"),
    "smp.eval_s": ("smp.eval", "s"),
    "smp.evaluations": ("smp.evaluations", "count"),
    "smp.evals_to_f99": ("smp.evals_to_f99", "count"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["na23-cli", "tomo-spin7_2", "wigner-spin15_2", "smp-na23"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    return parser.parse_args(argv)


def setup_time(args) -> float:
    """Seconds from launching a fresh interpreter on this workload to the
    end of its set-up (importing spincat.cli and generating the inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {args.workload} failed (exit {proc.returncode})")
    return elapsed


def run_rounds(wl, seconds, tracer, trace):
    """Whole rounds until ``seconds`` have passed.  A traced run traces
    round 0 and then alternates untraced and traced rounds, ending on a
    traced one, so the two kinds can be compared; returns the program
    seconds of (traced, untraced) rounds after round 0."""
    traced, untraced = [], []
    start = time.perf_counter()
    r = 0
    while True:
        tracer.enabled = trace and r % 2 == 0
        tracer.round = r
        spent = wl.run_round(r, tracer)
        if r > 0:
            (traced if tracer.enabled else untraced).append(spent)
        r += 1
        if trace:
            done = r >= 3 and r % 2 == 1
        else:
            done = r >= MIN_ROUNDS
        if done and time.perf_counter() - start >= seconds:
            break
    tracer.enabled = trace
    return traced, untraced


def per_layer_metrics(tracer, traced, untraced, workdir, trace_path):
    """Per-layer values from the workload's spans, and from a probe for the
    layers the workload does not call; writes both tracers' spans."""
    import workloads
    from spans import Tracer

    workloads.import_probe(tracer)
    values = dict(tracer.self_times(), **tracer.counts)
    missing = {name for name, _ in PER_LAYER.values() if name not in values}
    probe = Tracer(True)
    if missing:
        workloads.layer_probe(probe, missing, workdir)
        probe_values = dict(probe.self_times(), **probe.counts)
        values.update({name: probe_values[name] for name in missing})
    trace_path.write_text(json.dumps({"workload": tracer.to_json(),
                                      "probe": probe.to_json()}, indent=1) + "\n")
    metrics = {metric: {"value": values[name], "unit": unit}
               for metric, (name, unit) in PER_LAYER.items()}
    base = statistics.median(untraced)
    metrics["trace.overhead_pct"] = {
        "value": 100 * (statistics.median(traced) - base) / base, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spincat" / "__init__.py").is_file():
        print(f"no spincat sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # One core for the run and its subprocesses: the two cores' speeds
    # drift apart at times, and the calibration kernel has to run on the
    # core that ran the operations it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads
    from calibration import Calibration
    from spans import Tracer

    workloads.CLI_ENV = dict(os.environ)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, bool(args.trace))
        if args.setup_only:
            wl.setup()
            print("ready", flush=True)
            return 0
        calibration = None if args.trace else Calibration()
        setups = []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            calibration.sample()
            setups.append(setup_time(args))
        wl.setup()
        wl.calibration = calibration
        tracer = Tracer(False)
        traced, untraced = run_rounds(wl, args.seconds, tracer, bool(args.trace))
        if args.trace:
            metrics = per_layer_metrics(tracer, traced, untraced, workdir,
                                        OUT / f"trace-{args.workload}.json")
        else:
            # Operation times are means over the run: the machine's fast and
            # slow phases last tens of seconds, and a run's median jumps from
            # one phase's time to the other's where its mean moves smoothly.
            raw = {"setup_s": statistics.median(setups),
                   "short_op_s": statistics.fmean(wl.short) if wl.short else None,
                   "long_op_s": statistics.fmean(wl.long) if wl.long else None}
            scale = calibration.factor()
            print(f"raw {json.dumps(raw)}; calibration factor {scale:.4f} "
                  f"from {len(calibration.times)} kernel runs", file=sys.stderr)
            metrics = {name: {"value": None if raw[name] is None else raw[name] * scale,
                              "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in wl.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
