"""Benchmark entry point for the vttcap pipeline.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; vttcap is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end numbers; with ``--trace 1`` the same pipeline runs once
untraced and once traced, and the metrics are the per-layer numbers plus
the tracing overhead.  The line before it is a JSON report of the run
environment and of every stage.  Working files live under ``.perfbench/``
in the checkout; each run's directory is deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7  # import probes and data set-ups per run; setup_s takes medians

# Imports what run.py imports (numpy and vttcap, through pipeline) in a
# fresh interpreter and prints the seconds that took.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import pipeline; print(time.perf_counter() - t)")

# name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "xe_tokens_per_s": ("tokens/s", "higher"),
    "scst_videos_per_s": ("videos/s", "higher"),
    "greedy_captions_per_s": ("captions/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "xe_val_loss": ("nats/token", "lower"),
}


def pin_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": threads, "processes": 1}


def stage_rows(stages) -> list:
    return [{"command": s.command, "wall_s": s.wall_s, "code": s.code,
             "problems": s.problems} for s in stages]


def import_seconds() -> float:
    """Median time to import the benchmark's modules in a fresh interpreter."""
    walls = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        walls.append(float(proc.stdout))
    return statistics.median(walls)


def measure(w, seed: int, seconds: float, work: Path) -> tuple:
    """Untraced run: set-up, then timed passes until ``seconds`` have elapsed.

    ``setup_s`` is the median import time plus the median wall time of the
    synth-data and build-vocab stages, each over ``SETUP_REPEATS`` repeats.
    """
    from pipeline import Pipeline, PassResult, median_of, timed_pass

    p = Pipeline(w, seed, work)
    data_walls = []
    ds = None
    for k in range(SETUP_REPEATS):
        d = p.make_data(f"setup{k}")
        if d is None:
            break
        data_walls.append(d.setup_s)
        if ds is None:
            ds = d
        else:
            shutil.rmtree(d.dir)
    passes = []
    import_s = None
    if not any(s.failed for s in p.stages):
        import_s = import_seconds()
        setup_s = import_s + median_of(data_walls)
        t0 = time.perf_counter()
        while not any(s.failed for s in p.stages):
            passes.append(timed_pass(p, ds, f"pass{len(passes)}"))
            shutil.rmtree(work / f"pass{len(passes) - 1}", ignore_errors=True)
            if time.perf_counter() - t0 >= seconds:
                break
    values = {name: median_of(getattr(r, name) for r in passes) for name in vars(PassResult())}
    if passes:
        values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
               for name in END_TO_END if values.get(name) is not None}
    report = {"stages": stage_rows(p.stages), "passes": [vars(r) for r in passes],
              "setup": {"import_s": import_s, "data_s": data_walls}}
    return p.stages, metrics, report


def one_pass(p) -> float:
    """Data set-up and one timed pass; returns their wall time."""
    from pipeline import timed_pass

    t0 = time.perf_counter()
    ds = p.make_data("data")
    if ds is not None:
        timed_pass(p, ds, "pass")
    return time.perf_counter() - t0


def measure_traced(w, seed: int, work: Path) -> tuple:
    """The pipeline untraced, then traced; per-layer numbers from the traced one."""
    from pipeline import Pipeline
    from spans import BOUNDARIES, CLI_STAGES, Tracer, per_layer_values

    plain = Pipeline(w, seed, work / "untraced")
    untraced_s = one_pass(plain)
    shutil.rmtree(work / "untraced", ignore_errors=True)

    tracer = Tracer()
    tracer.install()
    traced = Pipeline(w, seed, work / "traced", tracer)
    tracer.active = True
    try:
        traced_s = one_pass(traced)
    finally:
        tracer.active = False
        tracer.uninstall()
    stages = plain.stages + traced.stages
    summary = tracer.summary()
    per_name = summary["per_name"]

    expected = dict(traced.expected)
    for stage in CLI_STAGES:
        expected[f"cli.{stage}"] = sum(s.command == stage for s in traced.stages)
    mismatched = {name: {"expected": n, "traced": per_name.get(name, {}).get("calls", 0)}
                  for name, n in sorted(expected.items()) if name not in tracer.missing
                  and per_name.get(name, {}).get("calls", 0) != n}
    matched = sum(name not in tracer.missing and name not in mismatched for name in expected)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"trace-{w.name}-seed{seed}.npz"
    tracer.write(spans_file)
    overhead_s = traced_s - untraced_s
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in per_layer_values(summary, tracer.missing, overhead_s).items()}
    # A vanished boundary or a wrong call count lowers these, so an incomplete
    # trace shows in the result line, not only in the report.
    metrics["trace.boundaries_wrapped"] = {"value": len(BOUNDARIES) - len(tracer.missing),
                                           "unit": "count"}
    metrics["trace.counts_matched"] = {"value": matched, "unit": "count"}
    report = {"stages": stage_rows(stages),
              "tracing": {"complete": not mismatched and not tracer.missing,
                          "checked": len(expected), "mismatched": mismatched,
                          "missing": tracer.missing, "spans": summary["spans"],
                          "untraced_s": untraced_s, "traced_s": traced_s,
                          "overhead_s": overhead_s, "spans_file": str(spans_file)}}
    return stages, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    if not (ROOT / "src" / "vttcap").is_dir():
        print(f"error: no vttcap sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = OUT_DIR / f"run-{w.name}-seed{args.seed}-{os.getpid()}"
    # Termination unwinds through the finally below, so the run directory
    # (1.5 GB for paper-xe) is removed.
    prev_handler = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            stages, metrics, report = measure_traced(w, args.seed, work)
        else:
            stages, metrics, report = measure(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.signal(signal.SIGTERM, prev_handler)
    failed = sum(s.failed for s in stages)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(threads), **report}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(stages), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
