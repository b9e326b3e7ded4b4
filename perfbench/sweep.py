"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload desk --workload paper-xe --seeds 1-10 \\
        --out perfbench/baselines/seed.json

Each run is a fresh ``run.py`` process, one after another.  For every
workload and metric the summary gives the values in seed order, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, flagged against a third of the metric's bound
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    result = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            report, final, wall = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "wall_s": wall, "correct": final["correct"],
                         "attempted": final["attempted"], "failed": final["failed"],
                         "metrics": {k: v["value"] for k, v in final["metrics"].items()},
                         "stages": report["stages"]})
            result["env"] = report["env"]
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={final['correct']}",
                  file=sys.stderr)
        names = sorted({k for r in runs for k in r["metrics"]})
        metrics = {}
        for name in names:
            s = summarise([r["metrics"][name] for r in runs if name in r["metrics"]])
            if name in bounds and s["spread"] is not None:
                s["bound"] = bounds[name]
                s["within_third_of_bound"] = s["spread"] < bounds[name] / 3
            metrics[name] = s
            flag = "" if s.get("within_third_of_bound", True) else "  <-- above bound/3"
            print(f"  {name:40s} median {s['median']:.6g}  spread {s['spread'] or 0:.4f}{flag}",
                  file=sys.stderr)
        result["workloads"][workload] = {
            "runs": runs, "metrics": metrics,
            "wall_s": summarise([r["wall_s"] for r in runs]),
            "all_correct": all(r["correct"] for r in runs)}
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
