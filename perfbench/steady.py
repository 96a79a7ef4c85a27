"""Steadiness of the benchmark: repeated runs, median and quartiles per metric.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--counts] [--set-bounds]
                                [--record LABEL]

Runs each workload --runs times, each with another seed, and prints for every
end-to-end metric its median, quartiles and spread, the distance between the
quartiles over the median (statistics.quantiles, n=4).  A spread should stay
below a third of the metric's bound in BENCHMARK.json.

--counts     also runs --trace 1 twice on one seed per workload and requires
             every count metric to repeat exactly.
--set-bounds writes bounds into BENCHMARK.json: three times the widest spread
             seen, rounded up to 0.05, within [0.10, 0.25]; metrics in s or
             1/s get 0.25, the largest: the references remove the host's
             speed phases only as far as the work tracks them, and a set of
             runs taken in another host phase spread up to 0.09.
--record     appends the medians, the machine (nproc, CPU model, Python and
             numpy versions) and the bounds to perfbench/trajectory.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from cells import WORKLOADS
from layers import COUNTS

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "BENCHMARK.json"
TRAJECTORY = Path(__file__).with_name("trajectory.json")
COUNT_METRICS = set(COUNTS) | {"lengths.stat_calls"}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed evaluations",
              file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    config = json.loads(CONFIG.read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--set-bounds", action="store_true")
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.runs)
    stats, widest, bad = {}, {}, 0
    for w in args.workloads.split(","):
        runs = [bench(w, s, args.seconds, 0) for s in seeds]
        stats[w] = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        print(f"{w}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for m, s in stats[w].items():
            flag = "ok" if s["spread"] < bounds[m] / 3 else "WIDE"
            if m != "setup_s" and s["spread"] > bounds[m]:
                flag, bad = "OVER", bad + 1
            print(f"  {m:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bounds[m]}) {flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in s["values"]))
            widest[m] = max(widest.get(m, 0.0), s["spread"])
        if args.counts:
            a, b = (bench(w, seeds.start, args.seconds, 1)["metrics"] for _ in range(2))
            diff = [m for m in COUNT_METRICS if a[m]["value"] != b[m]["value"]]
            print(f"  counts over two traced runs: {'repeat exactly' if not diff else diff}")
            bad += bool(diff)

    if args.set_bounds:
        for m in config["end_to_end"]:
            if m["unit"] in ("s", "1/s"):
                m["bound"] = 0.25
            else:
                m["bound"] = min(0.25, max(0.10, math.ceil(60 * widest[m["name"]]) / 20))
        CONFIG.write_text(json.dumps(config, indent=2) + "\n")
        print("bounds:", {m["name"]: m["bound"] for m in config["end_to_end"]})
    if args.record:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        points.append({"label": args.record, "machine": machine(),
                       "run_seconds": args.seconds, "seeds": [seeds.start, seeds.stop - 1],
                       "bounds": {m["name"]: m["bound"] for m in config["end_to_end"]},
                       "workloads": stats})
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
