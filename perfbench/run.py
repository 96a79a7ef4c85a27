"""coxwalk benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; coxwalk is imported from ./src.

A pass evaluates the workload's cell list (cells.py) in a fresh interpreter
(worker.py).  Passes repeat, each in a new process, while another one fits
in --seconds.  Set-up, spawn to the first op being ready, is sampled from
SETUPS_PER_PASS set-up-only processes before each pass.  After the passes,
the first pass's results are checked against independent routes (checks.py)
and every later pass must reproduce them exactly.

Times are in reference seconds (hostspeed.py): every evaluation is scaled
by a fixed reference loop timed just before and after it in the worker, and
every set-up by a fixed reference interpreter start timed just before and
after it, which removes the shared host's speed phases from the figures.

--trace 0 reports the end-to-end metrics (tracing off):
  setup_s      median set-up time over the set-up-only interpreters
  op_p50_s     median over cells of the cell's median evaluation time over
               the passes
  op_tail_s    the highest percentile of those with >= 10 cells beyond it
  work_per_s   a pass's domain work over the sum of the per-cell medians
               (unit per workload)
  peak_rss_mb  median over passes of the worker's peak resident memory
  pass_frac    evaluations that completed and agreed / attempted, i.e.
               1 - fail_frac; fail_frac is printed beside it
--trace 1 runs every pass twice, untraced and traced, and reports the
per-layer metrics of layers.py (in plain seconds), with trace.overhead_frac
the traced over the untraced evaluation time, both scaled, minus 1.  The spans are written to
.perfbench-out/.  Counts that differ between passes abort the run: they
are a benchmark bug, not noise.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from cells import WORK_UNIT, WORKLOADS, make_cells
from layers import COUNTS, PER_LAYER, pass_counts, pass_times
from hostspeed import LOOP_S, START_S, start_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = ROOT / ".perfbench-out"
SETUPS_PER_PASS = 2  # set-up probes before each pass
MIN_SETUPS = 16  # set-up probes per run
TAIL_BEYOND = 10  # evaluations beyond the tail percentile
PASS_TIMEOUT = 150


class BenchmarkBug(Exception):
    """The benchmark measured something inconsistent; no result is valid."""


def spawn(job: dict) -> tuple[float, dict | None]:
    """Run the worker on job; returns (spawn-to-ready seconds, its output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        out = proc.stdout.read()
        proc.stdout.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with code {code} before finishing")
    return setup, (json.loads(out) if out.strip() else None)


def probe_setup(cells: list[dict]) -> tuple[float, float]:
    """Set-up time of one set-up-only interpreter and the reference start's
    mean time just before and after it."""
    before = start_time()
    setup = spawn({"cells": cells, "trace": 0, "setup_only": True})[0]
    return setup, (before + start_time()) / 2


def run_passes(cells: list[dict], seconds: float, traced: bool):
    """Passes until another would not fit in seconds (at least one), each
    after SETUPS_PER_PASS set-up probes, so that both sample the whole run.
    Returns (set-up probes, untraced passes, traced passes)."""
    setups, plain, spanned = [], [], []
    start = perf_counter()
    while True:
        setups += [probe_setup(cells) for _ in range(SETUPS_PER_PASS)]
        plain.append(spawn({"cells": cells, "trace": 0, "setup_only": False})[1])
        if traced:
            spanned.append(spawn({"cells": cells, "trace": 1, "setup_only": False})[1])
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(probe_setup(cells))
    return setups, plain, spanned


def judge(cells: list[dict], passes: list[dict]) -> list[list[bool]]:
    """Verdict per op per pass: the first pass is checked against the
    independent routes, later passes must reproduce its results exactly."""
    sys.path.insert(0, str(SRC))
    from checks import Checker

    first = Checker().verdicts(cells, passes[0]["ops"])
    out = [first]
    for p in passes[1:]:
        out.append([ok and "result" in op and op["result"] == ref.get("result")
                    for ok, op, ref in zip(first, p["ops"], passes[0]["ops"])])
    return out


def end_to_end(workload: str, cells, setups, passes, verdicts) -> tuple[dict, list[str]]:
    # Times are in reference seconds (hostspeed.py): each is scaled by the
    # reference timed beside it, which removes the host's speed phases; a
    # cell's time is then its median over the passes.
    per_cell, work = [], 0
    for k in range(len(cells)):
        done = [p["ops"][k] for p, v in zip(passes, verdicts) if v[k]]
        if done:
            per_cell.append(statistics.median(op["time"] * LOOP_S / op["ref"] for op in done))
            work += done[0]["counts"]["work"]
    busy = sum(per_cell)
    per_cell.sort()
    n = len(per_cell)
    k_tail = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # too few cells: the slowest
    attempted = len(cells) * len(passes)
    failed = attempted - sum(map(sum, verdicts))
    metrics = {
        "setup_s": (statistics.median(t * START_S / ref for t, ref in setups), "s"),
        "op_p50_s": (statistics.median(per_cell) if per_cell else 0.0, "s"),
        "op_tail_s": (per_cell[k_tail - 1] if per_cell else 0.0, "s"),
        "work_per_s": (work / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
        "pass_frac": (1 - failed / attempted, "frac"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters "
                   f"(raw {statistics.median(t for t, _ in setups):.4g} s)",
        "op_p50_s": f"median of {n} per-cell medians over {len(passes)} passes",
        "op_tail_s": f"p{100 * k_tail / max(n, 1):.1f} of {n} per-cell medians "
                     f"({n - k_tail} beyond)",
        "work_per_s": f"{WORK_UNIT[workload]}/s",
        "peak_rss_mb": f"median of {len(passes)} workers",
        "pass_frac": f"fail_frac = {failed / attempted:g} ({failed}/{attempted}) frac",
    }
    loop = statistics.median(op["ref"] for p in passes for op in p["ops"] if "ref" in op)
    lines = [f"  {name:<12} {value:<14.6g} {unit:<5} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    start = statistics.median(ref for _, ref in setups)
    lines.append(f"  times in reference seconds: in this run (medians) the reference loop "
                 f"took {loop * 1e3:.4g} ms (nominal {LOOP_S * 1e3:.4g}) and the "
                 f"reference start {start:.4g} s (nominal {START_S:.4g})")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(workload: str, seed: int, plain, spanned) -> tuple[dict, list[str]]:
    counts = [pass_counts(p["ops"]) for p in plain + spanned]
    completed = all("error" not in op for p in plain + spanned for op in p["ops"])
    for c in counts[1:]:
        if completed and c != counts[0]:
            diff = sorted(k for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
            raise BenchmarkBug(f"counts differ between passes of one run: {diff}")
    times = [pass_times(p["spans"]) for p in spanned]
    stat_calls = {t["lengths.stat_calls"] for t in times}
    if len(stat_calls) != 1:
        raise BenchmarkBug(f"lengths.stat_calls differs between passes: {stat_calls}")
    values = {name: 0 for name in COUNTS} | counts[0]
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    # in reference-loop units, so that a host phase does not read as overhead
    untraced = sum(op["time"] / op["ref"] for p in plain for op in p["ops"] if op["time"])
    traced = sum(op["time"] / op["ref"] for p in spanned for op in p["ops"] if op["time"])
    values["trace.overhead_frac"] = traced / untraced - 1
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps([p["spans"] for p in spanned]))
    lines = [f"  {name:<34} {values[name]:<14.6g} {PER_LAYER[name][0]}"
             for name in PER_LAYER]
    lines.append(f"  spans of {len(spanned)} traced passes written to "
                 f"{trace_file.relative_to(ROOT)}")
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coxwalk" / "__init__.py").is_file():
        print(f"error: no coxwalk package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cells = make_cells(args.workload, args.seed)
    setups, plain, spanned = run_passes(cells, args.seconds, bool(args.trace))
    passes = plain + spanned
    verdicts = judge(cells, passes)
    e2e, lines = end_to_end(args.workload, cells, setups, plain, verdicts[:len(plain)])
    attempted = len(cells) * len(passes)
    failed = attempted - sum(map(sum, verdicts))
    print(f"{args.workload} seed={args.seed}: {len(cells)} cells x {len(plain)} passes"
          + (f" (+{len(spanned)} traced)" if spanned else ""))
    if args.trace:
        try:
            metrics, layer_lines = per_layer(args.workload, args.seed, plain, spanned)
            lines += ["  per-layer, from the traced passes:"] + layer_lines
        except BenchmarkBug as exc:
            print(f"benchmark bug: {exc}", file=sys.stderr)
            return 3
    else:
        metrics = e2e
    print("\n".join(lines))
    for k, ok in enumerate(verdicts[0]):
        if not ok:
            print(f"  FAILED cell {k}: {json.dumps(cells[k])}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
