r"""Wall times of the routes that no perfbench workload covers, for one or
more source trees, written to BENCH_statistics.json (or --out).

    python3 scripts/bench_statistics.py --tree before=/path/to/old/src --tree after=src

Each route is one ``coxwalk`` command line (``eval``, ``table`` or
``verify``), run through ``cli.main`` in a fresh interpreter with the tree on
PYTHONPATH; the time is the median of --repeats runs of ``cli.main`` alone (interpreter start and imports
excluded), and each run also records the child's peak RSS (``ru_maxrss``,
interpreter and imports included).  The child also times perfbench's
host-speed reference loop (``perfbench/hostspeed.py``, imported read-only)
just before and just after ``cli.main``; the route's time over the mean of
the two, times the loop's nominal ``LOOP_S``, is its time in reference
seconds, recorded beside the plain time as perfbench records its
evaluations.  Reference seconds follow the speed of a shared host, whose
phases move plain times between runs of the same tree.  Within each
repeat the trees take turns, and the tree that goes first alternates
between repeats, so a slow phase of a shared host falls on every tree
alike.  Each tree's modules are compiled to bytecode (``compileall``)
before its first child: where PYTHONDONTWRITEBYTECODE is set, a tree whose
bytecode is stale or missing would recompile its modules in every child,
and the children's peak RSS would differ by that work alone, not by the
code.  A route a tree refuses
is recorded as "refused (exit 2)" with its error line.  Where two trees
both run a route, their printed values must agree exactly, or the script
exits 1.

The exact-pair routes run most of their steps on Python-int numerators: the
pair engine's last int64 table is t = 5 in A60, B60 and D40 and t = 4 in
B120.  perfbench's pair-sweep crosses too, but only in A12 (t >= 11) and A16
(t >= 9): 4 of its 158 steps and about 6 % of its step time, so a slower
Python-int step barely moves its work_per_s.  The exact A7, B5 and D5 walks
time the full engine's Python-int steps (its last int64 table is t = 14, 13
and 14), which perfbench's full-table, held in int64, never reaches.  The
exact A8 t=1, B6 t=1 and D6 t=2 walks are dominated by the full engine's
set-up (ranking the group and building its action tables), and are the
largest such walks the default guard admits in each family.  The troili
routes time Troili's closed form beyond perfbench's closed-cli grid
(m <= 10, t <= 960): a long walk in a small group, a large m whose images
reach the walk, and m >= t, where none does.  The eriksen routes time
Eriksen's expansion for A9 simple generators at t = 400 with cold factor
caches, far past closed-cli's grid (n <= 6, t <= 40); A6 at t = 1000 is a
longer walk still, where the big-integer terms of one evaluation dominate.  The mc
routes time Monte Carlo: A40 and B20 at t = 400 are long walks whose trials
fill one block, so the per-step cost dominates; I2(12) reflections at
t = 200 is a walk where the cost is all stream words (its moves are sums);
A10 at t = 5 over 10^5 trials is per-trial bound; B6 at t = 6 over 5000
trials is a short walk like perfbench's mc-grid median cells, where a
statistic summed along the rows of the state takes about half the time;
B11/D12 absolute length and I2(10^7) show the peak RSS of wide states
and large ranks; and A1000 at t = 3 over 2 trials is all set-up, the
listing of its 499 500 reflection moves.  The cli route is A10 length at t = 12, an O(1) closed form, so its time is all
``cli.main``: each child's one call builds the eval parser, as the first
call of every process does.  The eh routes time Eriksen and Hultman's
expansion for A12 and B9 absolute length at t = 200, far past closed-cli's
grid (A5, B3, B4, t <= 12).  The table routes time ``coxwalk table``,
which no perfbench workload runs: A40 over t <= 100 with 5000 trials is one
Monte Carlo run per t (A40 is past the exact engine's guard, so that column
is empty), the baseline of a single walk for every t; G(2,1,3) absolute
length in JSON prints the G header and the closed form, exact engine and
Monte Carlo columns.  Their value is the whole stdout, so two trees must
print the same bytes.  The verify routes time the typeA, typeB,
typeD and operators suites, which no perfbench workload runs: pair engine,
full engine, closed forms, the pair theorem's checks and its proof on a basis
of the pair tables, and the Q identities on the same basis; their value is
the suite's stdout, one line per check with its comparison count.

    python3 scripts/bench_statistics.py --tree before=/path/to/old/src \
        --tree after=src --only troili --repeats 11 --out BENCH_closed.json

runs only the routes whose name contains "troili"; --only repeats, and
then a route runs if its name contains any of the texts.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROUTES = {
    "exact A8 t=6 descents": ["eval", "--family", "A", "--n", "8", "--measure", "descents",
                              "--t", "6", "--engine", "exact-full"],
    "exact B6 t=6 abslength": ["eval", "--family", "B", "--n", "6", "--measure", "abslength",
                               "--t", "6", "--engine", "exact-full"],
    "exact A8 t=1 length": ["eval", "--family", "A", "--n", "8", "--measure", "length",
                            "--t", "1", "--engine", "exact-full"],
    "exact B6 t=1 length": ["eval", "--family", "B", "--n", "6", "--measure", "length",
                            "--t", "1", "--engine", "exact-full"],
    "exact D6 t=2 length": ["eval", "--family", "D", "--n", "6", "--measure", "length",
                            "--t", "2", "--engine", "exact-full"],
    "exact A7 t=90 length": ["eval", "--family", "A", "--n", "7", "--measure", "length",
                             "--t", "90", "--engine", "exact-full"],
    "exact B5 t=60 abslength": ["eval", "--family", "B", "--n", "5", "--measure", "abslength",
                                "--t", "60", "--engine", "exact-full"],
    "exact D5 t=100 length": ["eval", "--family", "D", "--n", "5", "--measure", "length",
                              "--t", "100", "--engine", "exact-full"],
    "mc B11 t=20 abslength": ["eval", "--family", "B", "--n", "11", "--measure", "abslength",
                              "--t", "20", "--engine", "mc", "--trials", "10000"],
    "mc D12 t=20 abslength": ["eval", "--family", "D", "--n", "12", "--measure", "abslength",
                              "--t", "20", "--engine", "mc", "--trials", "10000"],
    "mc I2(10^7) simple t=100 length": ["eval", "--family", "I2", "--m", str(10**7), "--gens",
                                        "simple", "--t", "100", "--engine", "mc",
                                        "--trials", "10000"],
    "mc A40 t=400 length": ["eval", "--family", "A", "--n", "40", "--t", "400", "--engine", "mc",
                            "--trials", "2000"],
    "mc B20 t=400 length": ["eval", "--family", "B", "--n", "20", "--t", "400", "--engine", "mc",
                            "--trials", "1000"],
    "mc I2(12) reflections t=200 length": ["eval", "--family", "I2", "--m", "12", "--t", "200",
                                           "--engine", "mc", "--trials", "3000"],
    "mc A10 t=5 length": ["eval", "--family", "A", "--n", "10", "--t", "5", "--engine", "mc",
                          "--trials", str(10**5)],
    "mc B6 t=6 length": ["eval", "--family", "B", "--n", "6", "--t", "6", "--engine", "mc",
                         "--trials", "5000"],
    "mc A1000 t=3 length": ["eval", "--family", "A", "--n", "1000", "--t", "3", "--engine", "mc",
                            "--trials", "2"],
    "exact-pair A60 t=60 length": ["eval", "--family", "A", "--n", "60", "--t", "60",
                                   "--engine", "exact-pair"],
    "exact-pair B60 t=60 length": ["eval", "--family", "B", "--n", "60", "--t", "60",
                                   "--engine", "exact-pair"],
    "exact-pair D40 t=60 length": ["eval", "--family", "D", "--n", "40", "--t", "60",
                                   "--engine", "exact-pair"],
    "exact-pair B120 t=150 length": ["eval", "--family", "B", "--n", "120", "--t", "150",
                                     "--engine", "exact-pair"],
    "troili I2(7) t=2000": ["eval", "--family", "I2", "--m", "7", "--gens", "simple",
                            "--t", "2000", "--formula", "troili"],
    "troili I2(500) t=960": ["eval", "--family", "I2", "--m", "500", "--gens", "simple",
                             "--t", "960", "--formula", "troili"],
    "troili I2(2001) t=2000": ["eval", "--family", "I2", "--m", "2001", "--gens", "simple",
                               "--t", "2000", "--formula", "troili"],
    "eriksen A9 t=400": ["eval", "--family", "A", "--n", "9", "--gens", "simple", "--t", "400",
                         "--formula", "eriksen"],
    "eriksen A6 t=1000": ["eval", "--family", "A", "--n", "6", "--gens", "simple", "--t", "1000",
                          "--formula", "eriksen"],
    "cli A10 t=12 length": ["eval", "--family", "A", "--n", "10", "--t", "12"],
    "eh A12 t=200": ["eval", "--family", "A", "--n", "12", "--measure", "abslength", "--t", "200",
                     "--formula", "eh"],
    "eh B9 t=200": ["eval", "--family", "B", "--n", "9", "--measure", "abslength", "--t", "200",
                    "--formula", "eh"],
    "table A40 t<=100 length": ["table", "--family", "A", "--n", "40", "--t-max", "100",
                                "--trials", "5000"],
    "table G(2,1,3) t<=8 abslength json": ["table", "--family", "G", "--r", "2", "--n", "3",
                                           "--measure", "abslength", "--t-max", "8",
                                           "--trials", "2000", "--format", "json"],
    "verify typeA": ["verify", "--suite", "typeA"],
    "verify typeB": ["verify", "--suite", "typeB"],
    "verify typeD": ["verify", "--suite", "typeD"],
    "verify operators": ["verify", "--suite", "operators"],
}

PERFBENCH = ROOT / "perfbench"

# runs in the child: times cli.main on argv[2:], between two timings of the
# reference loop of the perfbench directory argv[1], and prints one JSON line
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.append(sys.argv[1])
from hostspeed import LOOP_S, loop_time
from coxwalk.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    before = loop_time()
    t0 = time.perf_counter()
    code = main(sys.argv[2:])
    seconds = time.perf_counter() - t0
    after = loop_time()
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "seconds": seconds,
                  "ref_seconds": seconds * LOOP_S / ((before + after) / 2),
                  "peak_rss_mb": rss_mb, "out": out.getvalue(), "err": err.getvalue()}))
"""


def run_once(src: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(PERFBENCH), *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed on {argv}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(argv: list[str], runs: list[dict]) -> dict:
    first = runs[0]
    if first["code"] != 0:
        return {"result": f"refused (exit {first['code']})", "error": first["err"].strip()}
    if any(r["out"] != first["out"] for r in runs):
        raise RuntimeError(f"{argv} printed different values across reruns")
    return {"seconds": statistics.median(r["seconds"] for r in runs),
            "runs": [r["seconds"] for r in runs],
            "ref_seconds": statistics.median(r["ref_seconds"] for r in runs),
            "runs_ref_seconds": [r["ref_seconds"] for r in runs],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "runs_peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "value": json.loads(first["out"]) if argv[0] == "eval" else first["out"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                    help="a source tree (the directory holding coxwalk/); repeatable")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_statistics.json"))
    ap.add_argument("--only", action="append", default=None, metavar="TEXT",
                    help="run only the routes whose name contains TEXT; repeatable")
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    for src in trees.values():  # the children read this bytecode, and write none
        compileall.compile_dir(str(Path(src).resolve()), quiet=1)

    import numpy

    report = {
        "host": {"machine": platform.machine(), "processor": platform.processor(),
                 "cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "timing": f"median of {args.repeats} runs of cli.main in a fresh interpreter, "
                  "imports excluded; ref_seconds is the median of each run's time in "
                  "reference seconds (perfbench/hostspeed.py, the time over the mean of "
                  "the reference loop timed before and after it, times LOOP_S); "
                  "peak_rss_mb is the median of the children's ru_maxrss in MB, "
                  "interpreter and imports included",
        "routes": {},
    }
    mismatch = False
    for name, argv in ROUTES.items():
        if args.only and not any(text in name for text in args.only):
            continue
        row = {"argv": argv}
        runs = {label: [] for label in trees}
        for repeat in range(args.repeats):
            # trees take turns within each repeat, the first one alternating
            order = list(trees.items())
            for label, src in order[::-1] if repeat % 2 else order:
                runs[label].append(run_once(str(Path(src).resolve()), argv))
        for label in trees:
            row[label] = summarize(argv, runs[label])
            shown = row[label].get("seconds", row[label].get("result"))
            ref = row[label].get("ref_seconds", "")
            rss = row[label].get("peak_rss_mb", "")
            print(f"{name:34s} {label:8s} {shown} {ref} {rss}", flush=True)
        values = [r["value"] for label, r in row.items() if label != "argv" and "value" in r]
        if any(v != values[0] for v in values):
            mismatch = True
            print(f"  values differ between trees on {name}", file=sys.stderr)
        report["routes"][name] = row
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"written to {args.out}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
