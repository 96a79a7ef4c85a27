"""Self-test of the benchmark's checks: a corrupted value counts as a failure.

    python3 perfbench/selftest.py

For every workload it evaluates a reduced cell list once, requires every
clean result to pass its check, then corrupts one result of each op kind,
a later pass that differs from the first, and an op that raised, and
requires each to be counted as failed.  Exits 1 if any case is misjudged.
"""
from __future__ import annotations

import copy
import math
import sys

import run
from cells import WORKLOADS, make_cells


def small(cell: dict) -> bool:
    """Cheap cells only: the self-test needs results, not timings."""
    op = cell["op"]
    if op.startswith("pair"):
        return cell["n"] <= 6
    if op == "full":
        return cell["family"] == "I2" or cell["n"] <= 4
    if op == "mc":
        return cell["t"] <= 200
    return cell["t"] <= 100


def bump(text: str) -> str:
    """A nearby but different value in the worker's exact text form."""
    if "/" in text:
        num, den = text.split("/")
        return f"{int(num) + 1}/{den}"
    return math.nextafter(float.fromhex(text), math.inf).hex()


def corruptions(cells: list[dict], ops: list[dict]):
    """(label, op index, corrupted result) per op kind present."""
    seen = set()
    for k, (cell, op) in enumerate(zip(cells, ops)):
        kind = cell["op"] if cell.get("workers", 1) == 1 else "mc-workers2"
        if kind in seen:
            continue
        seen.add(kind)
        r = copy.deepcopy(op["result"])
        if kind == "pair-sweep":
            r["rows"][-1][0] = bump(r["rows"][-1][0])
        elif kind == "pair-final":
            r["length"] = bump(r["length"])
        elif kind == "full":
            r["values"][-1] = bump(r["values"][-1])
        elif kind == "mc":
            r["mean"] = (float.fromhex(r["mean"]) + 10 * float.fromhex(r["stderr"]) + 1).hex()
        elif kind == "mc-workers2":
            r["stderr"] = bump(r["stderr"])  # one ulp: must be bit-identical
        else:
            r["value"] = bump(r["value"])
        yield kind, k, r


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        cells = [c for c in make_cells(workload, 0) if small(c)]
        _, out = run.spawn({"cells": cells, "trace": 0, "setup_only": False})
        clean = run.judge(cells, [out])[0]
        if not all(clean):
            print(f"FAIL {workload}: clean results judged failed: "
                  f"{[k for k, ok in enumerate(clean) if not ok]}")
            bad += 1
        for label, k, result in corruptions(cells, out["ops"]):
            broken = copy.deepcopy(out)
            broken["ops"][k]["result"] = result
            first = run.judge(cells, [broken])[0][k]
            later = run.judge(cells, [out, broken])[1][k]
            caught = not first and not later
            print(f"{'ok  ' if caught else 'FAIL'} {workload}: corrupted {label} "
                  f"result counted as failed (first pass: {not first}, later pass: {not later})")
            bad += not caught
        raised = copy.deepcopy(out)
        raised["ops"][0] = {"time": None, "error": "RuntimeError: injected"}
        caught = not run.judge(cells, [raised])[0][0]
        print(f"{'ok  ' if caught else 'FAIL'} {workload}: an op that raised counted as failed")
        bad += not caught
    print("self-test", "passed" if bad == 0 else f"FAILED ({bad} case(s))")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
