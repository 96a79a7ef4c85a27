"""Workload definitions: the fixed list of cells each workload evaluates.

A cell is one evaluation, a call chain that yields one expectation or one
table.  The structure of every list is fixed; the seed only picks, within
fixed bands, the walk length t of a cell, the row of pair entries read and
the Monte Carlo seeds.  The bands are narrow (t0 // 10 either side, fewer for
closed forms, none for pair tables, whose mid-sized cells sit at the median)
and Monte Carlo keeps trials x t fixed, so that a cell's cost barely depends
on the seed and runs with different seeds stay comparable.  No cell repeats
within a list, so the package's module-level caches fill as they would in one
real ``table`` or ``verify`` run.  Cells are plain JSON-able dicts: the worker process receives only them.

This module imports nothing from coxwalk.
"""
from __future__ import annotations

import random

WHY = {
    "pair-sweep": "pairwise exact engine on A/B/D from small ranks to beyond "
    "enumeration; the per-step rational update dominates",
    "full-table": "full-distribution engine drained over t = 0..T with every "
    "measure; setup, steps, reduction and statistic tables all work",
    "mc-grid": "seeded Monte Carlo on closed-form cells; short walks are "
    "per-trial bound, long walks per-step bound",
    "closed-cli": "closed forms over t-grids through closed_form and through "
    "cli.main eval; the only workload timing those two layers",
}

# unit of the work counted by work_per_s
WORK_UNIT = {
    "pair-sweep": "pair-entry-updates",
    "full-table": "element-generator-transitions",
    "mc-grid": "trial-steps",
    "closed-cli": "evaluations",
}

WORKLOADS = tuple(WHY)


def _jitter(rng: random.Random, t0: int, band: int | None = None) -> int:
    """t0 moved by at most band (default t0 // 10) either way."""
    band = t0 // 10 if band is None else band
    return t0 + rng.randint(-band, band)


# (family, rank, t).  Walks have length about n up to rank 10 to 12; the
# larger ranks take shorter walks, and few ranks lie between 16 and the
# largest, so that a pass stays near 2 s and a run repeats every cell often
# enough for its best time to be steady.
_PAIR = (
    [("A", n, t) for n, t in ((3, 3), (4, 4), (5, 5), (6, 6), (8, 8), (10, 10),
                               (12, 12), (16, 10), (24, 6), (40, 4))]
    + [(f, n, t) for f in ("B", "D")
       for n, t in ((2, 3), (3, 3), (4, 4), (5, 5), (6, 6), (8, 8), (10, 8),
                    (16, 5), (28, 3))]
)


def row_columns(family: str, n: int, i: int) -> list[int]:
    """The j of every pair-table entry (i, j) in row i."""
    idx = range(1, n + 1) if family == "A" else range(-n, n + 1)
    return [j for j in idx if j and j != i and (family != "D" or abs(j) != abs(i))]


def _pair_cells(rng: random.Random) -> list[dict]:
    cells = []
    for k, (family, n, t) in enumerate(_PAIR):
        if family == "A":
            row = rng.randint(1, n)
        else:
            row = rng.choice([i for i in range(-n, n + 1) if i != 0])
        cells.append({"op": "pair-sweep" if k % 2 == 0 else "pair-final",
                      "family": family, "n": n, "t": t, "row": row})
    return cells


# (family, n, gens, measure, nominal T)
_FULL = (
    [("I2", m, "simple", "length", 24) for m in (3, 4, 5, 6, 7, 8, 12)]
    + [("I2", m, "reflections", "length", 12) for m in (5, 6, 9)]
    + [("I2", m, "simple", "abslength", 16) for m in (4, 7)]
    + [("I2", m, "reflections", "abslength", 12) for m in (5, 8)]
    + [
        ("A", 4, "reflections", "descents", 5),
        ("A", 5, "reflections", "length", 8),
        ("A", 5, "simple", "length", 8),
        ("A", 5, "reflections", "abslength", 6),
        ("A", 5, "simple", "descents", 7),
        ("A", 6, "reflections", "length", 6),
        ("A", 6, "simple", "length", 8),
        ("A", 6, "reflections", "abslength", 5),
        ("A", 7, "simple", "length", 6),
        ("B", 3, "reflections", "length", 8),
        ("B", 3, "reflections", "abslength", 8),
        ("B", 3, "simple", "descents", 8),
        ("B", 4, "reflections", "length", 6),
        ("B", 4, "reflections", "abslength", 6),
        ("B", 4, "simple", "descents", 7),
        ("B", 5, "reflections", "length", 4),
        ("B", 5, "reflections", "abslength", 3),
        ("D", 4, "reflections", "length", 8),
        ("D", 4, "simple", "descents", 7),
        ("D", 5, "reflections", "length", 5),
    ]
)


def _full_cells(rng: random.Random) -> list[dict]:
    return [
        {"op": "full", "family": f, "n": n, "gens": g, "measure": m,
         "t": _jitter(rng, t0)}
        for f, n, g, m, t0 in _FULL
    ]


# (family, n, gens, measure, nominal t, trials); every cell has a closed form
_MC_SHORT = (
    [("A", n, "reflections", "length", t, 6000) for n, t in ((4, 2), (5, 3), (6, 3), (8, 5))]
    + [("A", n, "simple", "length", t, 5000) for n, t in ((4, 4), (5, 6), (7, 8))]
    + [("A", n, "reflections", "abslength", t, 5000) for n, t in ((5, 3), (6, 4))]
    + [("B", n, "reflections", "length", t, 5000) for n, t in ((3, 3), (4, 4), (6, 6))]
    + [("B", 3, "reflections", "abslength", 3, 5000)]
    + [("D", n, "reflections", "length", t, 5000) for n, t in ((4, 5), (5, 4), (6, 7))]
    + [("I2", 7, "simple", "length", 9, 6000), ("I2", 8, "simple", "abslength", 8, 6000),
       ("I2", 5, "reflections", "length", 6, 6000)]
)
_MC_LONG = (
    [("A", n, "reflections", "length", t, trials)
     for n, t, trials in ((16, 160, 1800), (20, 200, 1500), (30, 300, 1000), (40, 400, 600))]
    + [("A", 24, "reflections", "abslength", 240, 1200),
       ("A", 12, "simple", "length", 150, 2000), ("A", 20, "simple", "length", 300, 1000)]
    + [("B", n, "reflections", "length", t, trials)
       for n, t, trials in ((12, 150, 2000), (20, 400, 800), (30, 300, 1000))]
    + [("D", n, "reflections", "length", t, trials)
       for n, t, trials in ((12, 120, 2400), (16, 250, 1200), (24, 300, 1000))]
    + [("I2", 9, "simple", "length", 100, 3000), ("I2", 10, "simple", "abslength", 100, 3000),
       ("I2", 12, "reflections", "length", 200, 1500)]
)


def _mc_cells(rng: random.Random) -> list[dict]:
    cells = []
    for f, n, g, m, t0, trials in _MC_SHORT + _MC_LONG:
        t = _jitter(rng, t0)
        cells.append({"op": "mc", "family": f, "n": n,
                      "gens": g, "measure": m, "t": t,
                      "trials": round(trials * t0 / t),
                      "seed": rng.getrandbits(32), "workers": 1})
    # the rerun with two workers must reproduce the first long cell exactly
    twin = dict(cells[len(_MC_SHORT)], workers=2)
    cells.append(twin)
    return cells


# (formula tag, family, n, gens, measure, nominal t grid)
_CLOSED = (
    [("troili", "I2", m, "simple", "length", (120, 480, 960)) for m in (5, 6, 7, 8)]
    + [("troili", "I2", m, "simple", "length", (720,)) for m in (9, 10)]
    + [("eriksen", "A", n, "simple", "length", (10, 20, 40)) for n in (3, 4, 5, 6)]
    + [("bm", "A", n, "simple", "length", (10, 40)) for n in (4, 6, 9)]
    + [
        ("eh", "A", 5, "reflections", "abslength", (6, 12)),
        ("eh", "B", 3, "reflections", "abslength", (6, 12)),
        ("eh", "B", 4, "reflections", "abslength", (8,)),
        ("auto", "A", 10, "reflections", "length", (12, 24)),
        ("auto", "B", 6, "reflections", "length", (10, 20)),
        ("auto", "D", 7, "reflections", "length", (10, 20)),
        ("auto", "I2", 7, "reflections", "length", (15, 16)),
        ("auto", "I2", 9, "reflections", "abslength", (9, 10)),
        ("auto", "I2", 6, "simple", "abslength", (30, 60)),
    ]
)


def _closed_cells(rng: random.Random) -> list[dict]:
    cells = []
    for k, (formula, f, n, g, m, grid) in enumerate(_CLOSED):
        for j, t0 in enumerate(grid):
            t = _jitter(rng, t0, min(2, t0 // 10))
            cells.append({"op": "cli" if (k + j) % 2 else "closed",
                          "formula": formula, "family": f, "n": n,
                          "gens": g, "measure": m, "t": t})
    return cells


_MAKERS = {
    "pair-sweep": _pair_cells,
    "full-table": _full_cells,
    "mc-grid": _mc_cells,
    "closed-cli": _closed_cells,
}


def make_cells(workload: str, seed: int) -> list[dict]:
    """The cell list of one pass of the workload for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)
