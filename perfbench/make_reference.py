"""Write reference.json: exact expected descent counts by brute force.

    PYTHONPATH=src python3 perfbench/make_reference.py

Descents cells have no closed form, so the benchmark checks them against
these rationals.  They are computed without the package's engines and
length functions: every generator word of length t is multiplied out, and
word lengths come from a breadth-first search over the simple generators.
Keys are "<family><n>-<gens>-descents"; entry t is the expectation after t
steps, for t = 0 .. the longest walk the workload can draw.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from coxwalk import Family, GroupSpec, multiply, reflections_of, simple_reflections_of

# (family, n, gens, largest t); must cover every descents cell of cells.py
CELLS = (
    ("A", 4, "reflections", 6),
    ("A", 5, "simple", 8),
    ("B", 3, "simple", 9),
    ("B", 4, "simple", 8),
    ("D", 4, "simple", 8),
)


def word_lengths(spec: GroupSpec) -> dict:
    simple = simple_reflections_of(spec)
    dist = {spec.identity(): 0}
    frontier = [spec.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for s in simple:
                ws = multiply(w, s)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


def expected_descents(spec: GroupSpec, gens: str, t_max: int) -> list[Fraction]:
    length = word_lengths(spec)
    simple = simple_reflections_of(spec)
    walk = simple if gens == "simple" else reflections_of(spec)

    def descents(w) -> int:
        return sum(1 for s in simple if length[multiply(w, s)] < length[w])

    totals = [0] * (t_max + 1)
    stack = [(spec.identity(), 0)]
    while stack:  # every word of length <= t_max, one visit per word
        w, t = stack.pop()
        totals[t] += descents(w)
        if t < t_max:
            stack.extend((multiply(w, g), t + 1) for g in walk)
    return [Fraction(total, len(walk) ** t) for t, total in enumerate(totals)]


def main() -> int:
    out = {}
    for family, n, gens, t_max in CELLS:
        values = expected_descents(GroupSpec(Family(family), n), gens, t_max)
        out[f"{family}{n}-{gens}-descents"] = [f"{v.numerator}/{v.denominator}"
                                               for v in values]
        print(f"{family}{n} {gens}: t <= {t_max}", file=sys.stderr)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
