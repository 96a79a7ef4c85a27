"""Independent check of every evaluation, run outside the timed region.

Each result is compared with a second route to the same number:

* pair tables: every expected_length() equals the type's closed form, and
  every entry read equals its pair_prob_* value;
* full tables: every expectation equals the closed form, or for descents,
  which have no closed form, the rationals in reference.json, computed once
  by brute-force enumeration of generator words (make_reference.py);
* Monte Carlo: the mean lies within 5 standard errors of the closed form,
  and the workers=2 rerun is bit-identical to its workers=1 cell.  (At 4,
  a correct program would fail one of a run's 35 checks with probability
  0.2%, a few percent over the runs a comparison makes; at 5 it is 2e-5.)
* closed forms and ``cli eval``: eriksen, troili, eh and the I2 forms equal
  the full-distribution chain, bm is within 1e-9 of eriksen, and the A/B/D
  reflection forms equal the pairwise engine.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import coxwalk
from cells import row_columns
from coxwalk import Family, Gens, GroupSpec, Measure
from coxwalk import closedform as cf

REFERENCE = Path(__file__).with_name("reference.json")
MC_SIGMAS = 5
BM_TOL = 1e-9


def parse(text: str):
    """Inverse of the worker's exact text form."""
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return float.fromhex(text)


def reference_key(cell: dict) -> str:
    return f"{cell['family']}{cell['n']}-{cell['gens']}-{cell['measure']}"


def _spec(cell: dict) -> GroupSpec:
    return GroupSpec(Family(cell["family"]), cell["n"])


def pair_lt(family: str, n: int, i: int, j: int, t: int) -> Fraction:
    """Prob(w(i) < w(j)) from the pairwise closed forms, which give
    Prob(w(a) > w(b)) for a < b (A), b > |a| or the pair (-b, b) (B, D)."""
    if family == "A":
        return 1 - cf.pair_prob_A(n, i, j, t) if i < j else cf.pair_prob_A(n, j, i, t)
    pp = cf.pair_prob_B if family == "B" else cf.pair_prob_D
    if abs(i) == abs(j):  # (k, -k): w(k) < w(-k) iff w(-k) > w(k)
        k = abs(i)
        p = pp(n, -k, k, t)
        return p if i > 0 else 1 - p
    if abs(i) > abs(j):
        return 1 - pair_lt(family, n, j, i, t)
    if j > 0:
        return 1 - pp(n, i, j, t)
    # w(i) < w(j) iff w(-j) < w(-i), and -j > |i|
    return pp(n, -i, -j, t)


class Checker:
    """Verdicts for one pass of results; reference chains are computed once
    per group and reused across cells."""

    def __init__(self):
        self._chains: dict = {}
        self._reference = json.loads(REFERENCE.read_text())

    def chain(self, family: str, n: int, gens: str, measure: str, t: int) -> Fraction:
        key = (family, n, gens, measure)
        values = self._chains.get(key, [])
        if len(values) <= t:
            spec = GroupSpec(Family(family), n)
            stat = coxwalk.make_statistic(spec, Measure(measure))
            values = [coxwalk.expectation(d, stat)
                      for d in coxwalk.iterate_distributions(spec, Gens(gens), t)]
            self._chains[key] = values
        return values[t]

    def closed(self, cell: dict, t: int):
        return cf.closed_form(_spec(cell), Gens(cell["gens"]), Measure(cell["measure"]),
                              t).value

    def _pair(self, cell, result) -> bool:
        f, n, t = cell["family"], cell["n"], cell["t"]
        length = {"A": cf.expected_length_A_T, "B": cf.expected_length_B_T,
                  "D": cf.expected_length_D_T}[f]
        if cell["op"] == "pair-final":
            return parse(result["length"]) == length(n, t)
        if len(result["lengths"]) != t + 1:
            return False
        i = cell["row"]
        cols = row_columns(f, n, i)
        for s, (text, row) in enumerate(zip(result["lengths"], result["rows"])):
            if parse(text) != length(n, s):
                return False
            if len(row) != len(cols):
                return False
            if any(parse(v) != pair_lt(f, n, i, j, s) for v, j in zip(row, cols)):
                return False
        return True

    def _full(self, cell, result) -> bool:
        values = [parse(v) for v in result["values"]]
        if len(values) != cell["t"] + 1:
            return False
        if cell["measure"] == "descents":
            ref = self._reference[reference_key(cell)]
            return len(ref) >= len(values) and values == [parse(v) for v in ref[:len(values)]]
        return all(v == self.closed(cell, s) for s, v in enumerate(values))

    def _mc(self, cell, result, twin_result) -> bool:
        if twin_result is not None and twin_result != result:
            return False
        mean, stderr = parse(result["mean"]), parse(result["stderr"])
        return abs(mean - float(self.closed(cell, cell["t"]))) <= MC_SIGMAS * stderr

    def _formula(self, cell, result) -> bool:
        if result.get("code", 0) != 0:
            return False
        value = parse(result["value"])
        f, n, t, formula = cell["family"], cell["n"], cell["t"], cell["formula"]
        if formula == "bm":
            return abs(value - float(cf.expected_length_A_S_eriksen(n - 1, t))) <= BM_TOL
        if formula == "auto" and f != "I2":
            return value == coxwalk.evolve_pairtable(Family(f), n, t).expected_length()
        return value == self.chain(f, n, cell["gens"], cell["measure"], t)

    def verdicts(self, cells: list[dict], ops: list[dict]) -> list[bool]:
        """One verdict per op: True when it completed and agreed with its
        independent route."""
        out = []
        for k, (cell, op) in enumerate(zip(cells, ops)):
            if "error" in op:
                out.append(False)
                continue
            result, kind = op["result"], cell["op"]
            if kind.startswith("pair"):
                ok = self._pair(cell, result)
            elif kind == "full":
                ok = self._full(cell, result)
            elif kind == "mc":
                twin = None
                if cell["workers"] != 1:
                    twin = next((ops[j].get("result") for j, c in enumerate(cells)
                                 if c == dict(cell, workers=1)), None)
                ok = (cell["workers"] == 1 or twin is not None) and self._mc(cell, result, twin)
            else:
                ok = self._formula(cell, result)
            out.append(ok)
        return out
