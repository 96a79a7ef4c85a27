"""Evaluate one pass of a workload in a fresh interpreter.

Protocol: the parent writes {"cells": [...], "trace": 0|1, "setup_only":
bool} to stdin and closes it.  The worker imports coxwalk, builds the cells'
inputs and prints "ready"; the parent times spawn-to-ready as set-up.  It
then evaluates every cell, timing each one and the reference loop
(hostspeed.py) between cells, and prints one JSON line with the per-cell times,
the mean of the loop's times just before and after each cell, results and
work counts, its peak RSS and, when traced, the recorded spans.

Each timed region consumes its result: generators are drained and values
are computed before the clock stops.  Results are serialized, and counts
derived from them, after the clock stops.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

import coxwalk
import coxwalk.cli
from cells import row_columns
from coxwalk import Family, Gens, GroupSpec, Measure
from hostspeed import loop_time


def _q(x) -> str:
    """Exact text form of a rational or float result."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x).hex()


def _exact(values):
    """Rationals, nested in lists or dicts, in exact text form."""
    if isinstance(values, dict):
        return {k: _exact(v) for k, v in values.items()}
    if isinstance(values, list):
        return [_exact(v) for v in values]
    return _q(values)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values if isinstance(v, Fraction)),
               default=0)


class Tracer:
    """In-memory spans: name, start, end, parent index, op id, plus optional
    attributes.  ``busy`` on a span is the time it was really running, for
    records that aggregate many short calls; it defaults to end - start."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "op": self.op, **attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        """fn with every call recorded as a span named by name(result)."""
        def traced(*args, **kwargs):
            with self.span("pending") as rec:
                out = fn(*args, **kwargs)
            rec["name"] = name(out)
            return out
        return traced

    def add(self, rec: dict) -> None:
        rec.setdefault("parent", self._stack[-1] if self._stack else None)
        rec.setdefault("op", self.op)
        self.spans.append(rec)


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    spans: list = []
    op = None
    _null = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


class StatTimer:
    """The statistic callable, counting calls and their summed time."""

    def __init__(self, fn):
        self.fn, self.calls, self.busy = fn, 0, 0.0

    def __call__(self, w):
        t0 = perf_counter()
        v = self.fn(w)
        self.busy += perf_counter() - t0
        self.calls += 1
        return v


def _spans(it, tr, first: str, later: str):
    """Iterate it, with every next() call inside a span."""
    name = first
    while True:
        with tr.span(name):
            try:
                item = next(it)
            except StopIteration:
                return
        name = later
        yield item


# ---------------------------------------------------------------------------
# Evaluations.  run_* makes the calls that are timed and returns what they
# produced; record_* turns that into the result and the work counts after
# the clock stops.  prepare() builds the arguments before "ready".
# ---------------------------------------------------------------------------


def prepare(cell: dict) -> dict:
    a = dict(cell)
    fam = Family(cell["family"])
    a["family"] = fam
    if "gens" in cell:
        a["gens"], a["measure"] = Gens(cell["gens"]), Measure(cell["measure"])
        a["spec"] = GroupSpec(fam, cell["n"])
    if cell["op"] == "pair-sweep":
        a["cols"] = row_columns(cell["family"], cell["n"], cell["row"])
    if cell["op"] == "cli":
        a["argv"] = ["eval", "--family", cell["family"], "--n", str(cell["n"]),
                     "--gens", cell["gens"], "--measure", cell["measure"],
                     "--t", str(cell["t"]), "--formula", cell["formula"]]
    return a


class Context:
    """What the evaluations call through: the tracer and the entry points,
    which are wrapped when traced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.tr = Tracer() if traced else NullTracer()
        self.closed_form, self.cli_main = coxwalk.closed_form, coxwalk.cli.main
        if traced:
            def tag(res):
                return "closedform." + res.method
            self.closed_form = self.tr.wrap(coxwalk.closed_form, tag)
            # cli.main calls closed_form through its own module reference;
            # timing that call gives the cli layer's own overhead per cell
            coxwalk.cli.closed_form = self.tr.wrap(coxwalk.cli.closed_form, tag)


def run_pair_sweep(a, ctx):
    tr = ctx.tr
    it = coxwalk.iterate_pairtables(a["family"], a["n"], a["t"])
    lengths, rows, last = [], [], None
    i, cols = a["row"], a["cols"]
    for table in _spans(it, tr, "exactengine.pair.init", "exactengine.pair.step"):
        with tr.span("exactengine.pair.reduce"):
            lengths.append(table.expected_length())
        with tr.span("exactengine.pair.read"):
            rows.append([table.entry(i, j) for j in cols])
        last = table
    return {"lengths": lengths, "rows": rows}, last


def run_pair_final(a, ctx):
    with ctx.tr.span("exactengine.pair.evolve"):
        table = coxwalk.evolve_pairtable(a["family"], a["n"], a["t"])
    with ctx.tr.span("exactengine.pair.reduce"):
        value = table.expected_length()
    return {"length": value}, table


def record_pair(a, out):
    values, last = out
    updates = len(last.entries) * a["t"]
    guard = coxwalk.guard_limit()
    return _exact(values), {
        "work": updates,
        "exactengine.pair.entry_updates": updates,
        "exactengine.pair.den_bits_max": _den_bits(last.entries.values()),
        "exactengine.pair.guard_ratio": 4 * a["n"] ** 2 * max(a["t"], 1) / guard,
    }


def run_full(a, ctx):
    tr = ctx.tr
    with tr.span("lengths.table"):
        stat = coxwalk.make_statistic(a["spec"], a["measure"])
    if ctx.traced:
        stat = StatTimer(stat)
    it = coxwalk.iterate_distributions(a["spec"], a["gens"], a["t"])
    values, support = [], 0
    for dist in _spans(it, tr, "exactengine.full.setup", "exactengine.full.step"):
        with tr.span("exactengine.full.reduce"):
            if ctx.traced:
                calls, busy, t0 = stat.calls, stat.busy, perf_counter()
            values.append(coxwalk.expectation(dist, stat))
            if ctx.traced:
                tr.add({"name": "lengths.stat", "start": t0, "end": perf_counter(),
                        "busy": stat.busy - busy, "calls": stat.calls - calls})
        support = max(support, len(dist.probs))
    return values, support


def record_full(a, out):
    values, support = out
    spec = a["spec"]
    gens = (coxwalk.simple_reflections_of(spec) if a["gens"] == Gens.SIMPLE
            else coxwalk.reflections_of(spec))
    order = spec.order()
    transitions = order * len(gens) * a["t"]
    return _exact({"values": values}), {
        "work": transitions,
        "exactengine.full.group_order": order,
        "exactengine.full.transitions": transitions,
        "exactengine.full.support_max": support,
        # the engine's own work estimate against the guard
        "exactengine.full.guard_ratio": order * len(gens) * max(a["t"], 1)
        / coxwalk.guard_limit(),
    }


def run_mc(a, ctx):
    with ctx.tr.span("montecarlo.simulate", trials=a["trials"], t=a["t"],
                     workers=a["workers"]):
        return coxwalk.simulate(a["spec"], a["gens"], a["measure"], a["t"],
                                trials=a["trials"], seed=a["seed"],
                                workers=a["workers"])


def record_mc(a, sim):
    steps = a["trials"] * a["t"]
    return _exact({"mean": sim.mean, "stderr": sim.stderr}), {
        "work": steps, "montecarlo.trials": a["trials"], "montecarlo.trial_steps": steps}


def run_closed(a, ctx):
    res = ctx.closed_form(a["spec"], a["gens"], a["measure"], a["t"], a["formula"])
    return res.value, res.method


def record_closed(a, out):
    value, method = out
    return {"value": _q(value), "method": method}, {
        "work": 1, "closedform.evals": 1, "closedform.den_bits_max": _den_bits([value])}


def run_cli(a, ctx):
    buf = io.StringIO()
    with ctx.tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = ctx.cli_main(a["argv"])
    return code, buf.getvalue()


def record_cli(a, out):
    code, text = out
    rec = json.loads(text)
    value = rec["value"]
    if isinstance(value, dict):
        value = Fraction(int(value["num"]), int(value["den"]))
    result, counts = record_closed(a, (value, rec["method"]))
    return dict(result, code=code), counts


OPS = {
    "pair-sweep": (run_pair_sweep, record_pair),
    "pair-final": (run_pair_final, record_pair),
    "full": (run_full, record_full),
    "mc": (run_mc, record_mc),
    "closed": (run_closed, record_closed),
    "cli": (run_cli, record_cli),
}


def main() -> int:
    job = json.load(sys.stdin)
    args = [prepare(c) for c in job["cells"]]
    print("ready", flush=True)
    if job["setup_only"]:
        return 0
    ctx = Context(bool(job["trace"]))
    ops = []
    before = loop_time()
    for k, a in enumerate(args):
        ctx.tr.op = k
        run, record = OPS[a["op"]]
        try:
            t0 = perf_counter()
            out = run(a, ctx)
            dt = perf_counter() - t0
            after = loop_time()
            result, counts = record(a, out)
            ops.append({"time": dt, "ref": (before + after) / 2,
                        "result": result, "counts": counts})
        except Exception as exc:  # a failed evaluation is reported, not fatal
            after = loop_time()
            ops.append({"time": None, "error": f"{type(exc).__name__}: {exc}"})
        before = after
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"ops": ops, "rss_kb": rss_kb, "spans": ctx.tr.spans}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
