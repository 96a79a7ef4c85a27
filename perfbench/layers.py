"""Per-layer metrics derived from one traced pass.

Spans come from the worker's own wrappers around the calls it makes into
the public functions of coxwalk; nothing inside the package is instrumented.
A span's self time is its duration minus the busy time of its children.

Every metric names the end-to-end metric and workload it should move.  Time
metrics are per pass; count metrics are per pass and repeat exactly, since
every pass of a run evaluates the same cells.
"""
from __future__ import annotations

from collections import defaultdict

# closed-form method tags, each timed as closedform.<tag>_s
CLOSED_TAGS = ("troili", "eriksen", "bm", "eh", "A_T_length", "B_T_length",
               "D_T_length", "I2_T_length", "I2_S_abslength", "I2_T_abslength")

# name -> (unit, better, what it should move)
PER_LAYER = {
    "exactengine.pair.step_s": ("s", "lower", "work_per_s, op_p50_s on pair-sweep"),
    "exactengine.pair.evolve_s": ("s", "lower", "op_p50_s, op_tail_s on pair-sweep (final-t ops)"),
    "exactengine.pair.reduce_s": ("s", "lower", "op_p50_s, op_tail_s on pair-sweep"),
    "exactengine.pair.read_s": ("s", "lower", "op_p50_s, op_tail_s on pair-sweep"),
    "exactengine.pair.entry_updates": ("count", "higher", "explains work_per_s on pair-sweep"),
    "exactengine.pair.den_bits_max": ("bits", "lower", "explains work_per_s, peak_rss_mb on pair-sweep"),
    "exactengine.pair.guard_ratio": ("ratio", "lower", "explains work_per_s, peak_rss_mb on pair-sweep"),
    "exactengine.full.setup_s": ("s", "lower", "op_p50_s, peak_rss_mb on full-table"),
    "exactengine.full.step_s": ("s", "lower", "work_per_s on full-table"),
    "exactengine.full.reduce_s": ("s", "lower", "work_per_s on full-table"),
    "exactengine.full.group_order": ("count", "higher", "explains work_per_s on full-table"),
    "exactengine.full.transitions": ("count", "higher", "explains work_per_s on full-table"),
    "exactengine.full.support_max": ("count", "lower", "explains work_per_s on full-table"),
    "exactengine.full.guard_ratio": ("ratio", "lower", "explains work_per_s on full-table"),
    "lengths.table_s": ("s", "lower", "op_tail_s on full-table (B/D abslength cells)"),
    "lengths.stat_s": ("s", "lower", "op_p50_s on full-table"),
    "lengths.stat_calls": ("count", "lower", "op_p50_s on full-table"),
    "montecarlo.simulate_s": ("s", "lower", "work_per_s on mc-grid"),
    "montecarlo.per_trial_us": ("us", "lower", "work_per_s on the short cells of mc-grid (fit)"),
    "montecarlo.per_step_ns": ("ns", "lower", "work_per_s on the long cells of mc-grid (fit)"),
    "montecarlo.workers2_ratio": ("ratio", "lower", "op_tail_s on mc-grid"),
    "montecarlo.trials": ("count", "higher", "explains work_per_s on mc-grid"),
    "montecarlo.trial_steps": ("count", "higher", "explains work_per_s on mc-grid"),
    **{f"closedform.{tag}_s": ("s", "lower",
                               "op_tail_s on closed-cli" if tag == "troili"
                               else "op_p50_s on closed-cli")
       for tag in CLOSED_TAGS},
    "closedform.evals": ("count", "higher", "explains work_per_s on closed-cli"),
    "closedform.den_bits_max": ("bits", "lower", "explains op_p50_s on closed-cli"),
    "cli.main_s": ("s", "lower", "op_p50_s on closed-cli"),
    "cli.overhead_s": ("s", "lower", "op_p50_s on closed-cli"),
    "trace.overhead_frac": ("frac", "lower", "none; guards the traced run"),
}

# span name -> (metric, which time of the span is summed)
_SPAN_TIMES = {
    "exactengine.pair.step": ("exactengine.pair.step_s", "dur"),
    "exactengine.pair.evolve": ("exactengine.pair.evolve_s", "dur"),
    "exactengine.pair.reduce": ("exactengine.pair.reduce_s", "dur"),
    "exactengine.pair.read": ("exactengine.pair.read_s", "dur"),
    "exactengine.full.setup": ("exactengine.full.setup_s", "dur"),
    "exactengine.full.step": ("exactengine.full.step_s", "dur"),
    "exactengine.full.reduce": ("exactengine.full.reduce_s", "self"),
    "lengths.table": ("lengths.table_s", "dur"),
    "lengths.stat": ("lengths.stat_s", "busy"),
    "montecarlo.simulate": ("montecarlo.simulate_s", "dur"),
    "cli.main": ("cli.main_s", "dur"),
    **{f"closedform.{tag}": (f"closedform.{tag}_s", "dur") for tag in CLOSED_TAGS},
}

# count -> how ops combine: summed work or a maximum over the pass
COUNTS = {
    "exactengine.pair.entry_updates": sum,
    "exactengine.pair.den_bits_max": max,
    "exactengine.pair.guard_ratio": max,
    "exactengine.full.group_order": max,
    "exactengine.full.transitions": sum,
    "exactengine.full.support_max": max,
    "exactengine.full.guard_ratio": max,
    "montecarlo.trials": sum,
    "montecarlo.trial_steps": sum,
    "closedform.evals": sum,
    "closedform.den_bits_max": max,
}


def pass_counts(ops: list[dict]) -> dict:
    """The pass's count metrics, combined over its completed ops."""
    per: dict = defaultdict(list)
    for op in ops:
        for name, value in op.get("counts", {}).items():
            if name in COUNTS:
                per[name].append(value)
    return {name: COUNTS[name](values) for name, values in per.items()}


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the busy time of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s.get("busy", s["end"] - s["start"])
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def _mc_fit(spans: list[dict]) -> tuple[float, float]:
    """Least-squares fit time = a * trials + b * trial_steps over the
    workers=1 simulate calls (no intercept); returns (a, b) in seconds."""
    xs = [(s["trials"], s["trials"] * s["t"], s["end"] - s["start"])
          for s in spans if s["name"] == "montecarlo.simulate" and s["workers"] == 1]
    s11 = sum(x1 * x1 for x1, _, _ in xs)
    s12 = sum(x1 * x2 for x1, x2, _ in xs)
    s22 = sum(x2 * x2 for _, x2, _ in xs)
    b1 = sum(x1 * y for x1, _, y in xs)
    b2 = sum(x2 * y for _, x2, y in xs)
    det = s11 * s22 - s12 * s12
    if not xs or det == 0:
        return 0.0, 0.0
    return (b1 * s22 - b2 * s12) / det, (s11 * b2 - s12 * b1) / det


def _workers2_ratio(spans: list[dict]) -> float:
    sims = [s for s in spans if s["name"] == "montecarlo.simulate"]
    for s in sims:
        if s["workers"] != 1:
            for twin in sims:
                if twin["workers"] == 1 and (twin["trials"], twin["t"]) == (s["trials"], s["t"]):
                    return (s["end"] - s["start"]) / (twin["end"] - twin["start"])
    return 0.0


def pass_times(spans: list[dict]) -> dict:
    """The pass's time metrics from its spans; layers the pass did not enter
    read 0."""
    out = {name: 0.0 for name, (unit, _, _) in PER_LAYER.items()
           if unit in ("s", "us", "ns", "ratio") and name not in COUNTS}
    selfs = self_times(spans)
    calls = 0
    for s, self_t in zip(spans, selfs):
        target = _SPAN_TIMES.get(s["name"])
        if target is None:
            continue
        metric, which = target
        dur = s["end"] - s["start"]
        out[metric] += {"dur": dur, "self": self_t, "busy": s.get("busy", dur)}[which]
        if s["name"] == "cli.main":
            out["cli.overhead_s"] += self_t
        calls += s.get("calls", 0)
    out["lengths.stat_calls"] = calls
    per_trial, per_step = _mc_fit(spans)
    out["montecarlo.per_trial_us"] = per_trial * 1e6
    out["montecarlo.per_step_ns"] = per_step * 1e9
    out["montecarlo.workers2_ratio"] = _workers2_ratio(spans)
    return out
