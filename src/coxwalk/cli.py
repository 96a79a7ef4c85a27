"""Command-line front end.

Subcommands:

* ``eval``   — one expectation from one engine (closed form, exact full
  distribution, exact pairwise, or Monte Carlo), as CSV or JSON.
* ``table``  — a t-grid comparing closed form, exact engine, and Monte Carlo.
* ``verify`` — run the cross-check suites; one pass/fail line per check.

Exit codes: 0 success, 1 verification failure, 2 usage error: argparse's
usage text for malformed or missing flags, and one ``error:`` line for any
``CoxwalkError`` (a rank, walk length, seed or trial count outside its
domain, a group or cell the engine does not cover, work beyond the guard).
Rationals are emitted without precision loss: "num/den" in CSV,
{"num": ..., "den": ...} with decimal strings in JSON.  The environment
variable COXWALK_GUARD_LIMIT (a decimal integer) overrides the group-order
guard.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .closedform import FORMULAS, closed_form, formula_for
from .elements import Family, Gens, GroupSpec, Measure, check_walk_rank
from .errors import CoxwalkError, OrderLimitExceeded, UnsupportedFamily
from .exactengine import (
    evolve_distribution,
    evolve_pairtable,
    expectation,
    iterate_distributions,
    make_statistic,
)
from .montecarlo import simulate


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _csv_value(value):
    """A field as CSV prints it: a rational as "num/den", None empty; csv
    writes the others (ints and strings with str, floats with repr)."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _json_value(value):
    """``json.dumps``' hook for the one field type JSON lacks, a rational: its
    {"num", "den"} as decimal strings (None and floats print natively)."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _write_csv(keys, rows) -> None:
    """The key row, then one row per value row, each field by ``_csv_value``."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([_csv_value(v) for v in row] for row in rows)


def _read_cell(args, parser):
    """The cell of the flags, (spec, gens, measure, header), header being the
    family, param, r, gens and measure fields that eval and table print.  A
    rank outside the family's domain, or D1, which has no reflections to walk
    on, raises InvalidRank for ``main`` to report before any engine or closed
    form is looked up."""
    if args.n is None:
        parser.error("--n (or --m for I2) is required")
    if args.r is not None and args.family != Family.G:
        parser.error("--r is only valid with --family G")
    spec = GroupSpec(args.family, args.n, 1 if args.r is None else args.r)
    check_walk_rank(spec.family, spec.n, spec.r)
    gens, measure = Gens(args.gens), Measure(args.measure)
    header = {"family": spec.family.value, "param": spec.n,
              "r": spec.r if spec.family == Family.G else None,
              "gens": gens.value, "measure": measure.value}
    return spec, gens, measure, header


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int, default=None, help="letters (A, G), rank (B, D), or m (I2)")
    p.add_argument("--m", type=int, default=None, dest="n", help="alias for --n under I2")
    p.add_argument("--r", type=int, default=None, help="color count, family G only")
    p.add_argument("--gens", choices=[g.value for g in Gens], default=Gens.REFLECTIONS.value)
    p.add_argument("--measure", choices=[m.value for m in Measure], default=Measure.LENGTH.value)


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", choices=FORMULAS, default="auto")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)


def _cmd_eval(args, parser) -> int:
    spec, gens, measure, header = _read_cell(args, parser)
    engine, extra = args.engine, {}
    if engine == "closed" and formula_for(spec, gens, measure, args.formula) is None:
        _warn(
            f"no closed form for family={spec.family.value} gens={gens.value} "
            f"measure={measure.value} (formula={args.formula}); falling back to exact-full"
        )
        engine = "exact-full"
    if engine != "closed":
        model = spec.element_model()
    if engine == "closed":
        res = closed_form(spec, gens, measure, args.t, args.formula)
        method, value = res.method, res.value
    elif engine == "exact-full":
        dist = evolve_distribution(model, gens, args.t)
        method, value = engine, expectation(dist, make_statistic(model, measure))
    elif engine == "exact-pair":
        if gens != Gens.REFLECTIONS or measure != Measure.LENGTH or model.family not in (
            Family.A,
            Family.B,
            Family.D,
        ):
            raise UnsupportedFamily("--engine exact-pair needs family A/B/D, reflections, length")
        method, value = engine, evolve_pairtable(model.family, model.n, args.t).expected_length()
    else:  # mc
        sim = simulate(model, gens, measure, args.t, trials=args.trials, seed=args.seed)
        method, value = engine, sim.mean
        extra = {"stderr": sim.stderr, "trials": args.trials, "seed": args.seed}
    record = {**header, "t": args.t, "method": method, "value": value, **extra}
    if args.format == "json":
        print(json.dumps(record, default=_json_value))
    else:
        _write_csv(record, [record.values()])
    return 0


_TABLE_KEYS = ("t", "closed_form", "exact", "mc_mean", "mc_stderr")


def _cmd_table(args, parser) -> int:
    spec, gens, measure, header = _read_cell(args, parser)
    model = spec.element_model()
    found = formula_for(spec, gens, measure, args.formula)
    if found is None:
        _warn("no closed form for this cell; closed_form column left empty")
    stat = make_statistic(model, measure)
    try:
        exact = [expectation(d, stat) for d in iterate_distributions(model, gens, args.t_max)]
    except OrderLimitExceeded as exc:
        _warn(f"exact engine skipped: {exc}")
        exact = [None] * (args.t_max + 1)
    rows = []
    for t in range(args.t_max + 1):
        closed = found[1](t) if found else None
        sim = simulate(model, gens, measure, t, trials=args.trials, seed=args.seed)
        rows.append((t, closed, exact[t], sim.mean, sim.stderr))
    if args.format == "json":
        rows = [dict(zip(_TABLE_KEYS, row)) for row in rows]
        print(json.dumps({**header, "trials": args.trials, "seed": args.seed, "rows": rows},
                         default=_json_value))
    else:
        _write_csv(_TABLE_KEYS, rows)
    return 0


def _cmd_verify(args, parser) -> int:
    from .verify import SUITES, run_suite

    failures = 0
    for name in args.suite or list(SUITES):
        for res in run_suite(name):
            status = "PASS" if res.ok else "FAIL"
            print(f"[{status}] {name}: {res.name} ({res.detail})")
            failures += 0 if res.ok else 1
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "eval": (_cmd_eval, "evaluate one expectation"),
    "table": (_cmd_table, "closed/exact/mc comparison over a t grid"),
    "verify": (_cmd_verify, "run cross-check suites"),
}


def _top_parser() -> argparse.ArgumentParser:
    """The ``coxwalk`` parser: only the command names and their help lines."""
    parser = argparse.ArgumentParser(
        prog="coxwalk",
        description="Expected length of products of random reflections: "
        "closed forms, exact engines, Monte Carlo, and cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return parser


@lru_cache(maxsize=len(_COMMANDS))
def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of ``coxwalk <command>``, built on the command's first call
    and shared by every later ``main`` call."""
    p = argparse.ArgumentParser(prog=f"coxwalk {command}")
    if command == "verify":
        from .verify import SUITES

        # choices reads the live mapping: every name is checked before any suite runs
        p.add_argument("--suite", action="append", choices=SUITES, metavar="SUITE",
                       help=f"suite name ({', '.join(SUITES)}); repeatable; default all")
        return p
    _add_group_flags(p)
    is_eval = command == "eval"
    p.add_argument("--t" if is_eval else "--t-max", type=int, required=True)
    _add_method_flags(p)
    if is_eval:
        p.add_argument("--engine", choices=["closed", "exact-full", "exact-pair", "mc"],
                       default="closed")
    p.add_argument("--format", choices=["csv", "json"], default="json" if is_eval else "csv")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        _top_parser().parse_args(argv)  # exits: help, or no command, or an unknown one
    parser = build_parser(argv[0])
    args = parser.parse_args(argv[1:])
    try:
        return _COMMANDS[argv[0]][0](args, parser)
    except CoxwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
