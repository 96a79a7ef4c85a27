import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxwalk import expected_length_A_T, expected_length_B_T
from coxwalk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "B", "--n", "3", "--gens", "reflections",
        "--measure", "length", "--t", "4", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    value = Fraction(int(obj["value"]["num"]), int(obj["value"]["den"]))
    assert value == expected_length_B_T(3, 4)
    assert obj["method"] == "B_T_length"
    assert obj["family"] == "B" and obj["param"] == 3 and obj["r"] is None


def test_eval_csv(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "A", "--n", "4", "--t", "2", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("family,param,r,gens,measure,t,method,value")
    v = expected_length_A_T(4, 2)
    assert f"{v.numerator}/{v.denominator}" in row


def test_eval_m_alias_and_g_family(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "I2", "--m", "6", "--gens", "reflections",
        "--measure", "abslength", "--t", "2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert Fraction(int(obj["value"]["num"]), int(obj["value"]["den"])) == Fraction(5, 3)

    code, out, _ = run(
        capsys, "eval", "--family", "G", "--n", "2", "--r", "3",
        "--measure", "abslength", "--t", "1", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 3
    assert Fraction(int(obj["value"]["num"]), int(obj["value"]["den"])) == 1


def test_eval_engines_agree(capsys):
    args = ["--family", "D", "--n", "3", "--t", "3", "--format", "json"]
    _, closed, _ = run(capsys, "eval", *args)
    _, full, _ = run(capsys, "eval", *args, "--engine", "exact-full")
    _, pair, _ = run(capsys, "eval", *args, "--engine", "exact-pair")
    values = [json.loads(s)["value"] for s in (closed, full, pair)]
    assert values[0] == values[1] == values[2]


def test_eval_mc_fields(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "A", "--n", "5", "--t", "3",
        "--engine", "mc", "--trials", "500", "--seed", "9", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "mc"
    assert isinstance(obj["value"], float)
    assert obj["trials"] == 500 and obj["seed"] == 9 and obj["stderr"] > 0


def test_eval_fallback_warns(capsys):
    code, out, err = run(
        capsys, "eval", "--family", "B", "--n", "2", "--gens", "simple",
        "--measure", "length", "--t", "3", "--format", "json",
    )
    assert code == 0
    assert "falling back" in err
    assert json.loads(out)["method"] == "exact-full"


def test_table_row_count_and_consistency(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "A", "--n", "6", "--t-max", "10",
        "--format", "csv", "--trials", "100",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,closed_form,exact,mc_mean,mc_stderr"
    assert len(lines) == 12  # header + 11 rows
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == cells[2]  # closed_form == exact, string equality


def test_table_json(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "I2", "--m", "5", "--t-max", "3",
        "--format", "json", "--trials", "100",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 4
    for row in obj["rows"]:
        assert row["closed_form"] == row["exact"]


@pytest.mark.parametrize("group", [["--family", "G", "--r", "2", "--n", "3"],
                                   ["--family", "I2", "--m", "5"]])
def test_table_and_eval_print_one_header(capsys, group):
    cell = [*group, "--measure", "abslength", "--format", "json", "--trials", "100"]
    _, table, _ = run(capsys, "table", *cell, "--t-max", "1")
    _, one, _ = run(capsys, "eval", *cell, "--t", "1")
    table, one = json.loads(table), json.loads(one)
    header = ("family", "param", "r", "gens", "measure")
    assert [table[k] for k in header] == [one[k] for k in header]
    assert table["family"] == group[1] and table["param"] == int(group[-1])


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dihedral")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(l.startswith("[PASS]") for l in lines[:-1])
    assert lines[-1].startswith("OK")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "Z", "--n", "3", "--t", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "A", "--t", "1"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    # values outside a group's domain are CoxwalkErrors: one error line each
    capsys.readouterr()  # drop the usage text above
    for argv in (
        ["eval", "--family", "G", "--n", "3", "--r", "4", "--t", "1",
         "--engine", "exact-full"],  # no element model for r >= 3
        ["table", "--family", "G", "--n", "3", "--r", "5", "--t-max", "2"],
        ["eval", "--family", "I2", "--m", "1", "--t", "1"],
        ["eval", "--family", "G", "--n", "3", "--r", "0", "--t", "1"],
        # the pair engine covers A/B/D reflection walks measured by length
        ["eval", "--family", "I2", "--m", "4", "--t", "1", "--engine", "exact-pair"],
        ["eval", "--family", "A", "--n", "4", "--gens", "simple", "--t", "1",
         "--engine", "exact-pair"],
        ["eval", "--family", "B", "--n", "3", "--measure", "abslength", "--t", "1",
         "--engine", "exact-pair"],
    ):
        _assert_usage_error(*run(capsys, *argv))


def test_negative_t_exact_engines_exit_2(capsys):
    for argv in (
        ["eval", "--family", "A", "--n", "4", "--t", "-1", "--engine", "exact-pair"],
        ["eval", "--family", "A", "--n", "4", "--t", "-1", "--engine", "exact-full"],
        ["table", "--family", "A", "--n", "3", "--t-max", "-1", "--trials", "10"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    from coxwalk import verify
    from coxwalk.verify import CheckResult

    monkeypatch.setitem(
        verify.SUITES, "always-fails",
        (lambda: CheckResult("forced failure", False, "synthetic"),),
    )
    code, out, _ = run(capsys, "verify", "--suite", "always-fails")
    assert code == 1
    assert "[FAIL]" in out


def test_guard_env_var(capsys, monkeypatch):
    monkeypatch.setenv("COXWALK_GUARD_LIMIT", "10")
    code = main(["eval", "--family", "A", "--n", "6", "--t", "2",
                 "--engine", "exact-full"])
    err = capsys.readouterr().err
    assert code == 2
    assert "guard" in err


def _assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_negative_t_closed_form_exit_2(capsys):
    _assert_usage_error(*run(capsys, "eval", "--family", "A", "--n", "4", "--t", "-1"))


def test_mc_too_few_trials_exit_2(capsys):
    _assert_usage_error(*run(
        capsys, "eval", "--family", "A", "--n", "4", "--t", "2",
        "--engine", "mc", "--trials", "1",
    ))


def test_unparsable_guard_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("COXWALK_GUARD_LIMIT", "abc")
    code, out, err = run(capsys, "eval", "--family", "A", "--n", "4", "--t", "2",
                         "--engine", "exact-full")
    _assert_usage_error(code, out, err)
    assert "COXWALK_GUARD_LIMIT" in err


def test_negative_guard_exit_2(capsys, monkeypatch):
    # a negative guard names the variable, not a group order that exceeds it
    monkeypatch.setenv("COXWALK_GUARD_LIMIT", "-5")
    code, out, err = run(capsys, "eval", "--family", "A", "--n", "3", "--t", "1",
                         "--engine", "exact-full")
    _assert_usage_error(code, out, err)
    assert "COXWALK_GUARD_LIMIT" in err and "exceeds" not in err, err


def test_mc_seed_outside_key_range_exit_2(capsys):
    for argv in (
        ["eval", "--family", "A", "--n", "4", "--t", "2", "--engine", "mc", "--seed", "-1"],
        ["table", "--family", "A", "--n", "3", "--t-max", "2", "--trials", "10",
         "--seed", "-1"],
        ["eval", "--family", "B", "--n", "3", "--t", "2", "--engine", "mc",
         "--seed", str(2**64)],
    ):
        _assert_usage_error(*run(capsys, *argv))


def test_mc_dihedral_beyond_enumeration(capsys):
    # the I2 walk and its statistics are closed in the rank 2 * rot + flip,
    # so an order of 2 * 10**12 allocates nothing of that size; reflections
    # beyond the 2**32 choices of one draw, and ranks beyond int64, exit 2
    for argv in (
        ["eval", "--family", "I2", "--m", str(10**12), "--gens", "simple", "--t", "4",
         "--engine", "mc", "--trials", "10"],
        ["table", "--family", "I2", "--m", str(10**12), "--gens", "simple",
         "--t-max", "2", "--trials", "10"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and "Traceback" not in err
    for m in (2**32 + 1, 10**12):
        _assert_usage_error(*run(capsys, "eval", "--family", "I2", "--m", str(m), "--t", "4",
                                 "--engine", "mc", "--trials", "10"))
    _assert_usage_error(*run(capsys, "eval", "--family", "I2", "--m", str(2**62), "--gens",
                             "simple", "--t", "4", "--engine", "mc", "--trials", "10"))


def test_mc_runs_beyond_enumeration(capsys):
    # absolute length in B11 and D12 and length in I2(10^7) have no
    # per-element table to fill
    for argv in (
        ["--family", "B", "--n", "11", "--measure", "abslength"],
        ["--family", "D", "--n", "12", "--measure", "abslength"],
        ["--family", "I2", "--m", str(10**7), "--gens", "simple"],
    ):
        code, out, err = run(capsys, "eval", *argv, "--t", "6", "--engine", "mc",
                             "--trials", "200")
        assert code == 0 and err == "", argv
        assert json.loads(out)["method"] == "mc"


def test_table_past_decimal_orders_skips_the_exact_engine(capsys):
    # A10000 has an order of 35660 digits, more than Python writes in
    # decimal: the refusal gives its bit length, and the closed form and
    # Monte Carlo fill their columns.  Simple generators, as Monte Carlo
    # would list all 5 * 10^7 reflections of A10000
    code, out, err = run(capsys, "table", "--family", "A", "--n", "10000", "--gens", "simple",
                         "--t-max", "3", "--trials", "2")
    assert code == 0 and "Traceback" not in err
    assert "exact engine skipped: group order of 118459 bits exceeds guard" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "closed_form", "exact", "mc_mean", "mc_stderr"]
    assert [row[1] for row in rows[1:]] == ["0/1", "1/1", "19996/9999",
                                             "2998500289979/999700029999"]
    assert [row[2] for row in rows[1:]] == [""] * 4


def test_mc_counts_generators_before_listing_them(capsys, monkeypatch):
    # B100000 has 10^10 reflections, past the 2^32 choices of one draw; it
    # is refused from their count, before any of the n^2 moves is listed
    def no_moves(spec, gens):
        raise AssertionError("moves listed before the size check")

    monkeypatch.setattr("coxwalk.elements.generator_moves", no_moves)
    code, out, err = run(capsys, "eval", "--family", "B", "--n", "100000", "--t", "2",
                         "--engine", "mc")
    _assert_usage_error(code, out, err)
    assert err == "error: at most 2**32 generators per draw, got 10000000000\n"


def test_no_generators_names_the_group(capsys):
    # D1 has no reflections: every engine and table refuse it with one
    # message, and no missing-closed-form warning before it
    d1 = ("--family", "D", "--n", "1")
    for argv in [("eval", *d1, "--t", "2", "--engine", engine)
                 for engine in ("closed", "exact-full", "exact-pair", "mc")
                 ] + [("table", *d1, "--t-max", "2")]:
        code, out, err = run(capsys, *argv)
        _assert_usage_error(code, out, err)
        assert err == "error: family D needs n >= 2\n", argv


def test_parser_built_once(monkeypatch):
    # each command's parser is built on the command's first call and reused;
    # a call of one command builds no other command's parser
    import argparse
    from types import SimpleNamespace

    from coxwalk import cli

    built = []

    class Recording(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Recording))
    try:
        for _ in range(2):
            assert main(["eval", "--family", "A", "--n", "4", "--t", "2"]) == 0
        assert built == ["coxwalk eval"]
        assert main(["table", "--family", "A", "--n", "3", "--t-max", "1",
                     "--trials", "10"]) == 0
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(["verify", "--suite", "nosuch"])
        assert built == ["coxwalk eval", "coxwalk table", "coxwalk verify"]
        assert cli.build_parser("eval") is cli.build_parser("eval")
    finally:
        cli.build_parser.cache_clear()


HELP = {
    (): """\
usage: coxwalk [-h] {eval,table,verify} ...

Expected length of products of random reflections: closed forms, exact
engines, Monte Carlo, and cross-checks.

positional arguments:
  {eval,table,verify}
    eval               evaluate one expectation
    table              closed/exact/mc comparison over a t grid
    verify             run cross-check suites

options:
  -h, --help           show this help message and exit
""",
    ("eval",): """\
usage: coxwalk eval [-h] --family {A,B,D,I2,G} [--n N] [--m N] [--r R]
                    [--gens {simple,reflections}]
                    [--measure {length,abslength,descents}] --t T
                    [--formula {auto,eriksen,bm,troili,eh,paper}]
                    [--trials TRIALS] [--seed SEED]
                    [--engine {closed,exact-full,exact-pair,mc}]
                    [--format {csv,json}]

options:
  -h, --help            show this help message and exit
  --family {A,B,D,I2,G}
  --n N                 letters (A, G), rank (B, D), or m (I2)
  --m N                 alias for --n under I2
  --r R                 color count, family G only
  --gens {simple,reflections}
  --measure {length,abslength,descents}
  --t T
  --formula {auto,eriksen,bm,troili,eh,paper}
  --trials TRIALS
  --seed SEED
  --engine {closed,exact-full,exact-pair,mc}
  --format {csv,json}
""",
    ("table",): """\
usage: coxwalk table [-h] --family {A,B,D,I2,G} [--n N] [--m N] [--r R]
                     [--gens {simple,reflections}]
                     [--measure {length,abslength,descents}] --t-max T_MAX
                     [--formula {auto,eriksen,bm,troili,eh,paper}]
                     [--trials TRIALS] [--seed SEED] [--format {csv,json}]

options:
  -h, --help            show this help message and exit
  --family {A,B,D,I2,G}
  --n N                 letters (A, G), rank (B, D), or m (I2)
  --m N                 alias for --n under I2
  --r R                 color count, family G only
  --gens {simple,reflections}
  --measure {length,abslength,descents}
  --t-max T_MAX
  --formula {auto,eriksen,bm,troili,eh,paper}
  --trials TRIALS
  --seed SEED
  --format {csv,json}
""",
    ("verify",): """\
usage: coxwalk verify [-h] [--suite SUITE]

options:
  -h, --help     show this help message and exit
  --suite SUITE  suite name (typeA, typeB, typeD, dihedral, known-formulas,
                 operators, montecarlo); repeatable; default all
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=["coxwalk", "eval", "table", "verify"])
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


TOP_USAGE = "usage: coxwalk [-h] {eval,table,verify} ...\n"
EVAL_USAGE = "usage: coxwalk eval [-h] --family {A,B,D,I2,G} [--n N] [--m N] [--r R]\n"
EVAL_ARGS = ["eval", "--family", "A", "--n", "4", "--t", "2"]


@pytest.mark.parametrize("argv, usage, message", [
    ([], TOP_USAGE, "coxwalk: error: the following arguments are required: command"),
    (["nosuch"], TOP_USAGE, "coxwalk: error: argument command: invalid choice: 'nosuch'"),
    (["eval", "--family", "Z", "--n", "3", "--t", "1"], EVAL_USAGE,
     "coxwalk eval: error: argument --family: invalid choice: 'Z'"),
    (["eval", "--family", "A", "--n", "3"], EVAL_USAGE,
     "coxwalk eval: error: the following arguments are required: --t"),
    ([*EVAL_ARGS, "--bogus"], EVAL_USAGE,
     "coxwalk eval: error: unrecognized arguments: --bogus"),
    (["eval", "--family", "A", "--n", "x", "--t", "1"], EVAL_USAGE,
     "coxwalk eval: error: argument --n: invalid int value: 'x'"),
    (["table", "--family", "A", "--n", "3", "--t-max", "1.5"],
     "usage: coxwalk table [-h] --family {A,B,D,I2,G} [--n N] [--m N] [--r R]\n",
     "coxwalk table: error: argument --t-max: invalid int value: '1.5'"),
    # errors raised after parsing name the command's usage too
    (["eval", "--family", "A", "--t", "1"], EVAL_USAGE,
     "coxwalk eval: error: --n (or --m for I2) is required"),
    ([*EVAL_ARGS, "--r", "2"], EVAL_USAGE,
     "coxwalk eval: error: --r is only valid with --family G"),
], ids=["no-command", "unknown-command", "bad-choice", "missing-flag", "unknown-flag",
        "non-integer", "table-non-integer", "missing-n", "r-outside-G"])
def test_usage_error_lines(capsys, argv, usage, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(usage), err
    assert err.splitlines()[-1].startswith(message), err


def test_verify_checks_every_suite_name_first(capsys):
    # a bad name anywhere in the list stops the command before any suite runs
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "dihedral", "--suite", "nosuch"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: coxwalk verify [-h] [--suite SUITE]\n")
    assert "invalid choice: 'nosuch'" in err


def test_eval_does_not_import_verify():
    # a fresh interpreter: importing the CLI and running eval or table leaves
    # the verify suites unimported
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import contextlib, io, sys\n"
        "import coxwalk.cli\n"
        "assert 'coxwalk.verify' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    coxwalk.cli.main(['eval', '--family', 'A', '--n', '4', '--t', '2'])\n"
        "    coxwalk.cli.main(['table', '--family', 'A', '--n', '3', '--t-max', '1',"
        " '--trials', '10'])\n"
        "assert 'coxwalk.verify' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _rarely(draw, value, other):
    """other one time in ten, else value."""
    return other if draw(st.integers(0, 9)) == 0 else value


@st.composite
def cli_argv(draw):
    """Command lines over every subcommand, formula and engine, with small
    groups and walks, and now and then a value outside its domain."""
    command = draw(st.sampled_from(["eval", "table", "verify"]))
    if command == "verify":
        names = ["dihedral", "known-formulas", _rarely(draw, "dihedral", "nosuch")]
        suites = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        return ["verify"] + [a for name in suites for a in ("--suite", name)]
    family = draw(st.sampled_from(["A", "B", "D", "I2", "G"]))
    argv = [command, "--family", family]
    n = draw(st.integers(-1, 12 if family == "I2" else 5))
    argv += _rarely(draw, ["--m" if family == "I2" else "--n", str(n)], [])
    r = [] if family != "G" else ["--r", str(draw(st.integers(1, 4)))]
    argv += _rarely(draw, r, ["--r", str(draw(st.integers(-1, 4)))])
    argv += ["--gens", draw(st.sampled_from(["simple", "reflections"]))]
    argv += ["--measure", draw(st.sampled_from(["length", "abslength", "descents"]))]
    argv += ["--t" if command == "eval" else "--t-max", str(draw(st.integers(-2, 40)))]
    argv += ["--formula", draw(st.sampled_from(["auto", "eriksen", "bm", "troili", "eh",
                                                "paper"]))]
    if command == "eval":
        argv += ["--engine", draw(st.sampled_from(["closed", "exact-full", "exact-pair",
                                                   "mc"]))]
    argv += ["--trials", str(draw(st.integers(-1, 200)))]
    seed = draw(st.sampled_from([0, 1, 2**63, 2**64 - 1]))
    argv += ["--seed", str(_rarely(draw, seed, draw(st.sampled_from([-1, 2**64]))))]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv + _rarely(draw, [], draw(st.sampled_from([["--t", "x"], ["--bogus"]])))


@settings(max_examples=60, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    assert "Traceback" not in err.getvalue()
