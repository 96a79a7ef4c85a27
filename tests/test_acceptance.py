"""Acceptance gate: one test per criterion.

Each criterion runs the corresponding cross-check at its full grid and
tolerance (exact rational equality unless stated otherwise) and prints one
pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

from coxwalk import verify


def _run(number, check, detail):
    # detail pins the check's grid: its comparison count, so a check that
    # silently drops cells fails too
    res = check()
    status = "PASS" if res.ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {res.name} ({res.detail})")
    assert res.ok, f"criterion {number}: {res.detail}"
    assert res.detail == detail, f"criterion {number}: {res.detail}, not {detail}"


def test_criterion_01_type_a_expectation():
    # closed form == exact chain, n in 2..6, t in 0..10, exact rationals
    _run(1, verify.check_type_a_expectation, "55 equalities")


def test_criterion_02_type_a_pairwise():
    # pair probabilities == pairwise engine at every t (ranks to 40: the
    # step's fixed point and quadratic on every basis table, cells at
    # t <= 2), the closed-form length == the pair tables' sum (t to 30),
    # and pairwise engine == full-distribution marginals (n <= 6, t <= 8)
    _run(2, verify.check_type_a_pairwise, "5545 equalities")


def test_criterion_03_type_b():
    # closed forms == full distribution (n 1..4, t 0..8)
    # and == pairwise engine (ranks to 40, as in criterion 02)
    _run(3, verify.check_type_b, "10940 equalities")


def test_criterion_04_type_d():
    # same grid shape with n 2..4 on the chain side
    _run(4, verify.check_type_d, "10346 equalities")


def test_criterion_05_dihedral_closed_forms():
    # all four dihedral closed forms == exact chain, m 2..12, t 0..20
    _run(5, verify.check_dihedral_closed_forms, "924 equalities")


def test_criterion_06_known_formula_concordance():
    # binomial expansion == exact chain (gens <= 5, t <= 30, rational),
    # trigonometric expansion within 1e-9 (gens <= 8, t <= 50)
    _run(6, verify.check_known_formula_concordance, "563 equalities")


def test_criterion_07_eriksen_hultman():
    # colored formula == chains for r=1 (n <= 5) and r=2 (n <= 3), t <= 8;
    # E(0)=0 and E(1)=1 for r <= 4, n <= 6
    _run(7, verify.check_eriksen_hultman, "109 equalities")


def test_criterion_08_operator_identities():
    # Q.Q = n.Q and Q.Q = (2n-2).Q on a basis of each pair-table space at
    # every pair-engine rank (2 to 40): n(n-1)/2 tables in A, n(n-1) in B/D
    _run(8, verify.check_operator_identities, "3513 equalities")


def test_criterion_09_translation_invariance():
    # engine pair probabilities depend only on j - i, n <= 6, t <= 6
    _run(9, verify.check_translation_invariance, "140 equalities")


def test_criterion_10_monte_carlo():
    # 20-point grid, 1e5 trials, within 4 standard errors; reruns at a
    # different worker count are bit-identical
    _run(10, verify.check_montecarlo_calibration, "22 checks")


def test_criterion_11_dihedral_spot_values():
    # pinned values: m/2 (even m), 2 - 2/m (even t), 1 (odd t)
    _run(11, verify.check_dihedral_spot_values, "350 equalities")
