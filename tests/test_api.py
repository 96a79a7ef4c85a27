"""The public API: every exported name resolves, a family, generating set
or measure that names no member is refused, and every integer argument
follows one rule."""
import math
from fractions import Fraction

import numpy as np
import pytest

import coxwalk
from coxwalk import (
    DihedralElement,
    Family,
    Gens,
    GroupSpec,
    InvalidPair,
    InvalidRank,
    InvalidSeed,
    InvalidStepCount,
    InvalidTrialCount,
    InvalidTrialIndex,
    Measure,
    RankedGroup,
    UnsupportedFamily,
    closed_form,
    evolve_distribution,
    evolve_pairtable,
    expected_abslength_G_EH,
    expected_length_A_S_bm,
    expected_length_A_S_eriksen,
    expected_length_A_T,
    expected_length_I2_S_troili,
    formula_for,
    iterate_distributions,
    iterate_pairtables,
    make_statistic,
    pair_prob_A,
    pair_probability,
    simulate,
    trial_choices,
)


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from coxwalk import *", namespace)
    missing = [name for name in coxwalk.__all__ if name not in namespace]
    assert not missing


def test_all_names_are_attributes():
    assert len(set(coxwalk.__all__)) == len(coxwalk.__all__)
    for name in coxwalk.__all__:
        assert getattr(coxwalk, name) is not None, name


# ---------------------------------------------------------------------------
# A family, generating set or measure that names no member is refused with
# UnsupportedFamily naming the choices; member strings act as the members.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["E", "a", None, 3])
def test_group_spec_refuses_a_family_outside_the_members(family):
    with pytest.raises(UnsupportedFamily, match="choose from A, B, D, I2, G"):
        GroupSpec(family, 3)


def test_group_spec_stores_the_member_a_string_names():
    spec = GroupSpec("A", 3)
    assert spec.family is Family.A and spec == GroupSpec(Family.A, 3)
    assert str(spec) == "A3" and str(GroupSpec("I2", 5)) == "I2(5)"
    assert simulate(GroupSpec("B", 2), "simple", "length", 2, trials=10, seed=1) == \
        simulate(GroupSpec(Family.B, 2), Gens.SIMPLE, Measure.LENGTH, 2, trials=10, seed=1)


@pytest.mark.parametrize("family", [Family.A, Family.B, Family.D, Family.I2])
def test_unknown_generating_set_is_refused(family):
    spec = GroupSpec(family, 3)
    with pytest.raises(UnsupportedFamily, match="choose from simple, reflections"):
        simulate(spec, "bogus", Measure.LENGTH, 2, trials=10, seed=1)
    with pytest.raises(UnsupportedFamily, match="choose from simple, reflections"):
        list(iterate_distributions(spec, "bogus", 1))


@pytest.mark.parametrize("family", [Family.A, Family.B, Family.D, Family.I2])
def test_unknown_measure_is_refused(family):
    spec = GroupSpec(family, 5)
    with pytest.raises(UnsupportedFamily, match="choose from length, abslength, descents"):
        make_statistic(spec, "bogus")
    with pytest.raises(UnsupportedFamily, match="choose from length, abslength, descents"):
        simulate(spec, Gens.REFLECTIONS, "bogus", 2, trials=10, seed=1)
    # the member strings stay accepted
    assert make_statistic(spec, "descents")(spec.identity()) == 0


@pytest.mark.parametrize("spec", [GroupSpec(Family.A, 3), GroupSpec(Family.D, 1)])
def test_formula_for_refuses_an_unknown_name(spec):
    # refused, not read as a cell without a closed form (D1 has none)
    with pytest.raises(UnsupportedFamily, match="'bogus' names no Gens; choose from simple"):
        formula_for(spec, "bogus", Measure.LENGTH)
    with pytest.raises(UnsupportedFamily, match="'bogus' names no Measure; choose from length"):
        formula_for(spec, Gens.REFLECTIONS, "bogus")
    # the member strings stay accepted
    found = formula_for(spec, "reflections", "length")
    assert found is None if spec.n == 1 else found[0] == "A_T_length"


def test_results_hold_the_members_that_strings_name():
    spec = GroupSpec(Family.B, 3)
    res = closed_form(spec, "reflections", "abslength", 4)
    sim = simulate(spec, "simple", "length", 2, trials=10, seed=1)
    assert (res.gens, res.measure) == (Gens.REFLECTIONS, Measure.ABSLENGTH)
    assert (sim.gens, sim.measure) == (Gens.SIMPLE, Measure.LENGTH)
    assert type(make_statistic(spec, "descents").measure) is Measure
    for result in (res, sim):
        assert type(result.gens) is Gens and type(result.measure) is Measure
        assert f"{result.gens.value}/{result.measure.value}" in ("reflections/abslength",
                                                               "simple/length")


def test_unknown_names_are_value_errors():
    # callers that catch ValueError still catch the refusals
    for call in (lambda: GroupSpec("E", 3),
                 lambda: list(iterate_distributions(GroupSpec(Family.A, 3), "bogus", 1)),
                 lambda: closed_form(GroupSpec(Family.A, 3), Gens.REFLECTIONS, "bogus", 2)):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# One integer rule for every integer argument: a Python or numpy integer is
# read as the Python int it equals, any other value is refused with the
# documented error, and so is an integer outside the argument's range.
# m = inf is an integer of no group: only the two dihedral simple-walk forms
# take it (tests/test_closedform.py).
# ---------------------------------------------------------------------------

A4 = GroupSpec(Family.A, 4)


def _pair_probability(i):
    dist = evolve_distribution(GroupSpec(Family.B, 3), Gens.REFLECTIONS, 2)
    return pair_probability(dist, i, 2)


def _spec(*args):
    # the repr shows the stored ints, and the order overflows in numpy ints
    spec = GroupSpec(*args)
    return repr(spec), spec.order()


# name: (call on the argument, a Python int, its numpy forms, refused values, error);
# a result's repr, where compared, shows that the Python int was stored
INTEGER_ARGUMENTS = {
    "t": (lambda t: expected_length_A_T(5, t), 3, (np.int64(3), np.uint8(3)),
          (3.0, 2.5, -1), InvalidStepCount),
    "n": (lambda n: _spec(Family.D, n), 70, (np.int64(70),), (70.0, 0), InvalidRank),
    "r": (lambda r: _spec(Family.G, 40, r), 3, (np.int64(3),), (3.0, 0), InvalidRank),
    "closed-form n": (lambda n: expected_length_A_S_eriksen(n, 40), 3, (np.int8(3),),
                      (3.0, 0), InvalidRank),
    "closed-form r": (lambda r: expected_abslength_G_EH(r, 5, 9), 2, (np.int8(2),), (2.0, 0),
                      InvalidRank),
    "dihedral form m": (lambda m: expected_length_I2_S_troili(m, 250), 200, (np.uint8(200),),
                        (200.0, 1), InvalidRank),
    "pair engine n": (lambda n: evolve_pairtable(Family.A, n, 3).expected_length(), 5,
                      (np.uint8(5),), (5.0, 1), InvalidRank),
    "m": (lambda m: GroupSpec(Family.I2, m), 5, (np.int64(5),), (5.0, math.inf, 1),
          InvalidRank),
    "dihedral m": (lambda m: DihedralElement(m, 0, 0), 5, (np.int64(5),),
                   (5.0, math.inf, 1), InvalidRank),
    "pair index": (lambda i: pair_prob_A(4, i, 3, 2), 1, (np.int64(1),), (1.0, 0),
                   InvalidPair),
    "trials": (lambda k: simulate(A4, Gens.REFLECTIONS, Measure.LENGTH, 3, k, 1), 10,
               (np.int64(10),), (10.0, 1), InvalidTrialCount),
    # a worker count is at least 1
    "workers": (lambda w: simulate(A4, Gens.REFLECTIONS, Measure.LENGTH, 3, 10, 1, w), 2,
                (np.int64(2),), (2.0, 2.5, 0, -5), InvalidTrialCount),
    # bit-identical: the repr holds the mean and standard error exactly
    "seed": (lambda s: repr(simulate(A4, Gens.REFLECTIONS, Measure.LENGTH, 3, 1000, s)), 7,
             (np.uint64(7), np.int64(7)), (7.0, 1.5, -1, 2**64), InvalidSeed),
    "trial": (lambda k: trial_choices(1, k, 3, 16).tolist(), 1, (np.uint64(1), np.int8(1)),
              (1.0, 1.5, -1, 2**64), InvalidTrialIndex),
    # the stream contract states draws from at most 2**32 choices
    "n_choices": (lambda n: trial_choices(1, 1, n, 16).tolist(), 3, (np.int64(3),),
                  (3.0, 0, 2**32 + 1), InvalidRank),
    "steps": (lambda s: trial_choices(1, 1, 3, s).tolist(), 16, (np.int64(16),),
              (16.0, -1), InvalidStepCount),
    "rank": (lambda k: RankedGroup(GroupSpec(Family.A, 3)).element(k), 3, (np.int64(3),),
             (3.0, 1.5, 6, -1), KeyError),
    "rot": (lambda r: repr(DihedralElement(5, r, 1) * DihedralElement(5, 1, 0)), 2,
            (np.int64(2), np.uint8(2)), (2.0, 1.5, 5, -1), ValueError),
    "flip": (lambda f: repr(DihedralElement(5, 2, f)), 1, (np.int8(1), np.uint64(1)), (1.0, 2),
             ValueError),
    # pair_probability takes PairTable.entry's keys, so 1.0 names label 1 there
    "pair column": (_pair_probability, 1, (np.int64(1),), (1.5, 0, 4), KeyError),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_one_integer_rule(name):
    call, value, numpy_values, refused, error = INTEGER_ARGUMENTS[name]
    expected = call(value)
    for numpy_value in numpy_values:
        assert call(numpy_value) == expected, numpy_value
    for bad in refused:
        with pytest.raises(error):
            call(bad)


@pytest.mark.parametrize("form", [expected_length_A_S_eriksen, expected_length_A_S_bm])
def test_simple_forms_read_n_gens_before_adding_a_letter(form):
    # n_gens + 1 letters: np.int8(127) + 1 overflows int8 to -128
    assert form(np.int8(127), 3) == form(127, 3)
    if form is expected_length_A_S_eriksen:
        assert form(np.int8(127), 3) == Fraction(6049387, 2048383)


def test_pair_engine_reads_family_names_as_group_specs_do():
    assert [t.entries for t in iterate_pairtables("B", 2, 3)] == \
        [t.entries for t in iterate_pairtables(Family.B, 2, 3)]
    with pytest.raises(InvalidRank):
        list(iterate_pairtables("B", 0, 1))
    with pytest.raises(UnsupportedFamily, match="choose from A, B, D, I2, G"):
        list(iterate_pairtables("E", 3, 1))
