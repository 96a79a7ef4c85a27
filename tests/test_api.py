"""The public API: every exported name resolves, and a family, generating
set or measure that names no member is refused."""
import pytest

import coxwalk
from coxwalk import (
    Family,
    Gens,
    GroupSpec,
    Measure,
    UnsupportedFamily,
    closed_form,
    formula_for,
    iterate_distributions,
    make_statistic,
    simulate,
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
