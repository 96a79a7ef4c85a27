import gc
import itertools
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from coxwalk import (
    CoxwalkError,
    DihedralElement,
    Family,
    Gens,
    GroupSpec,
    InvalidStepCount,
    Measure,
    OrderLimitExceeded,
    SpecMismatch,
    UnsupportedFamily,
    apply_Q_A,
    apply_Q_BD,
    enumerate_group,
    evolve_distribution,
    evolve_pairtable,
    expectation,
    expected_length_A_T,
    expected_length_B_T,
    expected_length_D_T,
    index_pairs,
    iterate_distributions,
    iterate_pairtables,
    make_statistic,
    pair_prob_A,
    pair_prob_B,
    pair_prob_D,
    pair_probability,
    reflections_of,
    simple_reflections_of,
)
from coxwalk import closedform, elements, exactengine, verify
from coxwalk.elements import num_generators
from coxwalk.exactengine import _layout
from helpers import brute_force_distribution, brute_force_expectation


class TestEvolveDistribution:
    def test_one_step_uniform_over_reflections(self):
        spec = GroupSpec(Family.I2, 3)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 1)
        assert dist.probs == {r: Fraction(1, 3) for r in reflections_of(spec)}

    def test_two_steps_on_three_letters(self):
        spec = GroupSpec(Family.A, 3)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 2)
        from coxwalk import Permutation

        assert dist.probs == {
            Permutation((1, 2, 3)): Fraction(3, 9),
            Permutation((2, 3, 1)): Fraction(3, 9),
            Permutation((3, 1, 2)): Fraction(3, 9),
        }

    def test_b1_involution(self):
        spec = GroupSpec(Family.B, 1)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 2)
        assert dist.probs == {spec.identity(): Fraction(1)}

    def test_t0_point_mass(self):
        spec = GroupSpec(Family.B, 2)
        dist = evolve_distribution(spec, Gens.SIMPLE, 0)
        assert dist.probs == {spec.identity(): Fraction(1)}

    def test_total_is_one_and_parity(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 2), GroupSpec(Family.I2, 5)):
            length = make_statistic(spec, Measure.LENGTH)
            for t, dist in enumerate(iterate_distributions(spec, Gens.REFLECTIONS, 6)):
                assert dist.total() == 1
                for w in dist.probs:
                    assert length(w) % 2 == t % 2

    def test_d_support_stays_even_signed(self):
        spec = GroupSpec(Family.D, 3)
        for dist in iterate_distributions(spec, Gens.REFLECTIONS, 5):
            assert all(w.in_type_d for w in dist.probs)

    def test_matches_brute_force(self):
        cases = [
            (GroupSpec(Family.A, 3), Gens.REFLECTIONS),
            (GroupSpec(Family.A, 3), Gens.SIMPLE),
            (GroupSpec(Family.B, 2), Gens.REFLECTIONS),
            (GroupSpec(Family.D, 3), Gens.REFLECTIONS),
            (GroupSpec(Family.I2, 4), Gens.SIMPLE),
        ]
        for spec, gens in cases:
            generators = (
                simple_reflections_of(spec) if gens == Gens.SIMPLE else reflections_of(spec)
            )
            for t in range(0, 4):
                dist = evolve_distribution(spec, gens, t)
                assert dist.probs == brute_force_distribution(spec, generators, t)

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", str(10**4))
        with pytest.raises(OrderLimitExceeded):
            evolve_distribution(GroupSpec(Family.A, 10), Gens.REFLECTIONS, 3)

    def test_order_guard_runs_before_the_moves_are_listed(self, monkeypatch):
        # A60 has 1770 reflections; a huge rank must be refused before its
        # move list (n^2 tuples in B) is built, as at any rank
        def no_moves(spec, gens):
            raise AssertionError("moves listed for an over-order group")

        monkeypatch.setattr("coxwalk.elements.generator_moves", no_moves)
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "100")
        with pytest.raises(OrderLimitExceeded) as exc:
            next(iterate_distributions(GroupSpec(Family.A, 60), Gens.REFLECTIONS, 3))
        assert str(exc.value).startswith("group order ")


class TestExpectation:
    def test_point_mass(self):
        spec = GroupSpec(Family.A, 4)
        stat = make_statistic(spec, Measure.LENGTH)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 0)
        # a plain callable, so the per-element path runs
        assert expectation(dist, lambda w: stat(w)) == 0

    def test_one_step_s3(self):
        spec = GroupSpec(Family.A, 3)
        stat = make_statistic(spec, Measure.LENGTH)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 1)
        assert expectation(dist, lambda w: stat(w)) == Fraction(5, 3)

    def test_one_step_dihedral_abs(self):
        spec = GroupSpec(Family.I2, 3)
        stat = make_statistic(spec, Measure.ABSLENGTH)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 1)
        assert expectation(dist, lambda w: stat(w)) == 1

    def test_matches_brute_force_statistics(self):
        spec = GroupSpec(Family.B, 2)
        stat = make_statistic(spec, Measure.LENGTH)
        for t in range(0, 4):
            assert expectation(
                evolve_distribution(spec, Gens.REFLECTIONS, t), stat
            ) == brute_force_expectation(spec, reflections_of(spec), stat, t)


class TestStatistics:
    def test_descents_statistic(self):
        spec = GroupSpec(Family.A, 3)
        stat = make_statistic(spec, Measure.DESCENTS)
        from coxwalk import Permutation

        assert stat(Permutation((3, 2, 1))) == 2
        assert stat(spec.identity()) == 0

    def test_abslength_statistic_needs_no_enumeration(self):
        # B11 has 2^11 * 11! elements; the statistic is a closed expression
        spec = GroupSpec(Family.B, 11)
        stat = make_statistic(spec, Measure.ABSLENGTH)
        from coxwalk import SignedPermutation

        assert stat(spec.identity()) == 0
        assert stat(SignedPermutation(tuple(range(-1, -12, -1)))) == 11
        assert all(stat(r) == 1 for r in reflections_of(spec))
        with pytest.raises(TypeError):
            make_statistic(spec, Measure.ABSLENGTH, limit=100)  # no guard knob

    def test_statistic_of_another_group_rejected(self):
        dist = evolve_distribution(GroupSpec(Family.A, 4), Gens.REFLECTIONS, 2)
        with pytest.raises(SpecMismatch):
            expectation(dist, make_statistic(GroupSpec(Family.A, 5), Measure.LENGTH))


class TestPairTables:
    def test_initial_condition(self):
        for family, n in ((Family.A, 4), (Family.B, 3), (Family.D, 3)):
            table = evolve_pairtable(family, n, 0)
            for (i, j), p in table.entries.items():
                assert p == (1 if i < j else 0)

    def test_a3_one_step(self):
        table = evolve_pairtable(Family.A, 3, 1)
        assert table.entry(2, 1) == Fraction(2, 3)

    def test_b2_diagonal_one_step(self):
        table = evolve_pairtable(Family.B, 2, 1)
        assert table.entry(1, -1) == Fraction(1, 2)

    def test_complement_and_range(self):
        for family, n in ((Family.A, 5), (Family.B, 3), (Family.D, 3)):
            for table in iterate_pairtables(family, n, 6):
                for (i, j), p in table.entries.items():
                    assert 0 <= p <= 1
                    assert p + table.entry(j, i) == 1

    def test_v_symmetries_conserved(self):
        # v(i,j) = p(i,j) - p(j,i) is antisymmetric and invariant under
        # (i,j) -> (-j,-i) exactly when p is
        for family, n in ((Family.B, 3), (Family.D, 3)):
            for table in iterate_pairtables(family, n, 6):
                p = table.entries
                for (i, j), val in p.items():
                    assert p[(j, i)] == 1 - val
                    if (-j, -i) in p:
                        assert p[(-j, -i)] == val

    def test_tables_keep_the_complement_and_reflection_rules(self):
        # the step is written on U(i,j) + U(j,i) = den on the domain and,
        # in B and D, U(-j,-i) = U(i,j); every yielded table keeps both,
        # before and after its numerators leave int64
        for family, n, t_max in (
            (Family.A, 3, 40), (Family.A, 7, 16), (Family.B, 1, 6), (Family.B, 2, 32),
            (Family.B, 5, 16), (Family.D, 2, 64), (Family.D, 5, 16),
        ):
            lab = np.arange(1, n + 1) if family == Family.A else np.r_[-n:0, 1:n + 1]
            i, j = lab[:, None], lab[None, :]
            domain = abs(i) != abs(j) if family == Family.D else i != j
            dtypes = set()
            for table in iterate_pairtables(family, n, t_max):
                u = table.num.astype(object)
                assert ((u + u.T)[domain] == table.den).all(), (family, n, table.t)
                assert not u[~domain].any()
                if family != Family.A:
                    assert u[::-1, ::-1].T.tolist() == u.tolist(), (family, n, table.t)
                dtypes.add(table.num.dtype)
            assert np.dtype(object) in dtypes or n == 1, (family, n)

    def test_u_tables_are_integral(self):
        # scaled by |R|^t the recurrence is integer valued
        for family, n in ((Family.A, 4), (Family.B, 2), (Family.D, 3)):
            for table in iterate_pairtables(family, n, 5):
                for val in table.num.ravel().tolist():
                    assert isinstance(val, int)

    def test_matches_marginals(self):
        spec = GroupSpec(Family.B, 2)
        for (t, dist), table in zip(
            enumerate(iterate_distributions(spec, Gens.REFLECTIONS, 4)),
            iterate_pairtables(Family.B, 2, 4),
        ):
            for (i, j), p in table.entries.items():
                assert pair_probability(dist, i, j) == p

    def test_domains(self):
        b = evolve_pairtable(Family.B, 2, 0)
        assert (1, -1) in b.entries and (-1, 1) in b.entries
        d = evolve_pairtable(Family.D, 2, 0)
        assert (1, -1) not in d.entries
        assert set(d.entries) == set(index_pairs(2))

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "100")
        with pytest.raises(OrderLimitExceeded):
            evolve_pairtable(Family.A, 20, 5)

    def test_negative_t_rejected(self):
        for family, n in ((Family.A, 3), (Family.B, 2), (Family.D, 2)):
            with pytest.raises(InvalidStepCount):
                evolve_pairtable(family, n, -1)
        with pytest.raises(InvalidStepCount):
            evolve_distribution(GroupSpec(Family.A, 3), Gens.REFLECTIONS, -1)
        assert issubclass(InvalidStepCount, ValueError)

    def test_yielded_tables_never_change(self):
        # a later step must not update an earlier table's numerators in place
        for family, n in ((Family.A, 5), (Family.B, 3), (Family.D, 4)):
            tables = list(iterate_pairtables(family, n, 8))
            for t, table in enumerate(tables):
                assert table.entries == evolve_pairtable(family, n, t).entries

    def test_yielded_tables_are_read_only(self):
        # a yielded table's numerators are the engine's state for the next
        # step, and every table of one walk reads through the one cached
        # layout of (family, n); B5 crosses to object numerators at t = 14
        for family, n, t_max in ((Family.A, 5, 6), (Family.B, 3, 6), (Family.D, 4, 6),
                                 (Family.B, 5, 16)):
            layout = _layout(family, n)
            for t, table in enumerate(iterate_pairtables(family, n, t_max)):
                assert table.layout is layout
                assert table.entries == evolve_pairtable(family, n, t).entries
                with pytest.raises(ValueError):
                    table.num[0, 1] = 7
            for cells in (layout.domain, layout.inversions):
                with pytest.raises(ValueError):
                    cells[0] = 0
            with pytest.raises(TypeError):
                layout.labels[0] = 0
            with pytest.raises(TypeError):
                layout.pos[1] = 0
            with pytest.raises(AttributeError):
                layout.domain = None

    def test_unsupported_family_is_a_coxwalk_error(self):
        for family in (Family.I2, Family.G):
            with pytest.raises(UnsupportedFamily):
                next(iterate_pairtables(family, 5, 3))
            with pytest.raises(UnsupportedFamily):
                evolve_pairtable(family, 5, 3)
        assert issubclass(UnsupportedFamily, CoxwalkError)
        assert issubclass(UnsupportedFamily, ValueError)

    def test_int64_to_object_crossover_is_exact(self):
        # (family, n, |R|, c, c_sign): a step from den = |R|^t runs on int64
        # numerators while den * (|c| + |c_sign| + 4n + 4) < 2^63
        walks = ((Family.A, 7, 21, 8, 14), (Family.B, 5, 25, 7, 15), (Family.D, 5, 20, 4, 11))
        closed = {Family.A: expected_length_A_T, Family.B: expected_length_B_T,
                  Family.D: expected_length_D_T}
        for family, n, nrefl, c, c_sign in walks:
            growth = abs(c) + abs(c_sign) + 4 * n + 4
            wide = []
            for table in iterate_pairtables(family, n, 60):
                t = table.t
                assert table.den == nrefl**t
                int64 = t == 0 or nrefl ** (t - 1) * growth < 2**63
                assert table.num.dtype == (np.int64 if int64 else object)
                length = table.expected_length()
                assert length == closed[family](n, t)
                assert type(length.numerator) is int
                inv = sum(1 for i, j in table.entries
                          if j > abs(i) or (family == Family.B and i == -j and j > 0))
                if int64 and inv * table.den >= 2**63:
                    # the int64 numerators over the inversion cells sum past
                    # 2^63 here, so an int64 sum would wrap
                    assert (inv - length) * table.den >= 2**63
                    wide.append(t)
                for (i, j), p in table.entries.items():
                    entry = table.entry(i, j)
                    assert entry == p == _pair_lt(family, n, i, j, t)
                    assert type(entry.numerator) is int
            assert wide and table.num.dtype == object

    def test_expected_length_is_sum_over_inversion_pairs(self):
        for family, n in ((Family.A, 5), (Family.B, 3), (Family.D, 4)):
            for table in iterate_pairtables(family, n, 5):
                pairs = [(i, j) for (i, j) in table.entries if j > abs(i)]
                if family == Family.B:
                    pairs += [(-i, i) for i in range(1, n + 1)]
                total = sum((1 - table.entry(i, j) for i, j in pairs), Fraction(0))
                assert table.expected_length() == total

    def test_entry_off_domain_raises_key_error(self):
        for family, n in ((Family.A, 4), (Family.B, 3), (Family.D, 3)):
            table = evolve_pairtable(family, n, 2)
            for i in range(1, n + 1):
                with pytest.raises(KeyError):
                    table.entry(i, i)
            with pytest.raises(KeyError):
                table.entry(1, n + 1)
        d = evolve_pairtable(Family.D, 3, 2)
        for i in (1, 2, 3):
            for a, b in ((i, -i), (-i, i), (-i, -i)):
                with pytest.raises(KeyError):
                    d.entry(a, b)
        with pytest.raises(KeyError):
            evolve_pairtable(Family.A, 4, 1).entry(-1, 2)


def _pair_lt(family, n, i, j, t):
    """Prob(w(i) < w(j)) from the pairwise closed forms, which give
    Prob(w(a) > w(b)) for a < b (A), b > |a| or the pair (-b, b) (B, D)."""
    if family == Family.A:
        return 1 - pair_prob_A(n, i, j, t) if i < j else pair_prob_A(n, j, i, t)
    pp = pair_prob_B if family == Family.B else pair_prob_D
    if abs(i) == abs(j):  # (k, -k): w(k) < w(-k) iff w(-k) > w(k)
        p = pp(n, -abs(i), abs(i), t)
        return p if i > 0 else 1 - p
    if abs(i) > abs(j):
        return 1 - _pair_lt(family, n, j, i, t)
    # for j < 0, w(i) < w(j) iff w(-j) < w(-i), and -j > |i|
    return 1 - pp(n, i, j, t) if j > 0 else pp(n, -i, -j, t)


def _pos(n, i):
    """Position of label i along a B/D pair-layout axis."""
    return i + n - (i > 0)


class TestOperators:
    def test_zero_fixed(self):
        z = np.zeros((4, 4), dtype=object)
        assert apply_Q_A(z).tolist() == z.tolist()
        zd = np.zeros((6, 6), dtype=object)
        assert apply_Q_BD(zd).tolist() == zd.tolist()

    def test_start_table_images(self):
        n = 5
        lab = np.arange(1, n + 1)
        qv = apply_Q_A(np.sign(lab[None, :] - lab[:, None]).astype(object))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert qv[i - 1, j - 1] == (2 * (j - i) if i != j else 0)
        lab = np.array([-4, -3, -2, -1, 1, 2, 3, 4])  # the B/D axis labels
        i, j = lab[:, None], lab[None, :]
        start = np.where(abs(i) != abs(j), np.sign(j - i), 0).astype(object)
        qd = apply_Q_BD(start)
        sgn = lambda x: (x > 0) - (x < 0)
        for a, b in index_pairs(4):
            assert qd[_pos(4, a), _pos(4, b)] == 2 * (b - a - sgn(b) + sgn(a))
        off = abs(i) == abs(j)
        assert not qd[off].any()  # the pairs (i, +-i) stay zero

    def test_projection_identities_random(self):
        rng = random.Random(12)
        for n in (3, 6):
            v = np.zeros((n, n), dtype=object)
            for i in range(n):
                for j in range(i + 1, n):
                    x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    v[i, j], v[j, i] = x, -x
            qv = apply_Q_A(v)
            assert apply_Q_A(qv).tolist() == (n * qv).tolist()
        for n in (2, 4):
            v = np.zeros((2 * n, 2 * n), dtype=object)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for (a, b) in ((i, j), (-i, j)):
                        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for c, d, val in ((a, b, x), (b, a, -x), (-b, -a, x), (-a, -b, -x)):
                            v[_pos(n, c), _pos(n, d)] = val
            qv = apply_Q_BD(v)
            assert apply_Q_BD(qv).tolist() == ((2 * n - 2) * qv).tolist()

    @pytest.mark.parametrize("wrong_n, family", [(25, Family.A), (40, Family.D)])
    def test_verify_proves_the_identities_at_every_pair_rank(self, monkeypatch, wrong_n, family):
        # a Q off by one in one cell at a single rank, past the small ranks a
        # sample would cover, fails the basis check
        name = "apply_Q_A" if family == Family.A else "apply_Q_BD"
        right = getattr(verify, name)

        def wrong(v):
            q = right(v)
            if len(v) == (wrong_n if family == Family.A else 2 * wrong_n):
                q = q.copy()
                q[0, 1] += 1
            return q

        monkeypatch.setattr(verify, name, wrong)
        res = verify.check_operator_identities()
        assert not res.ok and f" n={wrong_n} " in res.detail, res.detail

    def test_pair_engine_step_uses_the_same_q(self):
        # every step of every walk, int64 and Python-int tables alike:
        # U'(i,j) = c*U(i,j) + U(j,i) (+ U(-j,-i) in B and D) + Q(U)(i,j),
        # less U(-i,j) + U(i,-j) in D, where c is the number of reflections
        # of rank n - 2 less 2; B's sign pairs follow their own rule,
        # U'(i,-i) = c_sign*U(i,-i) + the sum of U(k,-k), where c_sign is the
        # number of reflections of rank n - 1 less 1; every other cell with
        # |i| = |j| stays zero
        c_of = {
            Family.A: lambda n: (n - 2) * (n - 3) // 2 - 2,
            Family.B: lambda n: (n - 2) ** 2 - 2,
            Family.D: lambda n: (n - 2) * (n - 3) - 2,
        }
        walks = [(Family.A, n, 40) for n in (2, 3, 6, 12)]
        walks += [(Family.B, n, 32) for n in (1, 2, 4, 7)]
        walks += [(Family.D, n, 64) for n in (2, 3, 5)]
        for family, n, t_max in walks:
            c = c_of[family](n)
            tables = list(iterate_pairtables(family, n, t_max))
            for before, after in zip(tables, tables[1:]):
                u = before.num.astype(object)
                if family == Family.A:
                    want = c * u + u.T + apply_Q_A(u)
                else:
                    want = c * u + u.T + u[::-1, ::-1].T + apply_Q_BD(u)
                if family == Family.D:
                    want -= u[::-1, :] + u[:, ::-1]
                if family == Family.B:
                    sign = [u[_pos(n, i), _pos(n, -i)] for i in range(-n, n + 1) if i]
                    for i in range(1, n + 1):
                        for a, b in ((i, -i), (-i, i)):
                            want[_pos(n, a), _pos(n, b)] = (
                                ((n - 1) ** 2 - 1) * u[_pos(n, a), _pos(n, b)] + sum(sign)
                            )
                assert after.num.tolist() == want.tolist(), (family, n, before.t)
            # Python-int tables are covered wherever den grows
            many = num_generators(family, n, Gens.REFLECTIONS) > 1
            assert tables[-1].num.dtype == (object if many else np.int64), (family, n)


_PAIR_CHECKS = {
    Family.A: (verify.check_type_a_pairwise, pair_prob_A),
    Family.B: (verify.check_type_b, pair_prob_B),
    Family.D: (verify.check_type_d, pair_prob_D),
}


def _step_changed_at_25(monkeypatch, change):
    """Patch the pair walk's step so that at n = 25 the k-th step (k >= 1)
    applies change(new, den, k) to the table it returns."""
    right = exactengine._pair_step

    def wrong(fam, n):
        step, growth = right(fam, n)
        if n != 25:
            return step, growth
        calls = itertools.count(1)

        def changed(u, den):
            new = step(u, den)
            change(new, den, next(calls))
            return new

        return changed, growth

    monkeypatch.setattr(exactengine, "_pair_step", wrong)


def _off_by_one(new, den, k):
    new[0, 1] += 1


def _plus_den(new, den, k):
    new[0, 1] += den


def _off_by_one_from_t3(new, den, k):
    new[0, 1] += k >= 3


class TestPairProof:
    @pytest.mark.parametrize("family", [Family.A, Family.B, Family.D])
    def test_a_step_off_by_one_at_one_rank_fails(self, monkeypatch, family):
        # one cell of the walk's step off by one at a single rank, where the
        # cells are compared at t <= 2 alone, fails the proof at that rank
        _step_changed_at_25(monkeypatch, _off_by_one)
        res = _PAIR_CHECKS[family][0]()
        assert not res.ok and " n=25 " in res.detail, res.detail

    @pytest.mark.parametrize("family", [Family.A, Family.B, Family.D])
    def test_a_step_adding_den_at_one_rank_fails(self, monkeypatch, family):
        # in A, this step's walk still satisfies the cubic: the t <= 2 cell
        # comparisons and the cubic are one gate
        _step_changed_at_25(monkeypatch, _plus_den)
        res = _PAIR_CHECKS[family][0]()
        assert not res.ok and " n=25 " in res.detail, res.detail

    @pytest.mark.parametrize("family", [Family.A, Family.B, Family.D])
    def test_a_step_off_only_from_t3_fails_the_cubic(self, monkeypatch, family):
        # tables exact through t = 2 pass every cell comparison: only the
        # cubic on the first four tables sees the step go wrong
        _step_changed_at_25(monkeypatch, _off_by_one_from_t3)
        res = _PAIR_CHECKS[family][0]()
        assert not res.ok and "cubic n=25" in res.detail, res.detail

    @pytest.mark.parametrize("family, ns", [
        (Family.A, verify.PAIR_NS),
        (Family.B, (1,) + verify.PAIR_NS),
        (Family.D, verify.PAIR_NS),
    ])
    def test_b2_off_by_one_over_n_squared_fails(self, monkeypatch, family, ns):
        # b2 + 1/n^2 fails A and D at every rank, and B at every rank but 2:
        # in B2 every inversion pair has c = 1/2, and so does the length
        # (c = half = 2), so b2's coefficient is zero.  B1's one pair has
        # c = 1/2 too, but its length has c = 2/3 against half = 1/2, which
        # only b1 = b2 cancelled: the pair sum fails there
        right = closedform._pair_bases

        def wrong(fam, n):
            b1, b2 = right(fam, n)
            return b1, b2 + Fraction(1, n * n)

        monkeypatch.setattr(closedform, "_pair_bases", wrong)
        closed_pair = _PAIR_CHECKS[family][1]
        for n in ns:
            res = verify._check_pair_theorem(family, (), (n,), closed_pair, "one rank")
            assert res.ok == (family == Family.B and n == 2), (n, res.detail)

def test_dihedral_walk_statistic_lookup():
    m = 4
    spec = GroupSpec(Family.I2, m)
    stat = make_statistic(spec, Measure.LENGTH)
    assert stat(DihedralElement(m, 0, 0)) == 0
    assert stat(DihedralElement(m, 2, 0)) == 4  # the longest element


class TestRankedEngine:
    def test_int64_to_object_crossover_is_exact(self):
        # 6^30 > 2^63: the counts switch from int64 to Python ints on the way
        from coxwalk import expected_length_A_T

        spec = GroupSpec(Family.A, 4)
        stat = make_statistic(spec, Measure.LENGTH)
        dtypes = set()
        for t, dist in enumerate(iterate_distributions(spec, Gens.REFLECTIONS, 30)):
            dtypes.add(dist.counts.dtype)
            if t == 24:  # int64 counts, yet an int64 counts . values sum could wrap
                assert dist.counts.dtype == np.int64 and dist.den * 6 >= 2**63
            assert dist.den == 6**t
            assert dist.total() == 1
            assert expectation(dist, stat) == expected_length_A_T(4, t)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}
        assert dist.counts.dtype == object

    def test_blocked_step_sums_every_generator_row(self):
        # B5 reflections: 25 rows of 3840 entries take more than one block;
        # the counts leave int64 after t = 13
        spec = GroupSpec(Family.B, 5)
        dists = list(iterate_distributions(spec, Gens.REFLECTIONS, 15))
        rows = dists[0].group.actions(Gens.REFLECTIONS)
        for t, (prev, dist) in enumerate(zip(dists, dists[1:]), start=1):
            expected = sum(prev.counts.astype(object)[row] for row in rows)
            assert np.array_equal(dist.counts, expected), t
            int64 = prev.counts.dtype == np.int64 and prev.den * len(rows) < 2**63
            assert dist.counts.dtype == (np.int64 if int64 else object), t
        assert dists[13].counts.dtype == np.int64 and dists[14].counts.dtype == object

    def test_probs_is_a_view_over_the_support(self):
        spec = GroupSpec(Family.A, 4)
        for dist in iterate_distributions(spec, Gens.REFLECTIONS, 4):
            assert len(dist.probs) == int(np.count_nonzero(dist.counts))
            assert len(dist.probs) == len(list(dist.probs))
        dist = evolve_distribution(GroupSpec(Family.A, 3), Gens.REFLECTIONS, 1)
        assert len(dist.probs) == 3
        with pytest.raises(KeyError):
            dist.probs[GroupSpec(Family.A, 3).identity()]  # zero after one step
        with pytest.raises(KeyError):
            dist.probs[GroupSpec(Family.A, 4).identity()]  # another group
        d3 = evolve_distribution(GroupSpec(Family.D, 3), Gens.REFLECTIONS, 2)
        from coxwalk import SignedPermutation

        with pytest.raises(KeyError):
            d3.probs[SignedPermutation((-1, 2, 3))]  # not in type D
        assert SignedPermutation((-1, -2, 3)) in d3.probs

    def test_yielded_dists_never_change(self):
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 3), GroupSpec(Family.I2, 5)):
            dists = list(iterate_distributions(spec, Gens.REFLECTIONS, 8))
            for t, dist in enumerate(dists):
                assert dist.probs == evolve_distribution(spec, Gens.REFLECTIONS, t).probs

    def test_statistic_called_once_per_element_per_walk(self):
        spec = GroupSpec(Family.A, 5)
        stat = make_statistic(spec, Measure.LENGTH)
        calls = {}

        def counting(w):
            calls[w] = calls.get(w, 0) + 1
            return stat(w)

        for dist in iterate_distributions(spec, Gens.REFLECTIONS, 6):
            assert expectation(dist, counting) == _inversions_over_probs(dist)
        assert calls and set(calls.values()) == {1}

    def test_pair_probability_raises_off_the_pair_table_domain(self):
        # pair_probability and PairTable.entry share one domain and one set of
        # keys: off it both raise KeyError, on it they agree.  The keys include
        # 0, +-(n+1) and 1.5, so A4 (0, 1), (-1, 2), (2, 2), (1, 5) and D3 (0, 1)
        # are among them; 1.0 and np.int64(2) name the labels 1 and 2
        for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 3), GroupSpec(Family.D, 3)):
            n = spec.n
            dist = evolve_distribution(spec, Gens.REFLECTIONS, 3)
            table = evolve_pairtable(spec.family, n, 3)
            off = 0
            keys = [*range(-n - 1, n + 2), 1.0, 1.5, np.int64(2)]
            for i in keys:
                for j in keys:
                    try:
                        p = table.entry(i, j)
                    except KeyError:
                        off += 1
                        with pytest.raises(KeyError):
                            pair_probability(dist, i, j)
                    else:
                        assert pair_probability(dist, i, j) == p
            assert off > 0

    def test_pair_probability_on_object_counts(self):
        spec = GroupSpec(Family.A, 3)
        dist = evolve_distribution(spec, Gens.REFLECTIONS, 41)  # 3^41 > 2^63
        assert dist.counts.dtype == object
        table = evolve_pairtable(Family.A, 3, 41)
        for (i, j), p in table.entries.items():
            assert pair_probability(dist, i, j) == p

    def test_pair_probability_needs_a_window(self):
        # an I2 element is a (rotation, flip) pair: it has no entries to compare
        dist = evolve_distribution(GroupSpec(Family.I2, 5), Gens.REFLECTIONS, 2)
        with pytest.raises(UnsupportedFamily, match="permutation window"):
            pair_probability(dist, 1, 2)


@pytest.mark.parametrize("call, estimate, message", [
    (lambda: enumerate_group(GroupSpec(Family.B, 3)), 48, "group order 48 exceeds guard 47"),
    (lambda: list(iterate_distributions(GroupSpec(Family.A, 4), Gens.REFLECTIONS, 3)),
     24 * 6 * 3, "walk work estimate 432 exceeds guard 431"),
    (lambda: list(iterate_pairtables(Family.A, 5, 3)),
     4 * 5 * 5 * 3, "pair-table work estimate 300 exceeds guard 299"),
], ids=["enumerate_group", "iterate_distributions", "iterate_pairtables"])
def test_guard_admits_its_estimate_and_refuses_one_less(monkeypatch, call, estimate, message):
    monkeypatch.setenv("COXWALK_GUARD_LIMIT", str(estimate))
    assert call()
    monkeypatch.setenv("COXWALK_GUARD_LIMIT", str(estimate - 1))
    with pytest.raises(OrderLimitExceeded) as exc:
        call()
    assert str(exc.value) == message


class TestSharedGroup:
    """Walks share the last walked group (``elements.ranked_group``)."""

    def test_lowered_guard_refuses_the_kept_group(self, monkeypatch):
        spec = GroupSpec(Family.A, 5)
        group = evolve_distribution(spec, Gens.REFLECTIONS, 1).group
        assert evolve_distribution(spec, Gens.SIMPLE, 1).group is group
        monkeypatch.setenv("COXWALK_GUARD_LIMIT", "119")
        with pytest.raises(OrderLimitExceeded) as exc:
            next(iterate_distributions(spec, Gens.REFLECTIONS, 1))
        assert str(exc.value) == "group order 120 exceeds guard 119"

    def test_action_tables_are_built_once_and_read_only(self):
        spec = GroupSpec(Family.B, 3)
        group = evolve_distribution(spec, Gens.REFLECTIONS, 1).group
        for gens in Gens:
            table = group.actions(gens)
            assert table is group.actions(gens.value)
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_alternating_walks_match_fresh_groups(self, monkeypatch):
        x, y = GroupSpec(Family.B, 3), GroupSpec(Family.I2, 6)
        walks = [(x, Gens.REFLECTIONS), (y, Gens.SIMPLE), (x, Gens.REFLECTIONS),
                 (x, Gens.SIMPLE), (y, Gens.REFLECTIONS), (y, Gens.SIMPLE)]

        def walk(spec, gens):
            stats = [make_statistic(spec, measure) for measure in Measure]
            dists = list(iterate_distributions(spec, gens, 6))
            return dists[0].group, [
                (d.counts.tolist(), d.counts.dtype, d.den, [expectation(d, s) for s in stats])
                for d in dists
            ]

        shared = [walk(*w) for w in walks]
        fresh = []
        for w in walks:
            monkeypatch.setattr(elements, "_shared", None)
            fresh.append(walk(*w))
        assert [results for _, results in shared] == [results for _, results in fresh]
        groups = [group for group, _ in shared]
        # one slot: the next walk on the spec reuses it, a walk between builds anew
        assert groups[3] is groups[2] and groups[5] is groups[4]
        assert groups[2] is not groups[0] and groups[4] is not groups[1]

    def test_one_group_is_kept(self):
        first = evolve_distribution(GroupSpec(Family.A, 4), Gens.REFLECTIONS, 2)
        kept = weakref.ref(first.group)
        del first
        evolve_distribution(GroupSpec(Family.A, 5), Gens.REFLECTIONS, 2)
        gc.collect()
        assert kept() is None


def _inversions_over_probs(dist):
    """Expected inversion count summed straight over the probs view."""
    stat = make_statistic(dist.spec, Measure.LENGTH)
    return sum((p * stat(w) for w, p in dist.probs.items()), Fraction(0))


def test_enumerate_group_matches_independent_bfs():
    from helpers import bfs_word_length

    for spec in (GroupSpec(Family.A, 4), GroupSpec(Family.B, 3),
                 GroupSpec(Family.D, 4), GroupSpec(Family.I2, 5)):
        group = enumerate_group(spec)
        assert group[0] == spec.identity()
        assert len(group) == spec.order()
        assert set(group) == set(bfs_word_length(spec.identity(), simple_reflections_of(spec)))


def test_helpers_stay_independent_of_the_engines():
    # the brute-force oracles may take only element multiplication from the
    # package, so that an engine or enumeration bug cannot mask itself
    import ast
    import helpers

    with open(helpers.__file__) as source:
        tree = ast.parse(source.read())
    from_package = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxwalk")
        for alias in node.names
    ]
    plain = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert from_package == ["multiply"]
    assert not any(name.startswith("coxwalk") for name in plain)
