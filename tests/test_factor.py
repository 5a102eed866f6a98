"""Factor engine: atom windows, factorization enumeration against the
brute-force oracle, length sets, atomicity witnesses, and probes."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from oracles import brute_force_factorizations, minimal_numerical_monoids, no_window_decomposition
from posmon.classify import classify_conductive
import posmon.factor as factor_module
import posmon.descriptors as descriptors_module
from posmon.elements import Q2, Z, Z2, Z2_SECOND, Group, GroupElement, GroupMismatch, lexvec, rational, triple, zero
from posmon.factor import (
    atoms,
    factorizations,
    is_atomic_element,
    length_function_check,
    length_set,
    probe_property,
)
from posmon.descriptors import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    FiniteGenerated,
    GENERATE,
    GeometricPuiseux,
    LexCone,
    Localized,
    NearlyAtomicAlpha,
    NotAMember,
    PrimeReciprocal,
    Product,
    ProductElement,
    UnionShift,
    UnsupportedFamily,
    almost_not_nearly_instance,
    numerical,
    quasi_not_almost_instance,
)
from posmon.monoids import contains, generators, members_within
from posmon.primes import first_primes

Z3 = Group("lex", rank=3)


class TestAtoms:
    def test_conductive_interval(self):
        a = atoms(Conductive(lexvec(Z, 3)))
        assert [x.value for x in a.atoms] == [(3,), (4,), (5,)]
        assert a.complete

    def test_numerical_atoms(self):
        a = atoms(numerical(4, 6, 7))
        assert [x.value for x in a.atoms] == [4, 6, 7]
        assert a.complete

    def test_numerical_redundant_generator(self):
        a = atoms(numerical(3, 5, 8))
        assert [x.value for x in a.atoms] == [3, 5]

    def test_cone_atoms_flagged_incomplete(self):
        a = atoms(LexCone(Z2, FIRST_POSITIVE), depth=5)
        assert [x.value for x in a.atoms] == [(1, n) for n in range(-5, 6)]
        assert not a.complete

    def test_full_cone_single_atom(self):
        a = atoms(LexCone(Z2, FULL_CONE), depth=5)
        assert [x.value for x in a.atoms] == [(0, 1)]
        assert a.complete

    def test_second_priority_cone_atom(self):
        a = atoms(LexCone(Z2_SECOND, FULL_CONE), depth=5)
        assert [x.value for x in a.atoms] == [(1, 0)]
        assert a.complete

    def test_geometric_atoms(self):
        q = Fraction(2, 3)
        a = atoms(GeometricPuiseux(q), depth=6)
        assert [x.value for x in a.atoms] == sorted(q**i for i in range(7))
        assert not a.complete

    def test_prime_reciprocal_atoms(self):
        a = atoms(PrimeReciprocal(), depth=6)
        assert [x.value for x in a.atoms] == sorted(
            Fraction(1, p) for p in first_primes(6)
        )

    def test_conductive_infinite_interval_window(self):
        a = atoms(Conductive(lexvec(Z2, 1, 0)), depth=4)
        assert not a.complete
        for x in a.atoms:
            assert lexvec(Z2, 1, 0) <= x < lexvec(Z2, 2, 0)
        assert lexvec(Z2, 1, 2).value in [x.value for x in a.atoms]
        assert lexvec(Z2, 2, -3).value in [x.value for x in a.atoms]

    def test_conductive_finite_interval_in_upper_class(self):
        a = atoms(Conductive(lexvec(Z2, 0, 3)), depth=4)
        assert [x.value for x in a.atoms] == [(0, 3), (0, 4), (0, 5)]
        assert a.complete

    def test_rational_upper_class_interval_is_not_a_ladder(self):
        # over Q^2, [(0,3/2), (0,3)) is no finite ladder: the atoms are the
        # window grid's points in it (denominators up to 5 at depth 6),
        # from (0,3/2) itself, and the answer is not complete
        m = Conductive(lexvec(Q2, 0, Fraction(3, 2)))
        a = atoms(m, depth=6)
        grid = sorted({Fraction(p, q) for q in range(1, 6) for p in range(3 * q) if 2 * p >= 3 * q})
        assert [x.value for x in a.atoms] == [(0, y) for y in grid]
        assert a.atoms[0].value == (0, Fraction(3, 2)) and lexvec(Q2, 0, Fraction(5, 2)) in a.atoms
        assert not a.complete
        search = factorizations(m, lexvec(Q2, 0, 2), depth=6)
        assert len(search.factorizations) == 1 and not search.complete
        search = factorizations(m, lexvec(Q2, 0, 3), depth=6)
        assert [str(f) for f in search.factorizations] == ["2*[(0,3/2)@prio=0]"]
        assert is_atomic_element(m, lexvec(Q2, 0, 2), depth=6).status == "yes"
        assert is_atomic_element(m, lexvec(Q2, 0, Fraction(3, 2)), depth=6).status == "yes"

    @pytest.mark.parametrize("a, depth", [
        (lexvec(Z2, 1, 5), 4), (lexvec(Q2, 0, Fraction(1, 3)), 1), (lexvec(Q2, 0, Fraction(3, 7)), 6),
    ], ids=str)
    def test_conductor_off_the_box_grid_is_in_its_window(self, a, depth):
        # the window holds the conductor beyond the depth, and over Q^2
        # beyond the grid's denominators (at most min(depth, 5))
        m = Conductive(a)
        found = atoms(m, depth)
        assert found.atoms[0] == a and not found.complete
        assert set(found.atoms) <= set(generators(m, depth).generators)
        assert min(generators(m, depth).generators) == a
        assert is_atomic_element(m, a, depth).status == "yes"

    def test_far_conductors_and_deep_cones_skip_the_box(self):
        # the window is read from the conductor's row on, and the full
        # cones answer in closed form, so none of these scans a box
        start = time.perf_counter()
        a = atoms(Conductive(lexvec(Z2, 1, 100_000)), 12).atoms
        assert a[0] == lexvec(Z2, 1, 100_000) and a[1:] == tuple(lexvec(Z2, 2, y) for y in range(-12, 13))
        ladder = atoms(Conductive(lexvec(Z2, 0, 1_000)), 12)
        assert len(ladder.atoms) == 1_000 and ladder.complete
        assert atoms(LexCone(Z2, FULL_CONE), 5_000).atoms == (lexvec(Z2, 0, 1),)
        assert atoms(LexCone(Q2, FULL_CONE), 10**6).atoms == ()
        assert len(atoms(LexCone(Z2, FIRST_POSITIVE), 2_000).atoms) == 4_001
        assert time.perf_counter() - start < 2.0

    def test_quasi_atoms_are_triadic(self):
        a = atoms(quasi_not_almost_instance(), depth=4)
        vals = [x.value for x in a.atoms]
        assert Fraction(4, 3) in vals
        for v in vals:
            den = v.denominator
            while den % 3 == 0:
                den //= 3
            assert den == 1
            assert Fraction(4, 3) <= v < Fraction(7, 3)


# the families whose atom windows are re-verified without contains, with one wrong
# closed-form candidate each: t = g + (nonzero member) for a window g
INT_CHECKED = [
    (GeometricPuiseux(Fraction(2, 3)), rational(Fraction(5, 3))),
    (GeometricPuiseux(Fraction(3, 4)), rational(Fraction(3, 2))),
    (LexCone(Z2, FIRST_POSITIVE), lexvec(Z2, 2, 5)),
    (LexCone(Z2, FULL_CONE), lexvec(Z2, 1, 0)),
    (Conductive(lexvec(Z2, 1, 0)), lexvec(Z2, 2, 0)),
    (Conductive(lexvec(Z2, 0, 2)), lexvec(Z2, 0, 4)),
    (Conductive(rational(Fraction(3, 2))), rational(Fraction(7, 2))),
    (Conductive(lexvec(Z, 3)), lexvec(Z, 6)),
    (PrimeReciprocal(), rational(Fraction(5, 6))),
    (Localized(3, Fraction(4, 3)), rational(Fraction(8, 3))),
    (almost_not_nearly_instance(), rational(Fraction(5, 6))),
    (AlphaBeta(Fraction(2, 3)), triple(Fraction(5, 3), 0, 0)),
    (NearlyAtomicAlpha(), triple(1, 0, 0)),
]

# each family's int split rule against the full window scan through
# contains; the Z^2 windows also at depth 8, and two rank-3 windows
INT_PATH_CASES = [
    (depth, m)
    for depth in (1, 2, 4)
    for m in [m for m, _ in INT_CHECKED]
    + [
        numerical(3, 5, 6, 8, 9, 10),
        numerical(4, 8, 12, 13),
        FiniteGenerated(tuple(rational(Fraction(x)) for x in ("2/3", "1/2", "5/4", "7/6", "4/3"))),
        FiniteGenerated((lexvec(Z2, 1, 0), lexvec(Z2, 2, 0), lexvec(Z2, 3, 0))),
        FiniteGenerated(tuple(lexvec(Z2, *v) for v in ((0, 1), (1, 2), (2, 3), (1, 3)))),
        FiniteGenerated(tuple(triple(*t) for t in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)))),
        Conductive(lexvec(Q2, 1, -1)),
        LexCone(Z2_SECOND, FIRST_POSITIVE),
    ]
]
INT_PATH_CASES += [
    (8, m)
    for m in (
        LexCone(Z2, FIRST_POSITIVE),
        LexCone(Z2, FULL_CONE),
        LexCone(Z2_SECOND, FIRST_POSITIVE),
        LexCone(Z2_SECOND, FULL_CONE),
        Conductive(lexvec(Z2, 1, 0)),
        Conductive(lexvec(Z2, 0, 2)),
        Conductive(lexvec(Z2, 2, -3)),
    )
]
INT_PATH_CASES += [
    (depth, m)
    for depth in (1, 2, 3, 4)
    for m in (LexCone(Z3, FIRST_POSITIVE), Conductive(lexvec(Z3, 1, -1, 2)))
]
# M_q, M_0 and the rays at depths 1-8 (INT_CHECKED's at the others)
INT_PATH_CASES += [
    (depth, m)
    for depth in range(1, 9)
    for m in (GeometricPuiseux(Fraction(5, 7)), Localized(2, Fraction(1)), Localized(3, Fraction(7, 5)))
]
INT_PATH_CASES += [
    (depth, m)
    for depth in (3, 5, 6, 7, 8)
    for m in (GeometricPuiseux(Fraction(2, 3)), PrimeReciprocal(), Localized(3, Fraction(4, 3)))
]
# the two irrational constructions at depths 1-10 (INT_CHECKED's at the others)
INT_PATH_CASES += [
    (depth, m)
    for depth in (3, 5, 6, 7, 8, 9, 10)
    for m in (AlphaBeta(Fraction(2, 3)), NearlyAtomicAlpha())
]
# the union of M_0 with its group's tail, at six thresholds
UNION_THRESHOLDS = [Fraction(x) for x in ("1/2", "1", "173/210", "5/4", "7/6", "3/2")]
INT_PATH_CASES += [
    (depth, UnionShift(PrimeReciprocal(), threshold=th))
    for depth in range(1, 7)
    for th in UNION_THRESHOLDS
    if (depth, th) not in {(d, Fraction(1)) for d in (1, 2, 4)}
]


def two_rays(p, t, q, u):
    return UnionShift(Localized(p, Fraction(t)), Localized(q, Fraction(u)), mode=GENERATE)


# the monoid generated by two rays, four prime pairs, thresholds 0 and up
RAY_PAIRS = [
    two_rays(p, t, q, u)
    for p, q in ((2, 3), (3, 2), (5, 2), (2, 7))
    for t, u in (("1", "4/3"), ("0", "4/3"), ("3/2", "1/2"), ("1/2", "5/2"), ("4/3", "1"), ("1", "0"))
]
INT_PATH_CASES += [(depth, m) for depth in (1, 2) for m in RAY_PAIRS]
INT_PATH_CASES += [(3, m) for m in RAY_PAIRS[:6]]


class TestTripleOrder:
    def test_int_triple_sort_is_the_exact_order(self):
        """Convergents of sqrt2 and sqrt3 far closer to them than 2^-64,
        among random triples, sort as the GroupElement order sorts them."""
        close = []
        for r, root in ((2, triple(0, 1, 0)), (3, triple(0, 0, 1))):
            p = q = 1
            for _ in range(40):  # p/q -> sqrt r, within 1/q^2
                p, q = p + r * q, p + q
                close.append(triple(Fraction(p, q), 0, 0))
            close.append(root)
        rng = random.Random(5)
        elements = close + [
            triple(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))) for _ in range(300)
        ]
        elements += [x.scale(2) for x in close[:5]] + [triple(0, 1, -1), triple(0, -1, 1)]
        rng.shuffle(elements)
        assert factor_module._sorted_triples(elements) == sorted(elements)


class TestAtomReverification:
    @pytest.mark.parametrize("m, wrong", INT_CHECKED, ids=lambda v: str(v))
    def test_injected_wrong_candidate_raises(self, monkeypatch, m, wrong):
        real = factor_module._atom_rule

        def injected(m_, depth):
            rule = real(m_, depth)
            assert rule.mode == "assert"
            return rule._replace(candidates=[*rule.candidates, wrong])

        def no_contains(*args, **kwargs):
            raise AssertionError("the int path called contains")

        monkeypatch.setattr(factor_module, "_atom_rule", injected)
        monkeypatch.setattr(factor_module, "contains", no_contains)
        factor_module._atoms_cached.cache_clear()
        try:
            with pytest.raises(AssertionError, match="failed its decomposition check"):
                atoms(m, 5)
        finally:
            factor_module._atoms_cached.cache_clear()

    @pytest.mark.parametrize("m", [
        numerical(3, 5, 6, 8, 9, 10),
        FiniteGenerated(tuple(rational(Fraction(x)) for x in ("2/3", "1/2", "5/4", "7/6", "4/3"))),
        FiniteGenerated(tuple(lexvec(Z2, *v) for v in ((0, 1), (1, 2), (2, 3), (1, 3)))),
        quasi_not_almost_instance(),
        two_rays(2, "1", 3, "4/3"),
        two_rays(5, "3/2", 2, "1/2"),
    ], ids=str)
    def test_filter_mode_atoms_without_contains(self, monkeypatch, m):
        depth = 3
        window = generators(m, depth).generators
        expected = tuple(
            t for t in factor_module._atom_rule(m, depth).candidates
            if no_window_decomposition(m, t, window, depth)
        )

        def no_contains(*args, **kwargs):
            raise AssertionError("the int path called contains")

        monkeypatch.setattr(factor_module, "contains", no_contains)
        factor_module._atoms_cached.cache_clear()
        try:
            assert factor_module._atom_rule(m, depth).mode == "filter"
            assert atoms(m, depth).atoms == expected
        finally:
            factor_module._atoms_cached.cache_clear()

    @pytest.mark.parametrize("depth, m", INT_PATH_CASES, ids=str)
    def test_int_path_matches_contains(self, m, depth):
        rule = factor_module._atom_rule(m, depth)
        window = generators(m, depth).generators
        got = [rule.splits(t) for t in rule.candidates]
        assert got == [
            not no_window_decomposition(m, t, window, depth) for t in rule.candidates
        ]
        assert not any(got) or rule.mode == "filter"

    @pytest.mark.parametrize("m, values", [
        (GeometricPuiseux(Fraction(2, 3)),
         ["5/3", "4/3", "2", "13/9", "8/9", "10/27", "1/2", "7/4", "17/81", "3", "32/27"]),
        (GeometricPuiseux(Fraction(3, 4)), ["3/2", "7/4", "9/8", "15/16", "5/4", "1/3", "45/64"]),
        (PrimeReciprocal(), ["5/6", "2/3", "1", "31/30", "18/77", "2/11", "1/4", "71/78", "24/23"]),
        (Localized(2, Fraction(1)), ["2", "9/4", "15/8", "33/16", "3", "5/3", "17/64", "65/32"]),
        (Localized(3, Fraction(4, 3)), ["8/3", "26/9", "3", "4", "80/27", "5/2", "244/81"]),
        (Localized(5, Fraction(0)), ["1/5", "2/25", "1/625", "3/3125", "7/2", "2"]),
        # union mode: values at or below the threshold, where the candidates lie
        (almost_not_nearly_instance(), ["5/6", "2/3", "1", "1/2", "7/10", "31/42", "1/4", "18/77", "2/11"]),
        (UnionShift(PrimeReciprocal(), threshold=Fraction(173, 210)),
         ["173/210", "5/6", "139/210", "1/2", "2/3", "29/42", "18/77", "1/4"]),
        # generate mode: values of either ray's group, off the windows too
        (quasi_not_almost_instance(), ["4/3", "8/3", "3", "13/3", "7/2", "1/2", "1", "244/81", "730/243", "5"]),
        (two_rays(2, "1", 3, "4/3"),
         ["1", "2", "9/4", "65/32", "3", "4/3", "7/3", "8/3", "244/81", "4", "5", "129/64"]),
        (two_rays(5, "3/2", 2, "1/2"),
         ["3/2", "3", "16/5", "1", "2", "5/2", "7/4", "1/2", "4", "3126/625", "15626/3125"]),
        (two_rays(2, "0", 3, "0"), ["1", "1/2", "1/3", "5/6", "7/4", "1/5", "7/10"]),
        # antimatter cones: the step of the rational window grid decides
        (LexCone(Q2, FULL_CONE), [lexvec(Q2, *v) for v in (
            (0, Fraction(1, 5)), (0, Fraction(1, 2)), (0, 1), (Fraction(1, 3), -2), (0, Fraction(1, 7)))]),
        (LexCone(Q2, FIRST_POSITIVE), [lexvec(Q2, *v) for v in (
            (Fraction(1, 5), 0), (1, 0), (Fraction(1, 3), -2), (2, 0), (Fraction(3, 2), 1), (0, 1))]),
    ], ids=str)
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_rules_match_window_off_window(self, m, values, depth):
        # members and non-members outside the candidate list, some whose
        # largest canonical term lies beyond the window
        window = generators(m, depth).generators
        ts = [rational(Fraction(v)) if isinstance(v, str) else v for v in values]
        splits = factor_module._atom_rule(m, depth).splits
        got = [splits(t) for t in ts]
        assert got == [
            not no_window_decomposition(m, t, window, depth) for t in ts
        ]
        assert any(got) and not all(got)

    @pytest.mark.parametrize("m, depth, count", [
        (AlphaBeta(Fraction(2, 3)), 60, 61 + 2 * 60),
        (AlphaBeta(Fraction(2, 3)), 1000, 1001 + 2 * 1000),
        (NearlyAtomicAlpha(), 160, 160),
    ], ids=str)
    def test_irrational_atoms_deep_within_a_second(self, m, depth, count):
        # the split rule reads the prime coefficient and runs no membership
        # search, and each candidate takes its prime from its position in
        # the enumeration, so a deep window costs only its candidates
        factor_module._atoms_cached.cache_clear()
        start = time.monotonic()
        assert len(atoms(m, depth).atoms) == count
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("p, top", [(2, 12), (3, 12), (5, 6), (7, 4)])
    def test_ray_candidates_are_the_window_below_twice_the_threshold(self, p, top):
        for t0 in ("0", "1/100", "1", "4/3", "7/5", "3", "5/2"):
            m = Localized(p, Fraction(t0))
            for depth in range(1, top + 1):
                want = [g for g in generators(m, depth).generators if g.value < 2 * m.min_nonzero]
                assert factor_module._atom_rule(m, depth).candidates == want, (t0, depth)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_generated_union_lists_base_ray_atoms(self, depth):
        m = two_rays(2, "1", 3, "4/3")
        window = generators(m, depth).generators
        expected = sorted(t for t in window if no_window_decomposition(m, t, window, depth))
        assert list(atoms(m, depth).atoms) == expected
        assert rational(1) in expected
        assert is_atomic_element(m, rational(1), depth).status == "yes"
        search = factorizations(m, rational(2), depth)
        assert [str(f) for f in search.factorizations] == ["2*[1]"]

    @pytest.mark.parametrize("depth", [1, 2, 4, 6])
    def test_two_rays_at_zero_are_antimatter(self, depth):
        # x = u + v with u > 0 in Z[1/2] splits off u/2, and x = v in
        # Z[1/3] splits off v/3: no window generator is an atom
        m = two_rays(2, "0", 3, "0")
        for g in generators(m, depth).generators:
            part = contains(m, g).certificate[0][0].value
            assert any(contains(m, h).is_in and contains(m, g - h).is_in
                       for h in (rational(part / 2), rational(part / 3))), g
        a = atoms(m, depth)
        assert a.atoms == () and a.complete and "antimatter" in a.note
        assert is_atomic_element(m, rational(1), depth).status == "no"

    def test_deep_geometric_window_is_fast(self):
        for depth in (120, 1000):
            start = time.perf_counter()
            a = atoms(GeometricPuiseux(Fraction(2, 3)), depth)
            assert len(a.atoms) == depth + 1
            assert time.perf_counter() - start < 5.0


class TestFactorizations:
    def test_two_generator_example(self):
        s = factorizations(numerical(3, 5), rational(15))
        assert s.complete and not s.truncated
        reps = {tuple((a.value, c) for a, c in f.pairs) for f in s.factorizations}
        assert reps == {((3, 5),), ((5, 3),)}
        assert sorted(f.length for f in s.factorizations) == [3, 5]

    def test_atom_factors_once(self):
        s = factorizations(Conductive(lexvec(Z, 3)), lexvec(Z, 3))
        assert len(s.factorizations) == 1
        assert s.factorizations[0].length == 1
        assert s.complete

    def test_cone_pairs(self):
        s = factorizations(LexCone(Z2, FIRST_POSITIVE), lexvec(Z2, 2, 0), depth=5)
        assert len(s.factorizations) == 6
        assert not s.complete
        for f in s.factorizations:
            assert f.length == 2

    def test_not_a_member(self):
        m = numerical(3, 5)
        for query in (factorizations, length_set, is_atomic_element):
            with pytest.raises(NotAMember):
                query(m, rational(7))
            with pytest.raises(ValueError) as neg:
                query(m, rational(-1))
            assert type(neg.value) is ValueError, query
            with pytest.raises(GroupMismatch):
                query(m, lexvec(Z, 7))

    def test_complete_atoms_do_not_decide_membership(self):
        # (1, 0) lies in {0} u (Z^2)_{>=(0,2)}, whose complete atom list
        # (0, 2), (0, 3) does not reach it: a member without factorization
        m = Conductive(lexvec(Z2, 0, 2))
        b = lexvec(Z2, 1, 0)
        assert contains(m, b).is_in
        s = factorizations(m, b)
        assert s.factorizations == () and s.complete and not s.truncated
        ls = length_set(m, b)
        assert ls.lengths == () and ls.complete
        assert is_atomic_element(m, b).status == "no"

    def test_antimatter_note(self):
        from posmon.elements import Q2, GroupElement

        m = LexCone(Q2, FIRST_POSITIVE)
        s = factorizations(m, GroupElement(Q2, (1, 0)), depth=3)
        assert s.factorizations == ()
        assert "NotAtomicFamily" in s.note

    def test_truncation_flag(self):
        s = factorizations(
            LexCone(Z2, FIRST_POSITIVE), lexvec(Z2, 2, 0), depth=20, max_count=5
        )
        assert s.truncated and len(s.factorizations) == 5 and not s.complete

    def test_soundness_every_emitted_sums_exactly(self):
        for m, b in [
            (numerical(3, 5, 7), rational(41)),
            (Conductive(lexvec(Z, 4)), lexvec(Z, 30)),
            (GeometricPuiseux(Fraction(2, 3)), rational(3)),
            (PrimeReciprocal(), rational(Fraction(3, 2))),
        ]:
            search = factorizations(m, b, depth=10)
            assert search.factorizations
            for f in search.factorizations:
                total = zero(b.group)
                for atom, mult in f.pairs:
                    total = total + atom.scale(mult)
                assert total == b

    def test_deterministic_order(self):
        a = factorizations(numerical(3, 5, 7), rational(60))
        b = factorizations(numerical(3, 5, 7), rational(60))
        assert a.factorizations == b.factorizations

    def test_zero_has_empty_factorization(self):
        s = factorizations(numerical(3, 5), rational(0))
        assert len(s.factorizations) == 1 and s.factorizations[0].length == 0


class TestOracleAgreement:
    def test_small_monoids_match_nested_loops(self):
        rng = random.Random(13)
        monoids = minimal_numerical_monoids(max_gens=3, max_gen=12)
        for gens in rng.sample(monoids, 25):
            m = numerical(*gens)
            for b in rng.sample(range(1, 61), 12):
                expected = brute_force_factorizations(gens, b)
                if not expected:
                    assert contains(m, rational(b)).is_out
                    continue
                search = factorizations(m, rational(b))
                assert search.complete
                got = set()
                for f in search.factorizations:
                    mult = {a.value: c for a, c in f.pairs}
                    got.add(tuple(mult.get(g, 0) for g in gens))
                assert got == expected, (gens, b)

    def test_geometric_factorizations_of_chain_head(self):
        # derived by enumeration: 3 = 3*1 = 1 + 3*(2/3) = ... over window atoms
        q = Fraction(2, 3)
        s = factorizations(GeometricPuiseux(q), rational(3), depth=8)
        lengths = s.lengths()
        assert 3 in lengths  # 3 = 1+1+1
        for f in s.factorizations:
            assert sum(c * a.value for a, c in f.pairs) == 3


class TestLengthSets:
    def test_prime_window(self):
        ls = length_set(PrimeReciprocal(), rational(1), depth=6)
        assert list(ls.lengths) == [2, 3, 5, 7, 11, 13]
        assert not ls.complete

    def test_atom_length_one(self):
        for m, a in [
            (numerical(3, 5), rational(3)),
            (Conductive(lexvec(Z, 4)), lexvec(Z, 5)),
        ]:
            ls = length_set(m, a)
            assert list(ls.lengths) == [1]

    def test_lengths_subset_under_truncation(self):
        m = numerical(2, 3)
        full = length_set(m, rational(60))
        cut = length_set(m, rational(60), max_count=3)
        assert set(cut.lengths) <= set(full.lengths)
        assert not cut.complete and full.complete


class TestIsAtomicElement:
    def test_quasi_four(self):
        w = is_atomic_element(quasi_not_almost_instance(), rational(4), depth=4)
        assert w.status == "yes"
        assert {(a.value, c) for a, c in w.factorization.pairs} == {(Fraction(4, 3), 3)}

    def test_unreachable_dominant(self):
        w = is_atomic_element(LexCone(Z2, FULL_CONE), lexvec(Z2, 1, 0), depth=6)
        assert w.status == "no"

    def test_zero(self):
        w = is_atomic_element(numerical(3, 5), rational(0))
        assert w.status == "yes" and w.factorization.length == 0

    def test_zero_of_product(self):
        # zero needs no atoms, so a family without an atom procedure answers
        m = Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1)))
        w = is_atomic_element(m, ProductElement(rational(0), lexvec(Z, 0)))
        assert w.status == "yes" and w.factorization.length == 0

    def test_unknown_when_window_open(self):
        m = GeometricPuiseux(Fraction(2, 3))
        # 1/3 is not a member at all -> raises
        with pytest.raises(NotAMember):
            is_atomic_element(m, rational(Fraction(1, 3)))

    @pytest.mark.parametrize("depth", [4, 5, 6])
    @pytest.mark.parametrize("t", [(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)], ids=str)
    def test_alphabeta_targets_answer(self, t, depth):
        # the first factorization takes 7 to 13 copies of one of the
        # window's smallest atoms, deep in an order-only search tree
        m, b = AlphaBeta(Fraction(2, 3)), triple(*t)
        w = is_atomic_element(m, b, depth)
        assert w.status == "yes"
        window = set(atoms(m, depth).atoms)
        total = zero(m.group)
        for a, c in w.factorization.pairs:
            assert a in window and c > 0
            total = total + a.scale(c)
        assert total == b


# inputs on which the three element queries once disagreed or may fork:
# antimatter monoids, zeros of a product and of a foreign group, a member
# without factorization, a non-member
AGREEMENT = [
    (LexCone(Q2, FIRST_POSITIVE), lexvec(Q2, 1, 0)),
    (Localized(2, Fraction(0)), rational(1)),
    (Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1))),
     ProductElement(rational(0), lexvec(Z, 0))),
    (numerical(3, 5), lexvec(Z, 0)),
    (Conductive(lexvec(Z2, 0, 2)), lexvec(Z2, 1, 0)),
    (numerical(3, 5), rational(7)),
    (two_rays(2, "0", 3, "0"), rational(1)),
]


def _outcome(query):
    """The query's result, or the type of the exception it raised."""
    try:
        return query()
    except Exception as exc:
        return type(exc)


class TestQueryAgreement:
    @pytest.mark.parametrize("depth", [3, 8])
    @pytest.mark.parametrize("m, b", AGREEMENT, ids=str)
    def test_three_queries_agree(self, m, b, depth):
        outs = [_outcome(lambda: q(m, b, depth)) for q in (factorizations, length_set, is_atomic_element)]
        raised = [o for o in outs if isinstance(o, type)]
        if raised:
            assert len(raised) == 3 and len(set(raised)) == 1, outs
            return
        search, ls, w = outs
        found = bool(search.factorizations)
        assert bool(ls.lengths) == found and (w.status == "yes") == found
        assert search.complete == ls.complete
        assert (w.status == "no") == (not found and search.complete)


class TestProbes:
    def test_hfm_refuted_at_nine(self):
        r = probe_property(Conductive(lexvec(Z, 3)), "HFM", 60)
        assert r.refuted
        assert r.witness["element"].value == (9,)
        f1, f2 = r.witness["factorizations"]
        assert {f1.length, f2.length} == {2, 3}

    def test_lfm_consistent_two_three(self):
        r = probe_property(Conductive(lexvec(Z, 2)), "LFM", 60)
        assert r.consistent

    def test_ufm_consistent_free(self):
        r = probe_property(Conductive(lexvec(Z, 1)), "UFM", 60)
        assert r.consistent

    def test_atm_refuted_in_upper_class(self):
        r = probe_property(Conductive(lexvec(Z2, 0, 1)), "ATM", (2, 6))
        assert r.refuted
        assert r.witness["reason"] == "no factorization into atoms"

    @pytest.mark.parametrize(
        "m",
        [LexCone(Z2, FIRST_POSITIVE)]
        + [Conductive(lexvec(Z2, *a)) for a in ((1, -3), (1, 0), (1, 5), (2, -5), (3, 1))]
        # every atom has leading coordinate 0, so the code drops that
        # coordinate and the members nonzero there are unreachable
        + [Conductive(lexvec(Z2, 0, 2)), LexCone(Z2, FULL_CONE)]
        + [LexCone(Z3, FIRST_POSITIVE)]
        + [Conductive(lexvec(Z3, *a)) for a in ((1, 0, 0), (1, -1, 2), (0, 1, -1))],
        ids=str,
    )
    def test_probe_matches_per_member_search(self, m):
        verdicts = set()
        if m.group.rank == 2:
            # tall boxes at small depths; a box of atoms as tall as the
            # window, where the codes of two-atom sums come closest to
            # member codes; short boxes at the default depth
            windows = [
                *product(((2, 12), (2, 20), (3, 12)), (1, 2, 3)),
                ((1, 6), 6), ((2, 6), None), ((3, 4), None),
            ]
        else:
            windows = list(product(((1, 2, 2), (2, 2, 2)), (2, 3)))
        for prop, (box, depth) in product(("ATM", "HFM", "LFM", "UFM"), windows):
            r = probe_property(m, prop, box, depth=depth)
            verdict, checked, note, element = _probe_by_search(m, prop, box, depth)
            assert (r.verdict, r.members_checked, r.note) == (verdict, checked, note), (
                prop, box, depth,
            )
            assert (r.witness or {}).get("element") == element, (prop, box, depth)
            verdicts.add(r.verdict)
        if m.group.rank == 2 and all(a.value[0] >= 1 for a in atoms(m, 1).atoms):
            # tall boxes at small depths leave members out of the window's
            # reach: their codes must stay unreachable in the table
            assert "inconclusive" in verdicts

    def test_numerical_probe_matches_per_member_search(self):
        # the probe table grows through tops 64, 128 and 256 of the codes,
        # value * den for den the generators' common denominator; two
        # generators a < b first have two lengths at a*b, so these
        # products put the first HFM and UFM failure past each top
        gens = minimal_numerical_monoids(3, 20)
        rng = random.Random(18)
        late = [g for g in gens if len(g) == 2 and 64 < g[0] * g[1] <= 300]
        # fractional generators: the witness is a code over den
        fractional = [(Fraction(3, 2), Fraction(5, 3)), (Fraction(2, 3), Fraction(1, 2), Fraction(5, 4))]
        codes = (1, 40, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300)
        witnesses = []
        for g in [(1,)] + rng.sample(late, 8) + rng.sample(gens, 12) + fractional:
            m = numerical(*g)
            den = lcm(*(Fraction(x).denominator for x in g))
            bounds = [Fraction(c, den) for c in codes]
            members = [b for b in members_within(m, max(bounds)) if not b.is_zero]
            searches = [factorizations(m, b) for b in members]
            assert all(s.complete for s in searches)
            for prop, bound in product(("ATM", "HFM", "LFM", "UFM"), bounds):
                r = probe_property(m, prop, bound)
                k = sum(1 for b in members if b.value <= bound)
                verdict, checked, note, element = _verdict_by_search(prop, members[:k], searches[:k])
                assert (r.verdict, r.members_checked, r.note) == (verdict, checked, note), (g, prop, bound)
                assert (r.witness or {}).get("element") == element, (g, prop, bound)
                if element is not None:
                    witnesses.append((den, element.value * den))
        assert max(w for _, w in witnesses) > 256 and any(64 < w <= 128 for _, w in witnesses)
        assert {den for den, _ in witnesses} >= {6, 12}

    # (3, 5) HFM is refuted at 15, so its table stops at top 64 whatever
    # the bound; (3, 5, 7) ATM is consistent and holds the reached bitset
    @pytest.mark.parametrize("gens, prop, bound", [
        ((3, 5), "HFM", 100000), ((3, 5), "LFM", 20000), ((1,), "LFM", 100000),
        ((3, 5), "HFM", 10**7), ((3, 5, 7), "ATM", 10**6),
    ])
    def test_large_probe_is_prompt(self, gens, prop, bound):
        start = time.perf_counter()
        probe_property(numerical(*gens), prop, bound)
        assert time.perf_counter() - start < 2.0
        # a second, traced run, as tracing slows the length tables: bitsets
        # of about bound bits, no list of the members
        tracemalloc.start()
        try:
            probe_property(numerical(*gens), prop, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_fallback_shapes_answer_as_before(self):
        r = probe_property(Conductive(lexvec(Z2, 0, 2)), "ATM", (2, 6))
        assert (r.verdict, r.members_checked) == ("refuted", 6)
        assert r.witness == {"element": lexvec(Z2, 1, -6), "reason": "no factorization into atoms"}
        r = probe_property(LexCone(Z2, FULL_CONE), "HFM", (2, 6))
        assert (r.verdict, r.members_checked) == ("refuted", 7)
        assert r.witness["element"] == lexvec(Z2, 1, -6)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            probe_property(GeometricPuiseux(Fraction(2, 3)), "ATM", 5)

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            probe_property(numerical(2, 3), "ACCP", 10)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_probe_matches_conductive_classifier(self, a):
        report = classify_conductive(lexvec(Z, a))
        for prop in ("ATM", "BFM", "FFM", "HFM", "LFM", "UFM"):
            r = probe_property(Conductive(lexvec(Z, a)), prop, 30 * a)
            expected = report.status(prop)
            if expected == "Proved":
                assert r.consistent, (a, prop)
            elif expected == "Refuted" and prop in ("HFM", "LFM", "UFM"):
                assert r.refuted, (a, prop)


def _probe_by_search(m, prop, box, depth):
    """(verdict, members checked, note, witness element) of a probe, from
    one factorization search per member."""
    members = [b for b in members_within(m, box) if not b.is_zero]
    if depth is None:
        depth = max(box) + 5
    return _verdict_by_search(prop, members, (factorizations(m, b, depth) for b in members))


def _verdict_by_search(prop, members, searches):
    """The probe's answer from each member's factorization search."""
    incomplete = False
    for checked, (b, search) in enumerate(zip(members, searches), 1):
        lens = [f.length for f in search.factorizations]
        if not lens:
            return ("refuted" if search.complete else "inconclusive"), checked, None, b
        incomplete = incomplete or not search.complete
        if (
            (prop == "HFM" and len(set(lens)) > 1)
            or (prop == "LFM" and len(set(lens)) < len(lens))
            or (prop == "UFM" and len(lens) > 1)
        ):
            return "refuted", checked, None, b
    note = "atom windows incomplete for some members" if incomplete else None
    return "consistent", len(members), note, None


class TestLengthFunction:
    def test_first_coordinate_on_conductive_plane(self):
        m = Conductive(lexvec(Z2, 1, 0))
        assert length_function_check(m, lambda v: v.value[0], samples=1000, bound=(3, 8))

    def test_zero_map_rejected(self):
        m = numerical(3, 5)
        assert not length_function_check(m, lambda v: 0, bound=20)

    def test_floor_by_five_rejected(self):
        m = numerical(3, 5)
        assert not length_function_check(m, lambda v: int(v.value) // 5, bound=20)


# the first-positive cones over Z^n, whose priority coordinate is a proved
# length function, and the other cone and plane monoids, which have none
PROVED_CONES = [
    LexCone(Z, FIRST_POSITIVE),
    LexCone(Z2, FIRST_POSITIVE),
    LexCone(Z2_SECOND, FIRST_POSITIVE),
    LexCone(Z3, FIRST_POSITIVE),
]
BIG = 10**12

# length sets of the monoids without one, as the window search gives them:
# (monoid, depth, point, max_count, lengths, complete)
WINDOW_LENGTHS = [
    (LexCone(Q2, FIRST_POSITIVE), 4, (1, 0), None, (), True),
    (LexCone(Q2, FIRST_POSITIVE), 4, (Fraction(3, 2), -1), 1, (), True),
    (LexCone(Z2, FULL_CONE), 6, (0, 3), None, (3,), True),
    (LexCone(Z2, FULL_CONE), 6, (0, 3), 1, (3,), False),
    (LexCone(Z2, FULL_CONE), 6, (1, 0), None, (), True),
    (LexCone(Z2, FULL_CONE), 6, (2, -1), None, (), True),
    (LexCone(Z2_SECOND, FULL_CONE), 6, (3, 0), None, (3,), True),
    (Conductive(lexvec(Z2, 1, 0)), 4, (1, 3), None, (1,), False),
    (Conductive(lexvec(Z2, 1, 0)), 4, (2, -5), None, (), False),
    (Conductive(lexvec(Z2, 1, 0)), 4, (3, 1), None, (2, 3), False),
    (Conductive(lexvec(Z2, 1, 0)), 4, (3, 1), 1, (3,), False),
    (Conductive(lexvec(Z2, 2, -1)), 4, (6, 0), None, (2, 3), False),
    (Conductive(lexvec(Z2, 0, 2)), 6, (0, 9), None, (3, 4), True),
    (Conductive(lexvec(Z2, 0, 2)), 6, (0, 9), 1, (4,), False),
    (Conductive(lexvec(Z2, 0, 2)), 6, (1, 0), None, (), True),
]


def _lead(b):
    return b.value[b.group.priority]


def _cone_point(m, lead, rest):
    """The element with priority coordinate lead and the others rest."""
    g = m.group
    coords = [0] * g.rank
    for i, c in zip(g.priority_order, (lead, *rest)):
        coords[i] = c
    return lexvec(g, *coords)


class TestProvedLength:
    """The first-positive cone over Z^n answers length sets and atomicity
    from its length function, the priority coordinate, with no search."""

    @pytest.mark.parametrize("m", PROVED_CONES, ids=str)
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_every_listed_atom_has_length_one(self, m, depth):
        listed = atoms(m, depth).atoms
        assert listed
        for a in listed:
            assert _lead(a) == 1
            assert length_set(m, a, depth).lengths == (1,)

    @pytest.mark.parametrize("m", PROVED_CONES, ids=str)
    @pytest.mark.parametrize("rest", [0, 1, -7, BIG, -(BIG**2)])
    @pytest.mark.parametrize("lead", [1, 2, BIG])
    def test_far_targets(self, m, lead, rest):
        """(10^12, y) and (1, y) with |y| beyond any window: the length is
        the priority coordinate, and the witness is (x - 1) e_p + (1, rest)."""
        b = _cone_point(m, lead, (rest,) * (m.group.rank - 1))
        for depth in (1, 8):
            ls = length_set(m, b, depth, max_count=1)
            assert ls.lengths == (lead,) and ls.complete
            w = is_atomic_element(m, b, depth)
            assert w.status == "yes" and w.factorization.length == lead
            total = zero(m.group)
            for a, c in w.factorization.pairs:
                assert _lead(a) == 1 and contains(m, a).is_in and c > 0
                total = total + a.scale(c)
            assert total == b
            pairs = w.factorization.pairs
            assert [a for a, _ in pairs] == sorted((a for a, _ in pairs), reverse=True)

    def test_witness_shape(self):
        m = LexCone(Z2, FIRST_POSITIVE)
        w = is_atomic_element(m, lexvec(Z2, BIG, 5))
        assert [(a.value, c) for a, c in w.factorization.pairs] == [((1, 5), 1), ((1, 0), BIG - 1)]
        w = is_atomic_element(m, lexvec(Z2, 3, 0))
        assert [(a.value, c) for a, c in w.factorization.pairs] == [((1, 0), 3)]
        w = is_atomic_element(m, lexvec(Z2, 1, -BIG))
        assert [(a.value, c) for a, c in w.factorization.pairs] == [((1, -BIG), 1)]

    @pytest.mark.parametrize("m", PROVED_CONES, ids=str)
    def test_zero(self, m):
        b = zero(m.group)
        assert length_set(m, b) == length_set(m, b, 1, max_count=1)
        assert length_set(m, b).lengths == (0,) and length_set(m, b).complete
        w = is_atomic_element(m, b)
        assert w.status == "yes" and w.factorization.pairs == ()

    @pytest.mark.parametrize("m", PROVED_CONES[1:], ids=str)
    def test_non_members_raise(self, m):
        # priority coordinate 0, trailing part positive: in G+, not in M
        b = _cone_point(m, 0, (0,) * (m.group.rank - 2) + (5,))
        assert b.is_positive and contains(m, b).is_out
        for query in (length_set, is_atomic_element, factorizations):
            with pytest.raises(NotAMember):
                query(m, b, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            length_set(m, -b, 4)
        with pytest.raises(GroupMismatch):
            length_set(m, rational(1), 4)

    def test_factorizations_stay_window_limited(self):
        # Z((2, 0)) is infinite: (1, t) + (1, -t) for every t
        m = LexCone(Z2, FIRST_POSITIVE)
        s = factorizations(m, lexvec(Z2, 2, 0), depth=6)
        assert len(s.factorizations) == 7 and not s.complete

    @pytest.mark.parametrize("m, depth, point, max_count, lengths, complete", WINDOW_LENGTHS,
                             ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in WINDOW_LENGTHS])
    def test_other_cones_and_planes_unchanged(self, m, depth, point, max_count, lengths, complete):
        b = GroupElement(m.group, point) if m.group.rational_coords else lexvec(m.group, *point)
        kwargs = {} if max_count is None else {"max_count": max_count}
        ls = length_set(m, b, depth, **kwargs)
        assert (ls.lengths, ls.complete) == (lengths, complete)
        search = factorizations(m, b, depth, **kwargs)
        assert set(ls.lengths) == {f.length for f in search.factorizations}
        assert ls.complete == search.complete


def _equal_builds():
    F = Fraction
    return [
        lambda: numerical(4, 7, 9, 11),
        lambda: FiniteGenerated((rational(F(3, 2)), rational(F(5, 6)), rational(F(5, 3)))),
        lambda: GeometricPuiseux(F(2, 3)),
        lambda: PrimeReciprocal(),
        lambda: Conductive(lexvec(Z2, 1, -3)),
        lambda: LexCone(Z2, FIRST_POSITIVE),
        lambda: Localized(3, F(4, 3)),
    ]


class TestDescriptorHash:
    @pytest.mark.parametrize("build", _equal_builds())
    def test_equal_descriptors_hash_equal_and_share_atoms(self, build):
        a, b = build(), build()
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert atoms(a, 3) is atoms(b, 3)

    def test_hash_is_the_same_before_and_after_the_window(self):
        gens = (rational(Fraction(3, 2)), rational(Fraction(5, 6)), rational(Fraction(17, 6)))
        a, b = FiniteGenerated(gens), FiniteGenerated(gens)
        h = hash(a)
        assert contains(a, rational(Fraction(13, 3))).is_in
        assert hash(a) == h
        b.window
        assert hash(b) == h and b == a
        assert b.window is not a.window

    def test_unequal_descriptors_never_share_a_window(self):
        ms = [
            numerical(3, 5), numerical(5, 3), numerical(3, 5, 8), numerical(3, 5, 7),
            FiniteGenerated((lexvec(Z, 3), lexvec(Z, 5))),
        ]
        owned = [{id(m.window), id(atoms(m, 4).window)} for m in ms]
        for i, j in product(range(len(ms)), repeat=2):
            if i != j:
                assert ms[i] != ms[j] and not owned[i] & owned[j], (ms[i], ms[j])
        # a minimal list shares its window with its atom set; 8 = 3 + 5 does not
        assert atoms(ms[0], 4).window is ms[0].window
        assert atoms(ms[2], 4).window is not ms[2].window

    def test_each_window_is_encoded_once(self, monkeypatch):
        built = []

        class Counting(factor_module.Window):
            __slots__ = ()

            def __init__(self, desc):
                built.append(tuple(desc))
                super().__init__(desc)

        # the atom sets and the finitely generated monoids build their own
        for module in (factor_module, descriptors_module):
            monkeypatch.setattr(module, "Window", Counting)
        # an atom set cached by an earlier run would keep its own window
        factor_module._atoms_cached.cache_clear()
        for gens, windows in (((6, 10, 15, 23), 1), ((6, 10, 15, 23, 16), 2)):
            built.clear()
            m = numerical(*gens)
            for v in range(1, 41):
                x = rational(v)
                if contains(m, x).is_in:
                    factorizations(m, x, depth=7)
                    length_set(m, x, depth=7)
            atoms(m, 7)
            probe_property(m, "HFM", 40, depth=7)
            assert len(built) == windows, built
