"""Monoid descriptors: membership decisions, certificates, divisibility,
difference groups, generator windows, and the JSON forms."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_membership, mq_members_below
from posmon.elements import (
    Group, GroupElement, GroupMismatch, Q, Q2, Z, Z2, Z2_SECOND, lexvec, rational, triple, zero,
)
from posmon.descriptors import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    FiniteGenerated,
    GeometricPuiseux,
    LexCone,
    Localized,
    NearlyAtomicAlpha,
    PrimeReciprocal,
    Product,
    ProductElement,
    UnionShift,
    UnsupportedFamily,
    almost_not_nearly_instance,
    numerical,
    quasi_not_almost_instance,
)
from posmon.monoids import (
    _lex_box,
    _lex_from,
    _point_element,
    contains,
    divides,
    generators,
    gp_membership,
    members_within,
    replay_certificate,
)
from posmon.factor import atoms, is_atomic_element
from posmon.jsonforms import descriptor_from_json, descriptor_to_json
from posmon.phi import alphabeta_domain, alphabeta_phi
from posmon.primes import first_primes

MQ = GeometricPuiseux(Fraction(2, 3))
M0 = PrimeReciprocal()
QUASI = quasi_not_almost_instance()
ALMOST = almost_not_nearly_instance()


class TestDescriptors:
    def test_geometric_rejects_integer_inverse(self):
        with pytest.raises(ValueError):
            GeometricPuiseux(Fraction(1, 2))
        with pytest.raises(ValueError):
            GeometricPuiseux(Fraction(3, 2))

    def test_conductive_needs_positive(self):
        with pytest.raises(ValueError):
            Conductive(zero(Z))

    def test_finite_generated_validation(self):
        with pytest.raises(ValueError):
            FiniteGenerated((rational(0),))
        with pytest.raises(GroupMismatch):
            FiniteGenerated((rational(1), lexvec(Z, 1)))


class TestGeneratorWindows:
    def test_geometric_window(self):
        w = generators(GeometricPuiseux(Fraction(2, 3)), 3)
        assert [g.value for g in w.generators] == [
            Fraction(1),
            Fraction(2, 3),
            Fraction(4, 9),
            Fraction(8, 27),
        ]

    def test_prime_reciprocal_window(self):
        w = generators(M0, 4)
        assert [g.value for g in w.generators] == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 5),
            Fraction(1, 7),
        ]

    def test_first_primes_edge_counts(self):
        assert first_primes(0) == ()
        assert first_primes(1) == (2,)
        with pytest.raises(ValueError):
            first_primes(-1)

    def test_conductive_window(self):
        w = generators(Conductive(lexvec(Z, 3)), 4)
        assert [g.value for g in w.generators] == [(3,), (4,), (5,)]

    @pytest.mark.parametrize(
        "m",
        [
            MQ,
            M0,
            Conductive(lexvec(Z2, 1, 0)),
            LexCone(Z2, FIRST_POSITIVE),
            QUASI,
            ALMOST,
            NearlyAtomicAlpha(),
            AlphaBeta(Fraction(2, 3)),
        ],
        ids=str,
    )
    def test_windows_monotone_and_positive(self, m):
        w1 = set(generators(m, 3).generators)
        w2 = set(generators(m, 5).generators)
        assert w1 <= w2
        for g in w2:
            assert g.is_positive


class TestMembershipExamples:
    def test_conductive_rank_two(self):
        m = Conductive(lexvec(Z2, 1, 0))
        assert contains(m, lexvec(Z2, 0, 3)).is_out
        assert contains(m, lexvec(Z2, 2, -7)).is_in

    def test_geometric_denominator_law(self):
        assert contains(MQ, rational(Fraction(1, 2))).is_out

    def test_numerical_certificate(self):
        m = numerical(3, 5)
        assert contains(m, rational(7)).is_out
        v = contains(m, rational(8))
        assert v.is_in
        assert dict((g.value, c) for g, c in v.certificate) == {3: 1, 5: 1}

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            contains(MQ, rational(-1))

    def test_zero_always_in(self):
        for m in (MQ, M0, QUASI, ALMOST, numerical(3, 5)):
            v = contains(m, rational(0))
            assert v.is_in and v.certificate == ()


class TestDivides:
    def test_cone_divisibility(self):
        m = LexCone(Z2, FIRST_POSITIVE)
        assert divides(m, lexvec(Z2, 1, 5), lexvec(Z2, 2, 0)).is_in

    def test_identity_divides(self):
        for m, x in [(MQ, rational(Fraction(4, 9))), (M0, rational(1))]:
            assert divides(m, rational(0), x).is_in

    def test_positivity(self):
        assert divides(MQ, rational(Fraction(2, 3)), rational(Fraction(4, 9))).is_out


class TestGeometricMembership:
    def test_against_brute_force(self):
        q = Fraction(2, 3)
        member_vals = set(mq_members_below(q, 5, 6, Fraction(6)))
        rng = random.Random(7)
        for _ in range(300):
            x = Fraction(rng.randint(0, 54), 27)
            verdict = contains(MQ, rational(x))
            if x in member_vals:
                assert verdict.is_in
            if verdict.is_in:
                assert replay_certificate(verdict, zero(Q)) == rational(x)
                # denominator law: members have denominator dividing 3^N
                den = x.denominator
                while den % 3 == 0:
                    den //= 3
                assert den == 1

    def test_other_ratio(self):
        m = GeometricPuiseux(Fraction(4, 7))
        assert contains(m, rational(Fraction(1, 7))).is_out
        assert contains(m, rational(Fraction(4, 7))).is_in
        assert contains(m, rational(Fraction(8, 7))).is_in  # 2 * (4/7)
        v = contains(m, rational(Fraction(16, 49)))
        assert v.is_in and replay_certificate(v, zero(Q)) == rational(Fraction(16, 49))

    def test_members_enumerated_are_members(self):
        for x in mq_members_below(Fraction(2, 3), 4, 4, Fraction(4)):
            assert contains(MQ, rational(x)).is_in


class TestPrimeReciprocalMembership:
    def test_examples(self):
        assert contains(M0, rational(Fraction(1, 4))).is_out
        assert contains(M0, rational(Fraction(1, 6))).is_out  # 1/6 < 1/2+1/3 residues
        v = contains(M0, rational(Fraction(5, 6)))
        assert v.is_in  # 1/2 + 1/3
        assert replay_certificate(v, zero(Q)) == rational(Fraction(5, 6))

    def test_against_brute_force(self):
        gens = [Fraction(1, p) for p in (2, 3, 5, 7, 11, 13)]
        rng = random.Random(11)
        for _ in range(200):
            x = Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 5, 6, 10, 15, 30]))
            expected = brute_force_membership(gens, x) if x <= 4 else None
            got = contains(M0, rational(x))
            if expected is not None and x.denominator in (1, 2, 3, 5, 6, 10, 15, 30):
                assert got.is_in == expected or got.is_in
                if expected:
                    assert got.is_in

    def test_integers_in(self):
        for n in range(6):
            assert contains(M0, rational(n)).is_in


class TestQuasiInstance:
    def test_crt_decision(self):
        assert contains(QUASI, rational(Fraction(1, 2))).is_in
        assert contains(QUASI, rational(Fraction(4, 3))).is_in
        assert contains(QUASI, rational(Fraction(1, 3))).is_out
        assert contains(QUASI, rational(Fraction(17, 12))).is_out
        assert contains(QUASI, rational(Fraction(17, 6))).is_in
        assert contains(QUASI, rational(Fraction(1, 5))).is_out

    def test_against_brute_force_grid(self):
        dyadics = [Fraction(k, 8) for k in range(0, 33)]
        triadics = [Fraction(0)] + [
            Fraction(k, 9) for k in range(12, 40)
        ]  # >= 4/3
        members = {u + v for u in dyadics for v in triadics}
        for x in sorted(members):
            assert contains(QUASI, rational(x)).is_in
        for x in [Fraction(7, 6), Fraction(5, 12), Fraction(11, 9), Fraction(1, 9)]:
            assert x not in members
            assert contains(QUASI, rational(x)).is_out

    def test_certificates_replay(self):
        rng = random.Random(3)
        for _ in range(100):
            u = Fraction(rng.randint(0, 64), 2 ** rng.randint(0, 4))
            v = rng.choice([Fraction(0), Fraction(rng.randint(12, 81), 9)])
            x = u + v
            verdict = contains(QUASI, rational(x))
            assert verdict.is_in
            assert replay_certificate(verdict, zero(Q)) == rational(x)


class TestAlmostInstance:
    def test_union_rule(self):
        assert contains(ALMOST, rational(Fraction(1, 2))).is_in
        assert contains(ALMOST, rational(Fraction(3, 2))).is_in
        assert contains(ALMOST, rational(Fraction(5, 4))).is_out
        assert contains(ALMOST, rational(Fraction(1, 4))).is_out
        assert contains(ALMOST, rational(Fraction(13, 10))).is_in

    @pytest.mark.parametrize("threshold", [Fraction(0), Fraction(1, 3)], ids=str)
    def test_union_threshold_below_half_rejected(self, threshold):
        # at 1/3 the tail splits 1/2 = 5/14 + 1/7
        with pytest.raises(UnsupportedFamily):
            UnionShift(PrimeReciprocal(), threshold=threshold)
        obj = descriptor_to_json(ALMOST)
        obj["threshold"] = str(threshold)
        with pytest.raises(UnsupportedFamily):
            descriptor_from_json(obj)

    def test_union_threshold_half_keeps_prime_reciprocals(self):
        window = atoms(UnionShift(PrimeReciprocal(), threshold=Fraction(1, 2)), 6)
        assert [a.value for a in window.atoms] == sorted(Fraction(1, p) for p in first_primes(6))

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_union_threshold_outside_m0_is_an_atom(self, depth):
        # 173/210 = 1/2 + 2/3 + 4/5 + 6/7 - 2 lies in the tail but not in
        # M_0, so nothing splits it; 5/4 lies in neither and adds nothing
        theta = Fraction(173, 210)
        m = UnionShift(PrimeReciprocal(), threshold=theta)
        reciprocals = [Fraction(1, p) for p in first_primes(depth)]
        window = atoms(m, depth)
        assert [a.value for a in window.atoms] == sorted([*reciprocals, theta])
        assert not window.complete
        assert is_atomic_element(m, rational(theta), depth).status == "yes"
        window = atoms(UnionShift(PrimeReciprocal(), threshold=Fraction(5, 4)), depth)
        assert [a.value for a in window.atoms] == sorted(reciprocals)


class TestIrrationalFamilies:
    def test_nearly_membership(self):
        m = NearlyAtomicAlpha()
        v = contains(m, triple(0, 1, 0))
        assert v.is_in
        assert replay_certificate(v, zero(m.group)) == triple(0, 1, 0)
        assert contains(m, triple(Fraction(7, 2), 0, 0)).is_in
        assert contains(m, triple(0, 0, 1)).is_out
        assert contains(m, triple(2, -1, 0)).is_out

    def test_nearly_unknown_is_honest(self):
        m = NearlyAtomicAlpha()
        # an alpha-coordinate needing a prime far outside the window
        v = contains(m, triple(0, Fraction(1, 9973), 0), depth=4)
        assert v.is_unknown and v.depth == 4

    def test_alphabeta_membership(self):
        m = AlphaBeta(Fraction(2, 3))
        assert contains(m, triple(0, 1, 0)).is_in
        assert contains(m, triple(0, 0, 1)).is_in
        assert contains(m, triple(Fraction(4, 9), 0, 0)).is_in
        assert contains(m, triple(Fraction(1, 2), 0, 0)).is_out
        v = contains(m, triple(0, 1, 1))  # alpha + beta
        assert v.is_in
        assert replay_certificate(v, zero(m.group)) == triple(0, 1, 1)

    def test_alphabeta_phi_deterministic(self):
        dom = alphabeta_domain(Fraction(2, 3), 6)
        assert dom[0] == 0
        assert alphabeta_phi(Fraction(2, 3), dom[0]) == 2
        assert len(set(alphabeta_phi(Fraction(2, 3), s) for s in dom)) == len(dom)

    def test_nearly_atoms_take_calkin_wilf_primes(self):
        # phi reads the position in 0, 1, 1/2, 2, ...: the atom of x is (alpha + x)/phi(x)
        want = {(Fraction(x) / p, Fraction(1, p), 0) for x, p in (("0", 2), ("1", 3), ("1/2", 5), ("2", 7))}
        assert {a.value for a in atoms(NearlyAtomicAlpha(), 4).atoms} == want


class TestProduct:
    def test_componentwise(self):
        p = Product(MQ, Conductive(lexvec(Z, 1)))
        good = ProductElement(rational(Fraction(2, 3)), lexvec(Z, 4))
        bad = ProductElement(rational(Fraction(1, 2)), lexvec(Z, 4))
        assert contains(p, good).is_in
        assert contains(p, bad).is_out

    @given(
        st.fractions(min_value=0, max_value=4, max_denominator=27),
        st.integers(0, 10),
    )
    @settings(max_examples=60)
    def test_product_semantics(self, x, n):
        p = Product(MQ, Conductive(lexvec(Z, 1)))
        pe = ProductElement(rational(x), lexvec(Z, n))
        left = contains(MQ, rational(x))
        right = contains(Conductive(lexvec(Z, 1)), lexvec(Z, n))
        combined = contains(p, pe)
        assert combined.is_in == (left.is_in and right.is_in)

    def test_divides_componentwise(self):
        p = Product(MQ, Conductive(lexvec(Z, 1)))
        d = ProductElement(rational(Fraction(2, 3)), lexvec(Z, 0))
        x = ProductElement(rational(Fraction(5, 3)), lexvec(Z, 2))
        assert divides(p, d, x).is_in  # 5/3 - 2/3 = 1 in M_q, 2 in N0


class TestMonotonicity:
    @pytest.mark.parametrize("m", [MQ, M0, QUASI, ALMOST, numerical(3, 5)], ids=str)
    def test_exact_families_depth_independent(self, m):
        rng = random.Random(5)
        for _ in range(50):
            x = Fraction(rng.randint(0, 30), rng.choice([1, 2, 3, 6, 9]))
            low = contains(m, rational(x), depth=2)
            high = contains(m, rational(x), depth=20)
            assert low.status == high.status

    def test_unknown_can_become_in(self):
        m = NearlyAtomicAlpha()
        x = triple(Fraction(1, 2), Fraction(1, 5), 0)  # needs phi..=5 (q=1/2)
        shallow = contains(m, x, depth=2)
        deep = contains(m, x, depth=6)
        assert deep.is_in
        assert shallow.status in ("unknown", "in")


Z3 = Group("lex", rank=3)
FG_Q = FiniteGenerated(tuple(rational(Fraction(x)) for x in ("1/2", "2/3", "5/4")))


def _brute_box(group, box, keep):
    """The box points in natural coordinate order, as elements, kept by
    the rule and sorted by the group's own comparison."""
    pts = product(*(range(-b, b + 1) for b in box))
    return tuple(sorted(v for v in (GroupElement(group, p) for p in pts) if keep(v)))


class TestMembersWithin:
    """members_within against filters that share no code with it."""

    @pytest.mark.parametrize(
        "m,box,keep",
        [
            (LexCone(Z2, FIRST_POSITIVE), (3, 5), lambda v: v.is_zero or v.value[0] > 0),
            (LexCone(Z2_SECOND, FIRST_POSITIVE), (4, 2), lambda v: v.is_zero or v.value[1] > 0),
            (LexCone(Z2, FULL_CONE), (2, 4), lambda v: not v.is_negative),
            (LexCone(Z3, FIRST_POSITIVE), (2, 1, 2), lambda v: v.is_zero or v.value[0] > 0),
            (Conductive(lexvec(Z, 3)), (9,), lambda v: v.is_zero or v.value[0] >= 3),
            (Conductive(lexvec(Z2, 1, -2)), (3, 4), lambda v: v.is_zero or v >= lexvec(Z2, 1, -2)),
            (Conductive(lexvec(Z2, 0, 2)), (2, 5), lambda v: v.is_zero or v >= lexvec(Z2, 0, 2)),
            (
                Conductive(GroupElement(Z2_SECOND, (-1, 1))),
                (3, 2),
                lambda v: v.is_zero or v >= GroupElement(Z2_SECOND, (-1, 1)),
            ),
        ],
        ids=lambda x: None if callable(x) else str(x),
    )
    def test_lex_boxes(self, m, box, keep):
        assert members_within(m, box) == _brute_box(m.group, box, keep)

    @pytest.mark.parametrize(
        "group", [Z, Z2, Z2_SECOND, Q2, Group("lex", rank=3, priority=1)], ids=str
    )
    def test_lex_box_is_ascending(self, group):
        for n in (1, 2, 3):
            grids, den = _lex_box(group, (n,) * group.rank)
            box = [_point_element(group, p, den) for p in product(*grids)]
            assert box == sorted(box)

    @pytest.mark.parametrize("group", [Z, Z2, Q2, Group("lex", rank=3, priority=1)], ids=str)
    def test_lex_from_skips_the_points_below_its_start(self, group):
        grids, den = _lex_box(group, (2,) * group.rank)
        coords = (-3 * den, -den, 0, Fraction(den, 3), den, 3 * den)
        for k in range(group.rank + 1):
            for start in product(coords, repeat=k):
                expected = [p for p in product(*grids) if p[:k] >= start]
                assert list(_lex_from(grids, start)) == expected, start

    @pytest.mark.parametrize("m", [
        Conductive(lexvec(Q2, 0, Fraction(3, 2))), LexCone(Q2, FIRST_POSITIVE), LexCone(Q2, FULL_CONE),
    ], ids=str)
    def test_rational_boxes_raise(self, m):
        # a box of Q^2 holds infinitely many members
        with pytest.raises(UnsupportedFamily):
            members_within(m, (2, 3))

    def test_scalar_bound_is_a_cube(self):
        m = Conductive(lexvec(Z2, 1, 0))
        assert members_within(m, 2) == members_within(m, (2, 2))

    @pytest.mark.parametrize(
        "m,bound",
        [
            (numerical(3, 5), 20),
            (numerical(4, 6, 9), Fraction(31, 2)),
            (FG_Q, 0),
            (FG_Q, Fraction(7, 2)),
            (FG_Q, Fraction(10, 3)),
            (FG_Q, 4),
        ],
        ids=str,
    )
    def test_rational_reach(self, m, bound):
        gens = [g.value for g in m.generators]
        grid = 24 * Fraction(bound).denominator  # a multiple of every denominator
        expected = tuple(
            rational(Fraction(k, grid))
            for k in range(int(bound * grid) + 1)
            if brute_force_membership(gens, Fraction(k, grid))
        )
        assert members_within(m, bound) == expected


class TestGpMembership:
    def test_examples(self):
        assert gp_membership(numerical(3, 5), rational(1)) is True
        assert gp_membership(numerical(4, 6), rational(3)) is False
        assert gp_membership(QUASI, rational(Fraction(1, 2))) is False
        assert gp_membership(QUASI, rational(Fraction(5, 9))) is True
        assert gp_membership(M0, rational(Fraction(3, 10))) is True
        assert gp_membership(M0, rational(Fraction(1, 4))) is False
        assert gp_membership(ALMOST, rational(Fraction(7, 6))) is True

    def test_rational_lattice(self):
        m = FiniteGenerated((rational(Fraction(2, 3)), rational(Fraction(1, 2))))
        # gp = (1/6) Z
        assert gp_membership(m, rational(Fraction(5, 6))) is True
        assert gp_membership(m, rational(Fraction(1, 4))) is False

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            gp_membership(LexCone(Z2, FULL_CONE), lexvec(Z2, 1, 0))


class TestJson:
    @pytest.mark.parametrize(
        "m",
        [
            numerical(3, 5),
            MQ,
            M0,
            Conductive(lexvec(Z2, 1, 0)),
            LexCone(Q2, FIRST_POSITIVE),
            Localized(3, Fraction(4, 3)),
            QUASI,
            ALMOST,
            AlphaBeta(Fraction(2, 3)),
            NearlyAtomicAlpha(),
            Product(MQ, Conductive(lexvec(Z, 1))),
        ],
        ids=str,
    )
    def test_descriptor_roundtrip(self, m):
        blob = json.dumps(descriptor_to_json(m), sort_keys=True)
        assert descriptor_from_json(json.loads(blob)) == m
