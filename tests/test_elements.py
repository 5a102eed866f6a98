"""Ordered-elements: exact arithmetic, total orders, Archimedean
valuation, and canonical text forms for the three ground groups."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements_of, lex_ints, lex_rationals, rationals, triples
from oracles import exact_real_sign, interval_sign
from posmon.elements import (
    _int_triple_sign,
    EQ,
    GT,
    Group,
    GroupElement,
    GroupMismatch,
    LT,
    Q,
    Q2,
    T,
    Z,
    Z2,
    Z2_SECOND,
    arch_valuation,
    add,
    big_o,
    compare,
    group_from_token,
    lexvec,
    negate,
    parse_element,
    rational,
    scale,
    to_text,
    triple,
    zero,
)


class TestCompare:
    def test_lex_first_priority(self):
        assert compare(lexvec(Z2, 0, 5), lexvec(Z2, 1, -100)) == LT

    def test_sqrt2_below_three_halves(self):
        # derived: the interval oracle places sqrt2 ~ 1.414 below 3/2
        assert interval_sign(Fraction(-3, 2), Fraction(1), Fraction(0)) == -1
        assert compare(triple(0, 1, 0), triple(Fraction(3, 2), 0, 0)) == LT

    def test_reflexive(self):
        q = rational(Fraction(7, 3))
        assert compare(q, q) == EQ

    def test_second_priority_convention(self):
        # with priority in the second coordinate, (1,0) is infinitesimal
        assert compare(lexvec(Z2_SECOND, 1, 0), lexvec(Z2_SECOND, 0, 1)) == LT
        assert compare(lexvec(Z2_SECOND, -5, 1), lexvec(Z2_SECOND, 5, 0)) == GT

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            compare(rational(1), lexvec(Z, 1))


class TestArithmetic:
    def test_rational_add(self):
        assert add(rational(Fraction(1, 2)), rational(Fraction(1, 3))) == rational(
            Fraction(5, 6)
        )

    def test_negate_vector(self):
        assert negate(lexvec(Z2, 2, -3)) == lexvec(Z2, -2, 3)

    def test_scale_triple(self):
        assert scale(3, triple(0, 1, 0)) == triple(0, 3, 0)

    def test_scale_matches_repeated_addition(self):
        g = lexvec(Z2, 3, -7)
        assert scale(4, g) == g + g + g + g

    @given(rationals(), rationals(), rationals())
    def test_order_respects_addition_rationals(self, g, h, c):
        if g <= h:
            assert g + c <= h + c

    @given(lex_ints(), lex_ints(), lex_ints())
    def test_order_respects_addition_lex(self, g, h, c):
        if g <= h:
            assert g + c <= h + c

    @given(triples(), triples(), triples())
    @settings(max_examples=60)
    def test_order_respects_addition_triples(self, g, h, c):
        if g <= h:
            assert g + c <= h + c

    @given(rationals(), rationals(), st.integers(-20, 20))
    def test_lowest_terms_closed_under_arithmetic(self, g, h, n):
        for x in (g + h, -g, g.scale(n)):
            v = x.value
            assert v.denominator >= 1
            from math import gcd

            assert gcd(v.numerator, v.denominator) == 1


class TestArchValuation:
    def test_two_classes_of_lex_plane(self):
        c_upper = arch_valuation(lexvec(Z2, 0, 7))
        c_lower = arch_valuation(lexvec(Z2, 3, -5))
        assert c_upper.level == 1
        assert c_lower.level == 0
        assert c_lower < c_upper  # the dominant class is the minimum

    def test_rationals_single_class(self):
        assert arch_valuation(rational(5)) == arch_valuation(rational(Fraction(-1, 9)))

    def test_real_span_single_class(self):
        assert arch_valuation(triple(1, 1, 0)) == arch_valuation(triple(0, 0, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            arch_valuation(zero(Z2))

    @given(st.sampled_from([Q, Z2, T]), st.data())
    @settings(max_examples=120)
    def test_superadditive(self, group, data):
        g = data.draw(elements_of(group))
        h = data.draw(elements_of(group))
        s = g + h
        if g.is_zero or h.is_zero or s.is_zero:
            return
        vg, vh, vs = arch_valuation(g), arch_valuation(h), arch_valuation(s)
        low = vg if vg < vh else vh
        assert low <= vs or low == vs
        if vg != vh or (g.is_positive and h.is_positive):
            assert vs == low


class TestBigO:
    def test_lex_cases(self):
        assert big_o(lexvec(Z2, 0, 5), lexvec(Z2, 1, 0)) is True
        assert big_o(lexvec(Z2, 1, 0), lexvec(Z2, 0, 5)) is False

    def test_rationals_always(self):
        assert big_o(rational(1_000_000), rational(Fraction(1, 7))) is True

    def test_rank_three(self):
        z3 = group_from_token("Z3")
        assert big_o(GroupElement(z3, (0, 0, 9)), GroupElement(z3, (0, 1, 0))) is True

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            big_o(rational(1), rational(0))


class TestTripleSign:
    def test_against_interval_oracle(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            c = [
                Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(3)
            ]
            mine = compare(triple(*c), zero(T))
            assert mine == interval_sign(*c)

    def test_near_cancellation(self):
        # 665857/470832 is a continued-fraction convergent of sqrt2
        close = triple(Fraction(-665857, 470832), 1, 0)
        assert close.is_negative
        assert interval_sign(Fraction(-665857, 470832), Fraction(1), Fraction(0)) == -1

    def test_zero_triple(self):
        assert compare(zero(T), triple(0, 0, 0)) == EQ

    def test_int_entry_refines_past_the_first_precision(self):
        # Pell convergents p/q of sqrt2 and sqrt3 with q past 2^130:
        # p - q*sqrt(d) is about 1/q, far below the 64-bit first interval
        for d, (p, q), (x, y) in ((2, (1, 1), (3, 2)), (3, (2, 1), (2, 1))):
            for _ in range(70):
                p, q = p * x + d * q * y, p * y + q * x
                for a, b, c in ((p, -q, 0), (-p, q, 0), (p, 0, -q), (0, q, -p)):
                    v = (a, b, c) if d == 2 else (a, c, b)
                    assert _int_triple_sign(*v) == exact_real_sign(*v), v


class TestTextForms:
    @given(rationals())
    def test_rational_roundtrip(self, x):
        assert parse_element(Q, to_text(x)) == x

    @given(lex_ints())
    def test_lex_roundtrip(self, x):
        assert parse_element(Z2, to_text(x)) == x

    @given(lex_rationals())
    def test_lex_rational_roundtrip(self, x):
        assert parse_element(Q2, to_text(x)) == x

    @given(triples())
    def test_triple_roundtrip(self, x):
        assert parse_element(T, to_text(x)) == x

    def test_canonical_forms(self):
        assert to_text(lexvec(Z2, 1, -100)) == "(1,-100)@prio=0"
        assert to_text(triple(Fraction(1, 2), Fraction(-3, 2), 0)) == (
            "1/2 + -3/2*sqrt2 + 0*sqrt3"
        )

    def test_priority_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_element(Z2, "(1,2)@prio=1")


class TestGroups:
    def test_rank_bound(self):
        with pytest.raises(ValueError):
            Group("lex", rank=9)

    def test_group_tokens_roundtrip(self):
        for tok in ("Q", "T", "Z", "Z2", "Z2p1", "Z3", "Q2"):
            assert group_from_token(tok).token == tok

    def test_cyclic_detection(self):
        assert Z.is_cyclic
        assert not Q.is_cyclic
        assert not Z2.is_cyclic
        assert not group_from_token("Q2").is_cyclic

    def test_integer_group_rejects_fractions(self):
        with pytest.raises(ValueError):
            GroupElement(Z2, (Fraction(1, 2), 0))
