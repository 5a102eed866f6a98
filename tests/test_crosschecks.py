"""Deeper randomized cross-checks of the subtle decision procedures
against unstructured brute force, plus determinism properties the other
modules rely on."""

import random
import sys
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ALL_RATIOS,
    alphabeta_domain_by_fractions,
    alphabeta_domain_by_le_grade,
    brute_force_membership,
    brute_force_triple_factorizations,
    brute_force_vector_factorizations,
    graded_values_by_fractions,
    mq_members_below,
    mq_solve_by_gcd_steps,
    primes_by_trial,
    stern_calkin_wilf,
)
from posmon.elements import Group, GroupElement, Q, Q2, T, Z2, Z2_SECOND, lexvec, rational, triple, zero
from posmon.factor import atoms, factorizations, is_atomic_element, length_set
from posmon.descriptors import (
    AlphaBeta,
    FIRST_POSITIVE,
    FULL_CONE,
    GeometricPuiseux,
    LexCone,
    Product,
    PrimeReciprocal,
    Conductive,
    FiniteGenerated,
    NearlyAtomicAlpha,
    UnsupportedFamily,
    numerical,
    quasi_not_almost_instance,
)
from posmon.monoids import DEFAULT_DEPTH, _mq_solve, contains, generators, replay_certificate
from posmon.phi import _graded_values, alphabeta_domain, alphabeta_phi
from posmon.search import Window, _enumerate, _plane_walk, _scalar_search, _vector_search, _vector_tables
from posmon.elements import Z
from posmon.primes import _MR_LIMIT, calkin_wilf, factorize, is_prime


RATIOS = [Fraction(2, 3), Fraction(3, 5), Fraction(4, 7), Fraction(5, 8), Fraction(7, 9)]


def _check_canonical(q, x, rep):
    assert sum(c * q**i for i, c in rep) == x, (q, x, rep)
    assert all(c > 0 for _, c in rep)
    assert all(c < q.denominator for i, c in rep if i >= 1), (q, x, rep)


class TestCanonicalRepresentation:
    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_matches_brute_force(self, q):
        # a member whose denominator divides d^2 has its canonical
        # representation at indices <= 2, so the oracle over q^0, q^1, q^2
        # is complete on this grid (which holds every divisor of d^2)
        d = q.denominator
        gens = [q**i for i in range(3)]
        for k in range(0, 3 * d * d + 1):
            x = Fraction(k, d * d)
            rep = _mq_solve(q, x)
            assert (rep is not None) == brute_force_membership(gens, x), (q, x)
            if rep is not None:
                _check_canonical(q, x, rep)

    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_members_have_canonical_forms(self, q):
        for x in mq_members_below(q, 4, q.denominator + 1, Fraction(4)):
            rep = _mq_solve(q, x)
            assert rep is not None, (q, x)
            _check_canonical(q, x, rep)

    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_edge_values(self, q):
        d = q.denominator
        assert _mq_solve(q, Fraction(0)) == ()
        assert _mq_solve(q, Fraction(-1)) is None
        assert _mq_solve(q, Fraction(-1, d)) is None
        assert _mq_solve(q, q**3) == ((3, 1),)
        # a denominator with a prime that d lacks (1/5 and 1/6 at 2/3): no
        # power of d clears it, so this must end without a search
        for p in (2, 3, 5, 7, 11):
            if d % p:
                assert _mq_solve(q, Fraction(1, p)) is None
                assert _mq_solve(q, Fraction(1, p * d)) is None
                assert _mq_solve(q, Fraction(p * d + 1, p * d)) is None

    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_matches_gcd_step_oracle(self, q):
        # the binary-searched exponent and sparse digits against the
        # exponent-at-a-time loop and dense digits, on every divisor of
        # d^j (powers of d and the proper divisors between them), on
        # d^j times a prime d lacks, deep powers, zero and negatives
        rng = random.Random(f"mq-oracle-{q}")
        d = q.denominator
        dens = {e for j in range(4) for e in range(1, d**j + 1) if d**j % e == 0}
        dens |= {d**j for j in range(4, 40, 5)}
        dens |= {d**j * p for j in range(6) for p in (2, 3, 5, 7, 11, 13) if d % p}
        values = [Fraction(0), Fraction(-1), Fraction(-1, d), Fraction(-5, d**3)]
        for den in sorted(dens):
            nums = set(range(1, 2 * d + 2)) | {rng.randrange(1, 4 * den + 2) for _ in range(6)}
            values += [Fraction(num, den) for num in nums]
            values += [Fraction(-num, den) for num in sorted(nums)[:3]]
        members = 0
        for x in values:
            rep = _mq_solve(q, x)
            assert rep == mq_solve_by_gcd_steps(q, x), (q, x)
            members += rep is not None
        assert 0 < members < len(values)

    def test_denominator_properly_dividing_a_power_of_d(self):
        q = Fraction(3, 4)
        gens = [q**i for i in range(4)]
        assert _mq_solve(q, Fraction(1, 2)) is None
        assert not brute_force_membership(gens, Fraction(1, 2))
        assert _mq_solve(q, Fraction(3, 2)) == ((1, 2),)
        assert _mq_solve(q, Fraction(9, 8)) == ((2, 2),)
        assert brute_force_membership(gens, Fraction(9, 8))


class TestGeometricMembershipWide:
    @pytest.mark.parametrize("q", RATIOS, ids=str)
    def test_members_accepted_across_ratios(self, q):
        m = GeometricPuiseux(q)
        for x in mq_members_below(q, 4, 3, Fraction(5)):
            v = contains(m, rational(x))
            assert v.is_in, (q, x)
            assert replay_certificate(v, zero(Q)) == rational(x)

    @pytest.mark.parametrize("q", RATIOS, ids=str)
    def test_verdicts_match_brute_force_on_grid(self, q):
        m = GeometricPuiseux(q)
        d = q.denominator
        gens = [q**i for i in range(7)]
        rng = random.Random(hash(q) & 0xFFFF)
        for _ in range(120):
            x = Fraction(rng.randint(0, 3 * d**3), d**3)
            got = contains(m, rational(x))
            if x <= 3:
                # the oracle is complete on this range: any member with
                # value <= 3 has a representation over indices <= 6
                # except possibly those needing deeper powers, which the
                # denominator bound d^3 excludes
                expected = brute_force_membership(gens, x)
                if expected:
                    assert got.is_in, (q, x)
            if got.is_in:
                assert replay_certificate(got, zero(Q)) == rational(x)

    def test_deep_power_descends_without_recursion(self):
        # one descent level per power of d(q), far past the recursion limit
        q = Fraction(2, 3)
        x = rational(q**1500)
        v = contains(GeometricPuiseux(q), x)
        assert v.is_in
        assert replay_certificate(v, zero(Q)) == x

    def test_certificates_are_representations(self):
        m = GeometricPuiseux(Fraction(2, 3))
        rng = random.Random(31)
        accepted = 0
        for _ in range(400):
            x = Fraction(rng.randint(0, 200), 3 ** rng.randint(0, 4))
            v = contains(m, rational(x))
            if v.is_in:
                accepted += 1
                assert replay_certificate(v, zero(Q)) == rational(x)
        assert accepted > 100


class TestFiniteGeneratedMembership:
    GENERATORS = [
        (3, 5),
        (4, 6, 9),
        (6, 10, 15),
        (Fraction(2, 3), Fraction(1, 2), Fraction(5, 4)),
        (Fraction(3, 7), Fraction(5, 2)),
    ]

    @pytest.mark.parametrize("gens", GENERATORS, ids=lambda gens: ",".join(map(str, gens)))
    def test_verdicts_match_brute_force(self, gens):
        gens = [Fraction(g) for g in gens]
        m = FiniteGenerated(tuple(rational(g) for g in gens))
        den = lcm(*[g.denominator for g in gens])
        # denominators dividing the lcm of the generators' ones, and not
        targets = {Fraction(k, d) for d in (1, den, 2 * den, 3) for k in range(0, 20 * d + 1)}
        accepted = 0
        for x in sorted(targets):
            got = contains(m, rational(x))
            assert got.is_in == brute_force_membership(gens, x), (gens, x)
            if got.is_in:
                accepted += 1
                assert all(g in m.generators and c > 0 for g, c in got.certificate)
                assert replay_certificate(got, zero(Q)) == rational(x)
        assert accepted >= 5

    @pytest.mark.parametrize(
        "gens, target",
        [
            ((3, 5), 3 * 10**12),
            ((3, 5), 3 * 10**12 + 1),
            ((4, 6, 9), 10**12 + 1),
            (((2, 1), (1, 0)), (10**12, 0)),
            (((2, 1), (1, 0)), (10**12 + 2, 1)),
            (((1, -3), (2, 1), (0, 2)), (0, 2 * 10**12)),
            (((1, -3), (2, 1), (0, 2)), (1, 2 * 10**12 - 3)),
        ],
        ids=str,
    )
    def test_large_members_need_no_linear_search(self, gens, target):
        # the last generator's multiplicity is solved for: a search that
        # counted it upward would not finish on targets of this size
        if isinstance(target, tuple):
            m = FiniteGenerated(tuple(lexvec(Z2, *g) for g in gens))
            x, origin = lexvec(Z2, *target), zero(Z2)
        else:
            m = FiniteGenerated(tuple(rational(g) for g in gens))
            x, origin = rational(target), zero(Q)
        got = contains(m, x)
        assert got.is_in
        assert replay_certificate(got, origin) == x
        assert is_atomic_element(m, x).status == "yes"

    def test_lex_plane_verdicts_match_sums(self):
        gens = ((1, -3), (2, 1), (0, 2))
        m = FiniteGenerated(tuple(lexvec(Z2, *g) for g in gens))
        # a target with leading coordinate <= 4 and |trailing| <= 12 needs
        # c1 <= 4, c2 <= 2 and c3 <= 12 copies of the generators
        sums = {
            (c1 + 2 * c2, -3 * c1 + c2 + 2 * c3)
            for c1 in range(5) for c2 in range(3) for c3 in range(13)
        }
        for a in range(5):
            for b in range(-12, 13):
                x = lexvec(Z2, a, b)
                if x.is_negative:
                    continue
                got = contains(m, x)
                assert got.is_in == ((a, b) in sums), (a, b)
                if got.is_in:
                    assert replay_certificate(got, zero(Z2)) == x

    def test_atom_count_is_not_bounded_by_recursion(self):
        # 1200 generators: a search that recursed once per atom would
        # exceed the interpreter's default recursion limit
        m = numerical(*range(1001, 2201))
        for value in (2002, 2003):
            got = contains(m, rational(value))
            assert got.is_in
            assert replay_certificate(got, zero(Q)) == rational(value)
        assert contains(m, rational(1000)).is_out


class TestQuasiMembershipWide:
    def test_dense_grid_against_decomposition_search(self):
        quasi = quasi_not_almost_instance()
        dyadics = [Fraction(k, 16) for k in range(0, 80)]
        triadics = [Fraction(0)] + [Fraction(k, 27) for k in range(36, 150)]
        members = {u + v for u in dyadics for v in triadics}
        for k in range(1, 160):
            for den in (1, 2, 4, 3, 9, 6, 12, 27):
                x = Fraction(k, den)
                got = contains(quasi, rational(x))
                if x in members:
                    assert got.is_in, x
                if got.is_in and x <= 5:
                    u, v = None, None
                    cert = dict()
                    total = replay_certificate(got, zero(Q))
                    assert total == rational(x)


def _trial_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorization:
    def test_matches_trial_division(self):
        # past the sieve's square (2^32) the cofactor goes through Pollard
        # rho and Miller-Rabin
        rng = random.Random(5)
        nums = list(range(1, 3000)) + [rng.randrange(2**32, 2**35) for _ in range(12)]
        # the largest numbers below 2^16, which is_prime settles by trial division
        nums += [65519, 65521, 65533, 65535]
        nums += [65521**2, 65521**3, 65537 * 65539, 65537**3, 1000003 * 1000033, 3 * 65521 * 65537]
        for n in nums:
            expected = _trial_factorization(n)
            assert factorize(n) == expected, n
            assert is_prime(n) == (expected == {n: 1}), n

    @pytest.mark.parametrize("p, q", [(1000000007, 1000000009), (274177, 67280421310721)])
    def test_large_semiprimes(self, p, q):
        assert factorize(p * q) == {p: 1, q: 1}
        assert is_prime(p) and is_prime(q) and not is_prime(p * q)

    @pytest.mark.parametrize("n, expected", [
        ((2**61 - 1) * (2**31 - 1), {2**31 - 1: 1, 2**61 - 1: 1}),
        (65537**7, {65537: 7}),
        (65537**2 * 1000003**3, {65537: 2, 1000003: 3}),
    ], ids=["mersenne-pair", "65537^7", "65537^2*1000003^3"])
    def test_cofactors_above_the_miller_rabin_limit(self, n, expected):
        # each is at least _MR_LIMIT: rho splits it, Miller-Rabin proves the parts
        assert n >= _MR_LIMIT
        start = time.perf_counter()
        assert factorize(n) == expected
        assert not is_prime(n)
        assert time.perf_counter() - start < 1.0

    def test_probable_prime_above_the_limit_is_refused(self):
        # passes all 13 bases, so nothing here can certify it prime
        n = 3317044064679887385962123
        with pytest.raises(ValueError, match=str(n)):
            factorize(n)
        with pytest.raises(ValueError, match=str(n)):
            is_prime(n)
        with pytest.raises(ValueError, match=str(n)):
            factorize(6 * n)  # the cofactor left by the sieve


class TestPhiDeterminism:
    @pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(3, 5)], ids=str)
    def test_domain_prefix_stable(self, q):
        short = alphabeta_domain(q, 6)
        long = alphabeta_domain(q, 24)
        assert long[:6] == short

    def test_phi_stable_under_extension(self):
        q = Fraction(2, 3)
        dom = alphabeta_domain(q, 6)
        before = [alphabeta_phi(q, s) for s in dom]
        alphabeta_domain(q, 48)  # force a larger enumeration into the cache
        after = [alphabeta_phi(q, s) for s in dom]
        assert before == after

    def test_domain_values_below_sqrt2(self):
        for s in alphabeta_domain(Fraction(2, 3), 32):
            assert s.numerator**2 < 2 * s.denominator**2


# the ratios whose discovery order is checked against the <=-grade oracle
PHI_RATIOS = [Fraction(r) for r in ("2/3", "3/4", "3/5", "5/7", "2/5")]


class TestPhiByPosition:
    """Every atom takes the prime at its position in the enumeration that
    the library walks; both enumerations are checked against oracles that
    share no code with them."""

    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_domain_matches_the_le_grade_enumeration(self, q):
        assert alphabeta_domain(q, 480) == alphabeta_domain_by_le_grade(q, 480)

    def test_calkin_wilf_matches_stern(self):
        assert list(calkin_wilf(3000)) == stern_calkin_wilf(3000)

    def test_nearly_atoms_take_the_prime_at_their_position(self):
        got = {}
        for a in atoms(NearlyAtomicAlpha(), 3000).atoms:
            c0, c1, c2 = a.value  # (x + alpha)/p
            assert c1.numerator == 1 and c2 == 0
            got[c0 / c1] = c1.denominator
        assert got == dict(zip(stern_calkin_wilf(3000), primes_by_trial(3000)))

    @pytest.mark.parametrize("q", PHI_RATIOS, ids=str)
    def test_alphabeta_atoms_take_the_prime_at_their_position(self, q):
        alpha, beta = {}, {}
        for a in atoms(AlphaBeta(q), 480).atoms:
            c0, c1, c2 = a.value  # (alpha - s)/p, (beta - s)/p or q^i
            for coeff, phi in ((c1, alpha), (c2, beta)):
                if coeff:
                    assert coeff.numerator == 1
                    phi[-c0 / coeff] = coeff.denominator
        want = dict(zip(alphabeta_domain_by_le_grade(q, 480), primes_by_trial(480)))
        assert alpha == want and beta == want

    @pytest.mark.parametrize("q", PHI_RATIOS, ids=str)
    def test_alphabeta_generators_and_certificates_use_the_atoms(self, q):
        m = AlphaBeta(q)
        window = atoms(m, 12).atoms
        irrational = [a for a in window if any(a.value[1:])]
        assert sorted(g for g in generators(m, 12).generators if any(g.value[1:])) == irrational
        for x in (irrational[0] + irrational[-1], triple(0, 1, 1), irrational[3].scale(2) + triple(q**2, 0, 0)):
            v = contains(m, x, 12)
            assert v.is_in and replay_certificate(v, zero(m.group)) == x
            assert all(g in window for g, _ in v.certificate if any(g.value[1:])), x


class TestIrrationalCertificates:
    def test_alphabeta_in_certificates_replay(self):
        m = AlphaBeta(Fraction(2, 3))
        targets = [
            triple(0, 1, 0),
            triple(0, 0, 1),
            triple(0, 1, 1),
            triple(1, 1, 0),
            triple(Fraction(2, 3), 0, 1),
        ]
        for t in targets:
            v = contains(m, t, depth=10)
            assert v.is_in, t
            assert replay_certificate(v, zero(m.group)) == t

    def test_unknown_never_claimed_out(self):
        m = AlphaBeta(Fraction(2, 3))
        weird = triple(0, Fraction(1, 104729), 0)  # needs a far-away prime
        v = contains(m, weird, depth=4)
        assert v.is_unknown and v.depth == 4


class TestEngineEdges:
    def test_product_atoms_unsupported(self):
        p = Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1)))
        from posmon.descriptors import ProductElement

        with pytest.raises(UnsupportedFamily):
            factorizations(p, ProductElement(rational(1), lexvec(Z, 1)))

    def test_max_count_one_is_a_valid_existence_check(self):
        s = factorizations(PrimeReciprocal(), rational(1), depth=6, max_count=1)
        assert len(s.factorizations) == 1 and s.truncated

    @given(st.integers(1, 6), st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_plane_search_agrees_with_oracle(self, mm, nn):
        m = LexCone(Z2, FIRST_POSITIVE)
        desc = atoms(m, 8).atoms[::-1]
        b = lexvec(Z2, mm, nn)
        found = factorizations(m, b, 8)
        assert not found.truncated
        expected = brute_force_vector_factorizations([a.value for a in desc], (mm, nn))
        assert [_vector(desc, f) for f in found.factorizations] == expected
        _check_length_sets(m, b, 8, expected)

    def test_plane_lengths_do_not_recurse(self):
        """A plane window with more levels than the recursion limit: (3, 6)
        keeps a node open on every level down to the atom (1, 2), so the
        walk holds one open node per level.  Its vectors and its lengths
        come from the same walk, and both are checked against the vector
        loop over tables built from the same raw points (a ``Window`` of
        them would pick the walk), which shares no code with the walk.  The
        vector loop is asked for the walk's solutions only, since
        exhausting this window costs it about levels**3 nodes.  An
        untruncated count is the number of partitions of the trailing
        target into at most `leading` parts, so the walk's exhaustion is
        checked too."""
        levels = sys.getrecursionlimit() + 200
        ys = range(levels - 1, -1, -1)
        win = Window([lexvec(Z2, 1, y) for y in ys])
        assert win.search is _plane_walk
        tables = _vector_tables([(1, y) for y in ys])
        for target, max_count, count in (
            ((3, 6), 100, 7), ((3, 6), 3, 3), ((2, 0), 1, 1), ((3, 1), 100, 1),
        ):
            b = lexvec(Z2, *target)
            vectors, truncated = _enumerate(win, b, max_count)
            lengths = _enumerate(win, b, max_count, lengths_only=True)
            assert len(vectors) == count and truncated == (count == max_count), target
            assert vectors == _vector_search(tables, target, count, False)[0], target
            reference = _vector_search(tables, target, count, True)[0]
            assert lengths == (sorted(set(reference)), truncated), target


def _vector(desc, f):
    mults = dict(f.pairs)
    return tuple(mults.get(a, 0) for a in desc)


def _check_length_sets(m, b, depth, expected):
    """length_set under max_count 1 and 3 and in full: the lengths of the
    first max_count oracle vectors, and the completeness of the
    factorization search with the same max_count.  A first-positive cone
    over Z^n answers from its proved length, the priority coordinate: the
    one length, complete, that every oracle vector has too, also where the
    window holds none."""
    proved = isinstance(m, LexCone) and m.rule == FIRST_POSITIVE and not m.lex_group.rational_coords
    for k in (1, 3, None):
        cut = expected if k is None else expected[:k]
        kwargs = {} if k is None else {"max_count": k}
        ls = length_set(m, b, depth, **kwargs)
        lengths = {sum(v) for v in cut}
        if proved:
            lead = b.value[m.lex_group.priority]
            assert lengths <= {lead} and ls.lengths == (lead,), (b, k)
            assert ls.complete, (b, k)
            continue
        assert ls.lengths == tuple(sorted(lengths)), (b, k)
        assert ls.complete == factorizations(m, b, depth, **kwargs).complete, (b, k)


def _cleared(desc, b):
    """The atoms and b as int tuples: coordinates in priority order, times
    one common denominator."""
    values = [*desc, b]
    if b.group.kind == "Q":
        den = lcm(*(v.value.denominator for v in values))
        pts = [(int(v.value * den),) for v in values]
    else:
        order = b.group.priority_order
        pts = [tuple(v.value[i] for i in order) for v in values]
    return pts[:-1], pts[-1]


def _small_triples(m, depth):
    """Every window atom and sum of two of them of real value up to 1, and
    a few rationals."""
    desc = atoms(m, depth).atoms
    sums = {x + y for i, x in enumerate(desc) for y in desc[i:]}
    weights = (1, 2**0.5, 3**0.5)
    small = {b for b in (*desc, *sums) if sum(float(c) * w for c, w in zip(b.value, weights)) <= 1}
    return sorted(small, key=str) + [triple(x, 0, 0) for x in (F(1, 2), F(2, 3), 1, F(4, 3))]


Z3 = Group("lex", rank=3)
F = Fraction
# sqrt2 - 1, 3 - 2 sqrt2, sqrt3 - 1, 2 - sqrt3, sqrt3 - sqrt2 and 1: mixed
# signs within each atom, and no symmetry swapping sqrt2 and sqrt3
FG_T = FiniteGenerated(tuple(triple(*t) for t in (
    (-1, 1, 0), (3, -2, 0), (-1, 0, 1), (2, 0, -1), (0, -1, 1), (1, 0, 0),
)))
ORACLE_CASES = [
    ("numerical", numerical(4, 7, 9, 11), DEFAULT_DEPTH, [rational(k) for k in range(1, 41)]),
    (
        "rational-fg",
        FiniteGenerated((rational(F(1, 2)), rational(F(2, 3)), rational(F(5, 4)))),
        DEFAULT_DEPTH,
        [rational(F(k, 12)) for k in range(1, 61)],
    ),
    ("mq-2/3", GeometricPuiseux(F(2, 3)), 4, [rational(x) for x in mq_members_below(F(2, 3), 4, 1, F(3))]),
    ("mq-3/5", GeometricPuiseux(F(3, 5)), 3, [rational(x) for x in mq_members_below(F(3, 5), 3, 2, F(3))]),
    (
        "m0",
        PrimeReciprocal(),
        6,
        [rational(x) for x in (F(1), F(5, 6), F(31, 30), F(18, 77), F(2), F(71, 78), F(3, 2))],
    ),
    ("conductive-Z", Conductive(lexvec(Z, 3)), DEFAULT_DEPTH, [lexvec(Z, k) for k in range(3, 19)]),
    (
        "conductive-Z2-(0,2)",
        Conductive(lexvec(Z2, 0, 2)),
        DEFAULT_DEPTH,
        [lexvec(Z2, 0, y) for y in range(2, 13)] + [lexvec(Z2, 1, 0), lexvec(Z2, 1, 3)],
    ),
    (
        "full-cone",
        LexCone(Z2, FULL_CONE),
        DEFAULT_DEPTH,
        [lexvec(Z2, 0, y) for y in range(1, 9)] + [lexvec(Z2, 1, -2), lexvec(Z2, 2, 0)],
    ),
    (
        "NxZ",
        LexCone(Z2, FIRST_POSITIVE),
        4,
        [lexvec(Z2, x, y) for x in range(1, 4) for y in range(-5, 6)],
    ),
    ("N-cone", LexCone(Z, FIRST_POSITIVE), 3, [lexvec(Z, x) for x in range(1, 6)]),
    (
        "Z2p1-cone",
        LexCone(Z2_SECOND, FIRST_POSITIVE),
        3,
        [lexvec(Z2_SECOND, y, x) for x in range(1, 4) for y in range(-4, 5)],
    ),
    (
        "Z3-cone",
        LexCone(Z3, FIRST_POSITIVE),
        2,
        [lexvec(Z3, x, y, z) for x in (1, 2) for y in (-2, 0, 3) for z in (-1, 2)],
    ),
    (
        "conductive-Z3-(1,0,0)",
        Conductive(lexvec(Z3, 1, 0, 0)),
        2,
        [lexvec(Z3, x, y, z) for x in (1, 2, 3) for y in (-1, 0, 3) for z in (-2, 0, 1)],
    ),
    # budgets that leave less than the least leading coordinate die
    *(
        (f"conductive-Z2-{a}", Conductive(lexvec(Z2, *a)), depth,
         [lexvec(Z2, x, y) for x in range(10) for y in range(-4, 5) if (x, y) > (0, 0)])
        for a, depth in (((3, 1), 5), ((1, -2), 4), ((2, 0), 4))
    ),
    (
        "mixed-Z2",
        FiniteGenerated((lexvec(Z2, 0, 1), lexvec(Z2, 1, 2), lexvec(Z2, 2, 3))),
        DEFAULT_DEPTH,
        [lexvec(Z2, x, y) for x in range(4) for y in range(-2, 9) if x or y >= 0],
    ),
    *(
        (f"{name}-depth{depth}", m, depth, _small_triples(m, depth))
        for name, m in (
            ("alphabeta-2/3", AlphaBeta(F(2, 3))),
            ("alphabeta-3/4", AlphaBeta(F(3, 4))),
            ("nearly", NearlyAtomicAlpha()),
        )
        for depth in (2, 3, 4)
    ),
    ("fg-T", FG_T, DEFAULT_DEPTH, _small_triples(FG_T, DEFAULT_DEPTH)),
]


@pytest.mark.parametrize("name,m,depth,targets", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_factorizations_match_vector_oracle(name, m, depth, targets):
    """The ordered factorization list, and its prefix under max_count 1
    and 3, against nested loops over the cleared window (over exact real
    comparisons in the sqrt2/sqrt3 group); the length sets against the
    lengths of the same prefixes."""
    desc = atoms(m, depth).atoms[::-1]
    members = [b for b in targets if not b.is_zero and contains(m, b, depth).is_in]
    assert members
    for b in members:
        if b.group.kind == "sqrt23":
            expected = brute_force_triple_factorizations([a.value for a in desc], b.value)
        else:
            expected = brute_force_vector_factorizations(*_cleared(desc, b))
        full = factorizations(m, b, depth)
        assert not full.truncated
        assert [_vector(desc, f) for f in full.factorizations] == expected, b
        for k in (1, 3):
            cut = factorizations(m, b, depth, max_count=k)
            assert [_vector(desc, f) for f in cut.factorizations] == expected[:k], (b, k)
            assert cut.truncated == (len(expected) >= k), (b, k)
        _check_length_sets(m, b, depth, expected)



def _fg(group, *points):
    return FiniteGenerated(tuple(GroupElement(group, p) for p in points))


# the windows of finitely generated monoids over every encoding: fractional
# rationals (the first list is not minimal, 5/3 = 2 * 5/6), Z^2 with mixed
# leading coordinates, with the second priority, and with a coordinate 0 on
# every generator, Q^2 with a dropped coordinate and a plane window, and
# sqrt2/sqrt3 triples with the sqrt3 coefficient dropped (a vector window
# and a plane one)
WINDOW_CASES = [
    ("Q-fractional", _fg(Q, F(3, 2), F(5, 3), F(7, 4), F(5, 6)),
     [F(k, 12) for k in range(1, 61)] + [F(1, 7), F(10, 7), F(5, 24), F(41, 24)]),
    ("Q-non-minimal", numerical(3, 5, 6, 8, 10, 7), [F(k) for k in range(1, 31)] + [F(7, 2), F(1, 3)]),
    ("Z2-mixed-leads", _fg(Z2, (0, 1), (1, 0), (1, 2), (2, 1)),
     [(x, y) for x in range(4) for y in range(-1, 6)]),
    ("Z2-second-priority", _fg(Z2_SECOND, (0, 1), (1, 1), (-1, 2)),
     [(x, y) for x in range(-3, 4) for y in range(5)]),
    ("Z2-dropped", _fg(Z2, (2, 0), (3, 0), (7, 0)), [(x, y) for x in range(13) for y in (0, 1, -2)]),
    ("Q2-dropped", _fg(Q2, (F(1, 2), 0), (F(2, 3), 0), (F(5, 4), 0)),
     [(F(k, 12), y) for k in range(1, 37) for y in (0, F(1, 2))] + [(F(1, 5), 0), (F(6, 5), 0)]),
    ("Q2-plane", _fg(Q2, (F(1, 2), 1), (1, F(-1, 3)), (F(3, 2), 0)),
     [(F(x, 2), F(y, 3)) for x in range(1, 7) for y in range(-3, 10)] + [(F(1, 4), 0), (2, F(1, 5))]),
    ("T-dropped", _fg(T, (1, 0, 0), (-1, 1, 0), (3, -2, 0), (F(1, 2), 0, 0)),
     [(F(a, 2), b, c) for a in range(-2, 7) for b in (-1, 0, 1) for c in (0, 1)]
     + [(F(1, 3), 0, 0), (F(5, 4), 0, 0)]),
    ("T-plane", _fg(T, (1, 1, 0), (2, -1, 0), (1, 0, 0)),
     [(a, b, c) for a in range(1, 6) for b in range(-2, 3) for c in (0, 1)] + [(F(3, 2), 0, 0)]),
]


@pytest.mark.parametrize("name,m,targets", WINDOW_CASES, ids=[c[0] for c in WINDOW_CASES])
def test_cached_window_matches_brute_force(name, m, targets):
    """``_enumerate`` over the cached windows of the generators and of the
    atoms gives the brute-force vectors and lengths over the same lists,
    for members and non-members alike: targets whose denominator does not
    divide the window's, or that are nonzero on a coordinate every
    generator leaves at 0, have none.  Membership certificates are the
    first vector over the generators.

    A window builds its loop's tables once and every call shares them, so
    each window answers max_count 1, 3 and unbounded, vectors and lengths
    interleaved, and each answer must be the prefix of the full one (for
    a plane window, the set of its lengths), truncated exactly when the
    search was cut."""
    atom_set = atoms(m)
    assert m.window.atoms == tuple(sorted(set(m.generators), reverse=True))
    assert atom_set.window.atoms == atom_set.atoms[::-1]
    assert (atom_set.window is m.window) == (len(atom_set.atoms) == len(m.window.atoms))
    members = 0
    for t in targets:
        b = GroupElement(m.group, t)
        expected = {}
        for win in (m.window, atom_set.window):
            if b.group.kind == "sqrt23":
                expected[win] = brute_force_triple_factorizations([a.value for a in win.atoms], b.value)
            else:
                expected[win] = brute_force_vector_factorizations(*_cleared(win.atoms, b))
            for k in (1, 3, 10**6):
                full, cut = expected[win], len(expected[win]) >= k
                assert _enumerate(win, b, k) == (full[:k], cut), (b, k, win.atoms)
                lengths = [sum(v) for v in full[:k]]
                if win.search is _plane_walk:
                    lengths = sorted(set(lengths))
                assert _enumerate(win, b, k, lengths_only=True) == (lengths, cut), (b, k, win.atoms)
        if b.is_negative:
            continue
        first = expected[m.window][:1]
        verdict = contains(m, b)
        assert verdict.is_in == bool(first), b
        if first:
            members += 1
            assert verdict.certificate == tuple((a, c) for a, c in zip(m.window.atoms, first[0]) if c)
            assert replay_certificate(verdict, zero(m.group)) == b
    assert members


def test_window_cases_cover_every_loop():
    """``WINDOW_CASES`` run the scalar loop, the plane walk over both
    groups and the vector loop over both groups."""
    loops = {(m.window.search, m.group.kind) for _, m, _ in WINDOW_CASES}
    assert loops >= {(_scalar_search, "Q"), (_plane_walk, "lex"), (_plane_walk, "sqrt23"),
                     (_vector_search, "lex"), (_vector_search, "sqrt23")}


class TestGradedValuesInInts:
    """The int enumeration lists, grade by grade, exactly the values below
    sqrt2 of the Fraction enumeration, in its order."""

    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_each_grade_matches_the_fraction_reference(self, q):
        n, d = q.numerator, q.denominator
        for grade in range(1, 12):
            want = [v for v in graded_values_by_fractions(q, grade) if v.numerator**2 < 2 * v.denominator**2]
            got = [Fraction(v, d ** (grade - 1)) for v in _graded_values(n, d, grade)]
            assert got == want, grade

    @pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(7, 10), Fraction(9, 10)], ids=str)
    def test_domain_matches_the_fraction_reference(self, q):
        assert alphabeta_domain(q, 300) == alphabeta_domain_by_fractions(q, 300)
