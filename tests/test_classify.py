"""Classifier: conductive criteria, limit-point conclusions, recorded
classifications, and the implication-chain consistency layer."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from posmon.classify import (
    PROPERTIES,
    PropertyReport,
    Verdict,
    check_chain_consistency,
    classify_conductive,
    classify_known,
    limit_point_bfm,
)
from posmon.elements import Group, GroupElement, Z, Z2, lexvec, rational
from posmon.factor import atoms, probe_property
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
    UnsupportedFamily,
    almost_not_nearly_instance,
    numerical,
    quasi_not_almost_instance,
)


class TestConductiveClassifier:
    def test_full_cone_is_free(self):
        rep = classify_conductive(lexvec(Z, 1))
        for prop in PROPERTIES:
            assert rep.status(prop) == "Proved"

    def test_two_is_length_factorial_only(self):
        rep = classify_conductive(lexvec(Z, 2))
        assert rep.status("LFM") == "Proved"
        assert rep.status("HFM") == "Refuted"
        assert rep.status("UFM") == "Refuted"
        assert rep.status("FFM") == "Proved"
        assert rep.status("BFM") == "Proved"

    @pytest.mark.parametrize("a", [3, 4, 5, 6, 7, 8])
    def test_three_and_up(self, a):
        rep = classify_conductive(lexvec(Z, a))
        assert rep.status("FFM") == "Proved"
        assert rep.status("LFM") == "Refuted"
        assert rep.status("BFM") == "Proved"
        assert rep.status("ACCP") == "Proved"

    def test_plane_infinitesimal_class(self):
        rep = classify_conductive(lexvec(Z2, 0, 1))
        for prop in PROPERTIES:
            assert rep.status(prop) == "Refuted", prop

    def test_plane_dominant_class(self):
        rep = classify_conductive(lexvec(Z2, 1, 0))
        assert rep.status("BFM") == "Proved"
        assert rep.status("ACCP") == "Proved"
        assert rep.status("QAM") == "Proved"
        assert rep.status("FFM") == "Refuted"
        assert rep.status("LFM") == "Refuted"
        assert rep.status("HFM") == "Refuted"

    def test_rational_conductor(self):
        rep = classify_conductive(rational(Fraction(1, 2)))
        assert rep.status("BFM") == "Proved"
        assert rep.status("FFM") == "Refuted"  # the rationals are not cyclic

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            classify_conductive(lexvec(Z, 0))

    def test_bfm_iff_dominant_coordinate_over_boxes(self):
        for rank in (1, 2, 3):
            g = Group("lex", rank=rank)
            for coords in iproduct(range(-3, 4), repeat=rank):
                a = GroupElement(g, coords)
                if not a.is_positive:
                    continue
                rep = classify_conductive(a)
                expected = "Proved" if coords[0] != 0 else "Refuted"
                assert rep.status("BFM") == expected, coords


class TestConductiveAtomsMatchInterval:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_integer_case(self, a):
        window = atoms(Conductive(lexvec(Z, a)))
        assert [x.value for x in window.atoms] == [(k,) for k in range(a, 2 * a)]
        assert window.complete

    def test_plane_case_box(self):
        a = lexvec(Z2, 1, 2)
        window = atoms(Conductive(a), depth=10)
        two_a = a + a
        box = [
            GroupElement(Z2, (x, y)) for x in range(-3, 4) for y in range(-10, 11)
        ]
        expected = sorted(v.value for v in box if a <= v < two_a)
        got = [v.value for v in window.atoms if abs(v.value[0]) <= 3 and abs(v.value[1]) <= 10]
        assert got == expected


class TestLimitPoint:
    def test_finite_generators(self):
        v = limit_point_bfm(numerical(3, 5))
        assert v.applicable and v.bfm_proved
        assert v.infimum_witness.value == 3

    def test_geometric_not_applicable(self):
        v = limit_point_bfm(GeometricPuiseux(Fraction(2, 3)))
        assert not v.applicable and not v.bfm_proved

    def test_prime_reciprocal_not_applicable(self):
        v = limit_point_bfm(PrimeReciprocal())
        assert not v.applicable

    def test_localized_ray(self):
        assert limit_point_bfm(Localized(3, Fraction(4, 3))).bfm_proved
        assert not limit_point_bfm(Localized(2, Fraction(0))).applicable

    def test_non_archimedean_rejected(self):
        with pytest.raises(UnsupportedFamily):
            limit_point_bfm(Conductive(lexvec(Z2, 1, 0)))

    def test_triple_generators(self):
        m = Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1)))
        with pytest.raises(UnsupportedFamily):
            limit_point_bfm(m)


class TestKnownClassifications:
    def test_geometric(self):
        rep = classify_known(GeometricPuiseux(Fraction(2, 3)))
        assert rep.status("SAM") == "Proved"
        assert rep.status("ACCP") == "Refuted"
        assert rep.status("BFM") == "Refuted"
        assert rep.status("NAM") == "Proved"

    def test_prime_reciprocal(self):
        rep = classify_known(PrimeReciprocal())
        assert rep.status("ACCP") == "Proved"
        assert rep.status("BFM") == "Refuted"
        assert rep.status("FFM") == "Refuted"
        assert rep.verdicts["BFM"].witness["lengths"] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_product_inherits(self):
        m = Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1)))
        rep = classify_known(m)
        assert rep.status("SAM") == "Proved"
        assert rep.status("ACCP") == "Refuted"

    def test_product_guard(self):
        m = Product(GeometricPuiseux(Fraction(2, 3)), numerical(2, 3))
        with pytest.raises(UnsupportedFamily):
            classify_known(m)

    def test_probe_merge(self):
        m = numerical(3, 4, 5)
        pr = probe_property(m, "HFM", 60)
        rep = classify_known(m, probes=(pr,))
        assert rep.status("HFM") == "Refuted"
        assert rep.verdicts["HFM"].source.startswith("probe")

    def test_probe_for_wrong_instance_rejected(self):
        pr = probe_property(numerical(3, 4, 5), "HFM", 60)
        with pytest.raises(ValueError):
            classify_known(numerical(2, 3), probes=(pr,))


class TestChainConsistency:
    def _blank(self, conductive=False):
        return {p: Verdict("Unknown", "t") for p in PROPERTIES}

    def test_transitive_violation(self):
        v = self._blank()
        v["UFM"] = Verdict("Proved", "t")
        v["QAM"] = Verdict("Refuted", "t")
        rep = PropertyReport(numerical(2, 3), v)
        assert not check_chain_consistency(rep)

    def test_conductive_equivalences(self):
        v = self._blank()
        v["BFM"] = Verdict("Proved", "t")
        v["QAM"] = Verdict("Refuted", "t")
        rep = PropertyReport(Conductive(lexvec(Z, 1)), v, conductive=True)
        assert not check_chain_consistency(rep)
        v2 = self._blank()
        v2["UFM"] = Verdict("Refuted", "t")
        v2["HFM"] = Verdict("Proved", "t")
        rep2 = PropertyReport(Conductive(lexvec(Z, 1)), v2, conductive=True)
        assert not check_chain_consistency(rep2)

    def test_refuted_above_proved_is_fine(self):
        v = self._blank()
        v["FFM"] = Verdict("Refuted", "t")
        v["BFM"] = Verdict("Proved", "t")
        rep = PropertyReport(LexCone(Z2, FIRST_POSITIVE), v)
        assert check_chain_consistency(rep)

    @pytest.mark.parametrize(
        "m",
        [
            GeometricPuiseux(Fraction(2, 3)),
            PrimeReciprocal(),
            quasi_not_almost_instance(),
            almost_not_nearly_instance(),
            NearlyAtomicAlpha(),
            AlphaBeta(Fraction(2, 3)),
            LexCone(Z2, FIRST_POSITIVE),
            LexCone(Z2, FULL_CONE),
            Conductive(lexvec(Z2, 1, 0)),
            Conductive(lexvec(Z2, 0, 1)),
            Conductive(lexvec(Z, 5)),
        ],
        ids=str,
    )
    def test_every_emitted_report_is_consistent(self, m):
        rep = classify_known(m)
        assert check_chain_consistency(rep)
        assert rep.to_json()["chain_ok"] is True

    def test_non_archimedean_finitely_generated_is_ffm(self):
        # every finitely generated monoid is FFM; the limit-point criterion
        # is asked only over an Archimedean group
        rep = classify_known(FiniteGenerated((lexvec(Z2, 1, 0), lexvec(Z2, 0, 1))))
        assert rep.verdicts["FFM"] == Verdict("Proved", "known:finitely-generated-ffm")
        for prop in ("FFM", "BFM", "ACCP", "SAM", "ATM"):
            assert rep.status(prop) == "Proved"
        assert check_chain_consistency(rep)
        assert rep.to_json()["chain_ok"] is True
        # a numerical monoid keeps its limit-point source for BFM
        assert classify_known(numerical(3, 5)).verdicts["BFM"].source == "limit-point-criterion"


class TestReportJson:
    def test_schema(self):
        rep = classify_known(PrimeReciprocal())
        blob = rep.to_json()
        assert set(blob) >= {"instance", "verdicts", "chain_ok"}
        assert set(blob["verdicts"]) == set(PROPERTIES)
        for v in blob["verdicts"].values():
            assert {"status", "source"} <= set(v)
