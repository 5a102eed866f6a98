"""Gallery entries and the command-line front end: instance grammar,
subcommands, exit codes, and output determinism."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from posmon.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    main,
    parse_instance,
)
from posmon.elements import Z, Z2, lexvec
from posmon.gallery import by_id, gallery_list, run_entry
from posmon.descriptors import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    GeometricPuiseux,
    LexCone,
    NearlyAtomicAlpha,
    PrimeReciprocal,
    UnionShift,
    numerical,
)
from posmon.witness import synthesize_break

# prime_sum_refutation(1/5) as a document; replay stopped only once the
# greedy prefix reached ``count`` primes, so a count below 1 never returned
PRIME_SUM_1_5 = {
    "kind": "prime-sum-refutation",
    "q": "1/5",
    "excluded": [5],
    "count": 643,
    "last_prime": 4789,
    "sum_num_digest": "sha256:9f6d6e9327033f012a2a2ff4debe2e35a1b913f24cab419483a29b76a225c3b1",
    "sum_den_digest": "sha256:033120502e89cb1d29b42bc6fb52c2891138e7970fbd34dfa73a3ce37699e003",
}
# a one-step break over the depth-6 chain of M_(2/3) as a document
BREAK_6 = synthesize_break(Fraction(2, 3), 1, depth=6).to_json()


def break_6(divides_index, leftover_indices):
    """BREAK_6 with its step's divisibility witness replaced."""
    step = {**BREAK_6["steps"][0], "divides_index": divides_index, "leftover_indices": leftover_indices}
    return {**BREAK_6, "steps": [step]}


class TestGallery:
    def test_at_least_eleven_entries(self):
        assert len(gallery_list()) >= 11

    def test_ids_unique_and_deterministic(self):
        ids = [e.id for e in gallery_list()]
        assert len(set(ids)) == len(ids)
        assert ids == [e.id for e in gallery_list()]

    def test_required_instances_present(self):
        ids = {e.id for e in gallery_list()}
        assert {
            "antimatter-QxQ",
            "nonatomic-ZxZ",
            "malphabeta",
            "mq-2/3",
            "m0",
            "conductive-Z2-C1",
            "conductive-Z2-C2",
            "nearly-not-atomic",
            "almost-not-nearly",
            "quasi-not-almost",
            "hfm-NxZ",
        } <= ids

    def test_entries_self_describing(self):
        for e in gallery_list():
            assert e.headline
            assert e.expected
            assert e.descriptor is not None

    def test_entries_built_once(self):
        assert gallery_list() is gallery_list()

    @pytest.mark.parametrize("entry_id", [e.id for e in gallery_list()])
    def test_id_resolves_to_the_entry_descriptor(self, entry_id):
        assert parse_instance(entry_id) is by_id(entry_id).descriptor

    def test_family_text_is_no_gallery_id(self):
        with pytest.raises(KeyError):
            by_id("nm:3,5")

    @pytest.mark.parametrize("entry_id", [e.id for e in gallery_list()])
    def test_recipes_reproduce_expected(self, entry_id):
        result = run_entry(by_id(entry_id), 12)
        failures = [(n, d) for n, ok, d in result.checks if not ok]
        assert result.ok, failures


class TestInstanceGrammar:
    def test_families(self):
        assert parse_instance("nm:3,5") == numerical(3, 5)
        assert parse_instance("mq:2/3") == GeometricPuiseux(Fraction(2, 3))
        assert parse_instance("m0") == PrimeReciprocal()
        assert parse_instance("conductive:Z:a=3") == Conductive(lexvec(Z, 3))

    def test_conductive_plane(self):
        m = parse_instance("conductive:Z2:a=(1,0)")
        assert m == Conductive(lexvec(Z2, 1, 0))

    def test_cones(self):
        assert parse_instance("cone:NxZ") == LexCone(Z2, FIRST_POSITIVE)
        assert parse_instance("cone:ZxZ") == LexCone(Z2, FULL_CONE)

    def test_special_instances(self):
        assert isinstance(parse_instance("nearly"), NearlyAtomicAlpha)
        assert isinstance(parse_instance("quasi"), UnionShift)
        assert isinstance(parse_instance("almost"), UnionShift)
        assert parse_instance("malphabeta:2/3") == AlphaBeta(Fraction(2, 3))

    def test_gallery_ids_resolve(self):
        assert parse_instance("hfm-NxZ") == LexCone(Z2, FIRST_POSITIVE)

    def test_unknown(self):
        from posmon.cli import InstanceError

        with pytest.raises(InstanceError):
            parse_instance("wat:1,2")


class TestCliCommands:
    def test_classify_plane_json(self, capsys):
        code = main(["classify", "conductive:Z2:a=(1,0)", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["verdicts"]["BFM"]["status"] == "Proved"
        assert out["verdicts"]["FFM"]["status"] == "Refuted"
        assert out["chain_ok"] is True

    def test_atoms_command(self, capsys):
        code = main(["atoms", "conductive:Z:a=3", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["atoms"] == ["(3)@prio=0", "(4)@prio=0", "(5)@prio=0"]
        assert out["complete"] is True

    def test_factorize_command(self, capsys):
        code = main(["factorize", "nm:3,5", "15", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert len(out["factorizations"]) == 2
        assert sorted(f["length"] for f in out["factorizations"]) == [3, 5]

    def test_lengths_command(self, capsys):
        code = main(["lengths", "m0", "1", "--depth", "6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["lengths"] == [2, 3, 5, 7, 11, 13]
        assert out["complete"] is False

    def test_lengths_in_the_sqrt_group(self, capsys):
        code = main(["lengths", "malphabeta:2/3", "0 + 1*sqrt2 + 1*sqrt3", "--depth", "6"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("L(0 + 1*sqrt2 + 1*sqrt3) = {")

    def test_probe_refuted_exit_one(self, capsys):
        code = main(["probe", "conductive:Z:a=3", "HFM", "--bound", "60", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_REFUTED
        assert out["verdict"] == "refuted"

    def test_probe_consistent_exit_zero(self, capsys):
        code = main(["probe", "conductive:Z:a=2", "LFM", "--bound", "60"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_probe_box_bound(self, capsys):
        code = main(["probe", "hfm-NxZ", "HFM", "--bound", "3,10"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_chain_writes_verifiable_certificate(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        code = main(["chain", "mq:2/3", "--depth", "10", "-o", str(path), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_REFUTED
        assert len(out["differences"]) == 10
        code = main(["verify", str(path)])
        assert code == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_break_command(self, capsys, tmp_path):
        path = tmp_path / "break.json"
        code = main(["break", "mq:2/3", "--steps", "2", "-o", str(path)])
        capsys.readouterr()
        assert code == EXIT_REFUTED
        assert main(["verify", str(path)]) == EXIT_OK
        capsys.readouterr()

    def test_verify_legacy_break_document(self, capsys):
        # written before exclusions were certified by a gcd: the exhaustive
        # search counts it records are no longer replayed
        path = Path(__file__).parent / "data" / "break_legacy.json"
        steps = json.loads(path.read_text())["steps"]
        assert all(st["exclusion"]["combinations_checked"] > 0 for st in steps)
        assert main(["verify", str(path)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["factorize", "nm:3,5", "1/0"],
            ["factorize", "cone:NxZ", "(1/0,2)"],
            ["probe", "nm:3,5", "HFM", "--bound", "1/0"],
            ["probe", "nm:3,5", "HFM", "--bound", "-1"],
            ["probe", "cone:NxZ", "HFM", "--bound", "(1,-2)"],
            ["probe", "nm:3,5", "HFM", "--bound", "(1,2)"],
            ["classify", "mq:1/0"],
            ["break", "mq:2/3", "--depth", "1", "--steps", "1"],
        ],
        ids=" ".join,
    )
    def test_bad_input_exit_usage(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "Traceback" not in err and err.startswith(("error:", "cannot parse"))

    def test_verify_tampered_exit_two(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        main(["chain", "mq:2/3", "--depth", "4", "-o", str(path), "--json"])
        capsys.readouterr()
        blob = json.loads(path.read_text())
        blob["differences"][0] = "1/7"
        path.write_text(json.dumps(blob))
        code = main(["verify", str(path)])
        assert code == EXIT_MISMATCH
        assert "FAIL" in capsys.readouterr().out

    def test_verify_unreadable_file_exit_usage(self, capsys, tmp_path):
        code = main(["verify", str(tmp_path / "missing.json")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "Traceback" not in err and "cannot read" in err

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            [{"kind": "ascending-chain"}],
            "chain",
            {"kind": ["ascending-chain"]},
            {"kind": "ascending-chain", "ratio": None, "elements": [], "differences": []},
            {"kind": "ascending-chain", "ratio": "2/3", "elements": None, "differences": []},
            {"kind": "ascending-chain", "ratio": "2/3", "elements": ["1"]},
            *({**PRIME_SUM_1_5, "count": count} for count in (0, -1, None, "3x")),
            # replay stops once a prime passes last_prime, not after count primes
            {**PRIME_SUM_1_5, "count": 2_000_000},
            # a denominator that Miller-Rabin cannot factor into certified primes
            {**PRIME_SUM_1_5, "q": "1/3317044064679887385962123"},
            # step indices past the chain, and negative ones, which Python
            # indexing would wrap to the chain's end (s_6 = s'_1 + a_3..a_6)
            break_6(99, []),
            break_6(2, [99]),
            break_6(-1, [3, 4, 5, 6]),
            break_6(6, [-3, -2, -1, 0]),
        ],
        ids=["list", "list-of-object", "string", "list-kind", "null-ratio", "null-elements", "no-differences",
             "count-0", "count-negative", "count-null", "count-text", "count-2000000", "q-uncertified",
             "divides-index-99", "leftover-index-99", "divides-index-negative", "leftover-indices-negative"],
    )
    def test_verify_malformed_document_exit_two(self, capsys, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["verify", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "Traceback" not in captured.err

    def test_factorize_deep_mq_power_is_total(self, capsys):
        # the membership descent takes one level per power of d(q)
        value = Fraction(2, 3) ** 1500
        code = main(["factorize", "mq:2/3", str(value)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "0 found (window-limited)" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["factorize", "lengths"])
    def test_m0_semiprime_denominator_is_prompt(self, capsys, command):
        # 1000000016000000063 = 1000000007 * 1000000009: squarefree, and
        # the forced residues overshoot 1/(pq) by one, so not a member
        start = time.perf_counter()
        code = main([command, "m0", "1/1000000016000000063"])
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "is not a member of M_0" in err and "Traceback" not in err

    def test_m0_uncertifiable_denominator_is_refused(self, capsys):
        # the denominator is above the Miller-Rabin limit and passes all 13
        # bases, so no prime factor of it can be certified
        start = time.perf_counter()
        code = main(["factorize", "m0", "1/3317044064679887385962123"])
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "cannot certify" in err and "Traceback" not in err

    def test_unknown_instance_exit_usage(self, capsys):
        code = main(["atoms", "mystery:9"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_chain_on_wrong_family(self, capsys):
        code = main(["chain", "nm:3,5"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_gallery_listing(self, capsys):
        code = main(["gallery"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "antimatter-QxQ" in out and "hfm-NxZ" in out

    def test_gallery_json_deterministic(self, capsys):
        main(["gallery", "--json"])
        first = capsys.readouterr().out
        main(["gallery", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_gallery_run_all_byte_identical(self, capsys):
        code = main(["gallery", "--run-all", "--json", "--depth", "6"])
        first = capsys.readouterr().out
        assert code == EXIT_OK
        code = main(["gallery", "--run-all", "--json", "--depth", "6"])
        second = capsys.readouterr().out
        assert code == EXIT_OK
        assert first == second

    def test_gallery_run_all_matches_committed_output(self, capsys):
        expected = Path(__file__).parents[1] / "perfbench" / "gallery_run_all.json"
        code = main(["gallery", "--run-all", "--json"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected.read_text()

    def test_gallery_jobs_flag(self, capsys):
        code = main(["gallery", "--run-all", "--jobs", "4", "--depth", "6"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_gallery_mismatch_exits_two(self, capsys, monkeypatch):
        import posmon.cli as cli_mod
        from posmon.gallery import GalleryEntry, gallery_list

        broken = GalleryEntry(
            "broken-entry",
            gallery_list()[0].descriptor,
            "deliberately failing entry",
            (("QAM", "Proved"),),
            lambda m, depth: [("forced failure", False, "")],
        )
        monkeypatch.setattr(cli_mod, "gallery_list", lambda: (broken,))
        code = main(["gallery", "--run-all"])
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert "FAIL" in out and "MISMATCH" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["factorize", "nm:3,5"],
            ["bogus"],
            ["atoms", "nm:3,5", "--depth", "x"],
            ["factorize", "nm:3,5", "8", "--max-count", "0"],
            ["factorize", "nm:3,5", "8", "--max-count", "-3"],
            ["atoms", "conductive:Z2:a=(1,0)", "--depth", "0"],
            ["atoms", "cone:QxQ", "--depth", "-2"],
            ["factorize", "cone:NxZ", "(1,0)", "--depth", "0"],
            ["lengths", "m0", "1", "--depth", "0"],
            ["lengths", "cone:NxZ", "(1,0)", "--depth", "0"],
            ["classify", "m0", "--depth", "0"],
            ["gallery", "--run-all", "--depth", "0"],
        ],
        ids=" ".join,
    )
    def test_command_line_usage_error_exits_usage(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["factorize", "--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out

    def test_max_count_one(self, capsys):
        assert main(["factorize", "nm:3,5", "15", "--max-count", "1", "--json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["factorizations"]) == 1 and out["truncated"]

    def test_element_parse_failure_exits_usage(self, capsys):
        code = main(["factorize", "nm:3,5", "x/y"])
        capsys.readouterr()
        assert code == EXIT_USAGE
