"""Harness behavior: equivalence records, squarefree localization
equivalences, the conjecture scan, spaces, and the example suite."""

import itertools
import json

import pytest

from polymat import lab
from polymat.ideal import (
    ResourceLimitExceeded,
    is_single_degree,
    localize,
    parse_ideal,
)
from polymat.lab import (
    IdealSpace,
    check_pure_powers_classification,
    check_veronese_reconstruction,
    example_suite,
    scan_conjecture,
    space_ideals,
    verify_equivalences,
    verify_squarefree,
)
from polymat.polymatroid import VeroneseParams, is_polymatroidal, veronese
from polymat.resolution import has_linear_resolution

from oracles import taylor_betti


def I(text, n):
    return parse_ideal(text, n)


class TestIdealSpace:
    def test_exhaustive_enumerates_antichains_once(self):
        space = IdealSpace(nvars=2, maxdeg=2, maxgens=3)
        ideals = list(space_ideals(space))
        assert len(ideals) == len(set(ideals))
        for ideal in ideals:
            assert not ideal.is_zero and not ideal.is_unit
        # antichains over {x1, x2, x1^2, x1x2, x2^2}:
        # 5 singletons, 6 pairs, 1 triple
        assert len(ideals) == 12

    def test_exhaustive_budget(self):
        space = IdealSpace(nvars=3, maxdeg=3, maxgens=4)
        with pytest.raises(ResourceLimitExceeded):
            list(space_ideals(space, enum_budget=10))

    def test_sampled_deterministic(self):
        space = IdealSpace(nvars=3, maxdeg=3, maxgens=4, mode="sampled", samples=20, seed=99)
        a = list(space_ideals(space))
        b = list(space_ideals(space))
        assert a == b

    def test_sampled_seed_sensitivity(self):
        mk = lambda s: list(
            space_ideals(
                IdealSpace(nvars=3, maxdeg=3, maxgens=4, mode="sampled", samples=20, seed=s)
            )
        )
        assert mk(1) != mk(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealSpace(nvars=0, maxdeg=2, maxgens=2)
        with pytest.raises(ValueError):
            IdealSpace(nvars=2, maxdeg=2, maxgens=2, mode="sampled")


class TestVerifyEquivalences:
    def test_gap_ideal_all_conditions_false(self):
        rec = verify_equivalences(I("x1^2, x1*x2, x3^2, x2*x3", 3))
        assert rec.conditions == {k: False for k in "abcde"}
        assert not rec.violation
        # witnesses identify failing capped divisors
        assert "d" in rec.witnesses and "e" in rec.witnesses

    def test_triangle_all_true(self):
        rec = verify_equivalences(I("x1*x2, x1*x3, x2*x3", 3))
        assert rec.conditions == {k: True for k in "abcde"}
        assert not rec.violation

    def test_principal_all_true(self):
        rec = verify_equivalences(I("x1^2*x2^3", 2))
        assert rec.conditions == {k: True for k in "abcde"}

    def test_zero_violations_small_exhaustive(self):
        space = IdealSpace(nvars=2, maxdeg=3, maxgens=4)
        for ideal in space_ideals(space):
            rec = verify_equivalences(ideal)
            assert not rec.violation, str(ideal)

    def test_record_serializes(self):
        rec = verify_equivalences(I("x1*x2, x1*x3^2, x2*x3^2", 3))
        data = rec.to_json()
        json.dumps(data)
        assert data["conditions"]["a"] is False


class TestVerifySquarefree:
    def test_triangle(self):
        rec = verify_squarefree(I("x1*x2, x1*x3, x2*x3", 3), kmax=2)
        assert rec["matroidal"] and not rec["violation"]

    def test_disjoint_edges(self):
        rec = verify_squarefree(I("x1*x2, x3*x4", 4), kmax=2)
        assert not rec["matroidal"] and not rec["violation"]
        assert rec["cor12"]["d"] is False

    def test_principal(self):
        rec = verify_squarefree(I("x1", 2), kmax=2)
        assert rec["matroidal"] and not rec["violation"]

    def test_requires_squarefree(self):
        with pytest.raises(ValueError):
            verify_squarefree(I("x1^2", 2))


class TestScan:
    def test_exhaustive_n2_no_disagreements(self):
        report = scan_conjecture(IdealSpace(nvars=2, maxdeg=3, maxgens=4))
        assert report.summary["reverse_candidates"] == 0
        assert report.summary["forward_violations"] == 0
        assert report.summary["total"] > 0

    def test_deterministic_reports(self):
        space = IdealSpace(nvars=3, maxdeg=2, maxgens=3, mode="sampled", samples=25, seed=5)
        a = scan_conjecture(space).stable_json()
        b = scan_conjecture(space).stable_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_forward_sanity_on_polymatroidal_corpus(self):
        # no polymatroidal ideal may show a non-linear localization
        for params in [
            VeroneseParams(2, (1, 1, 1)),
            VeroneseParams(3, (2, 2, 1)),
            VeroneseParams(2, (2, 2)),
        ]:
            ideal = veronese(params)
            assert is_polymatroidal(ideal)[0]
            for size in range(ideal.nvars):
                import itertools

                for C in itertools.combinations(range(1, ideal.nvars + 1), size):
                    loc = localize(ideal, C)
                    if not loc.is_unit:
                        assert has_linear_resolution(loc), (params, C)

    def test_counterexample_records_self_verify(self):
        report = scan_conjecture(IdealSpace(nvars=2, maxdeg=2, maxgens=3))
        for item in report.items:
            ideal = parse_ideal(item["ideal"], item["nvars"])
            assert is_polymatroidal(ideal)[0] == item["polymatroidal"]
            if item["failing_subset"] is not None:
                loc = localize(ideal, item["failing_subset"])
                assert not has_linear_resolution(loc)


class TestScanMemo:
    def test_resource_limit_is_not_memoized(self, monkeypatch):
        calls = []

        def first_call_exceeds(J, char=0):
            calls.append(J)
            if len(calls) == 1:
                raise ResourceLimitExceeded("lcm lattice exceeds budget")
            return has_linear_resolution(J, char)

        monkeypatch.setattr(lab, "has_linear_resolution", first_call_exceeds)
        report = scan_conjecture(IdealSpace(nvars=2, maxdeg=2, maxgens=1))
        first = calls[0]
        assert first == I("x2", 2)
        assert report.items[0]["ideal"] == "x2"
        assert report.items[0]["status"] == "skipped"
        assert report.summary["skipped"] == 1
        # x1*x2 localizes at x1 -> 1 to the skipped ideal, decided anew
        later = [item for item in report.items[1:] if item["ideal"] == "x1*x2"]
        assert later and later[0]["status"] == "agree"
        assert later[0]["all_localizations_linear"] is True
        assert calls.count(first) == 2
        # every other localization is decided once per scan
        assert len(calls) == len(set(calls)) + 1

    def test_exhaustive_scan_matches_taylor_recomputation(self):
        def linear_by_oracle(J):
            if not is_single_degree(J):
                return False
            d = J.gens[0].degree
            return all(j == i + d for (i, j) in taylor_betti(J))

        def profile_by_oracle(J):
            for size in range(J.nvars):
                for C in itertools.combinations(range(1, J.nvars + 1), size):
                    loc = localize(J, C)
                    if not loc.is_unit and not linear_by_oracle(loc):
                        return False, list(C)
            return True, None

        space = IdealSpace(nvars=3, maxdeg=2, maxgens=3)
        report = scan_conjecture(space)
        ideals = list(space_ideals(space))
        assert len(report.items) == len(ideals)
        for item, ideal in zip(report.items, ideals):
            assert item["ideal"] == str(ideal)
            expected = profile_by_oracle(ideal)
            assert (item["all_localizations_linear"], item["failing_subset"]) == expected, item


class TestVeroneseReconstruction:
    def test_veronese_inputs_pass(self):
        for p in [VeroneseParams(3, (2, 2, 1)), VeroneseParams(2, (1, 1, 1))]:
            res = check_veronese_reconstruction(veronese(p))
            assert res["premise"] and res["conclusion"]

    def test_non_linear_input_skipped(self):
        res = check_veronese_reconstruction(I("x1^2, x1*x2, x3^2, x2*x3", 3))
        assert res == {"premise": False}

    def test_premise_never_contradicted_small_corpus(self):
        # any corpus ideal satisfying the localization pattern must be Veronese
        for ideal in space_ideals(IdealSpace(nvars=2, maxdeg=3, maxgens=3)):
            res = check_veronese_reconstruction(ideal)
            if res.get("premise"):
                assert res["conclusion"], str(ideal)


class TestPurePowersClassification:
    def test_constructed_positives(self):
        for n, d, k in [(2, 2, 1), (3, 2, 1), (3, 3, 2), (2, 3, 0)]:
            caps = tuple(d if i < n - 1 else k for i in range(n))
            if sum(caps) < d:
                continue
            ideal = veronese(VeroneseParams(d, caps))
            res = check_pure_powers_classification(ideal)
            assert res["premise"] and res["conclusion"], (n, d, k)

    def test_premise_rejects_nonlinear(self):
        res = check_pure_powers_classification(I("x1^2, x2^2", 2))
        assert res == {"premise": False}

    def test_corpus_never_contradicts(self):
        for space in (
            IdealSpace(nvars=2, maxdeg=3, maxgens=4),
            IdealSpace(nvars=3, maxdeg=2, maxgens=4),
        ):
            for ideal in space_ideals(space):
                res = check_pure_powers_classification(ideal)
                if res.get("premise"):
                    assert res["conclusion"], str(ideal)


class TestDegreeTwoClassification:
    def test_polymatroidal_iff_localizations_linear(self):
        # degree-2 instance of the conjecture is a proved equivalence
        import itertools

        for ideal in space_ideals(IdealSpace(nvars=3, maxdeg=2, maxgens=5)):
            if ideal.degrees() != (2,):
                continue
            pm = is_polymatroidal(ideal)[0]
            locs = True
            for size in range(3):
                for C in itertools.combinations(range(1, 4), size):
                    loc = localize(ideal, C)
                    if not loc.is_unit and not has_linear_resolution(loc):
                        locs = False
            assert pm == locs, str(ideal)


class TestExampleSuite:
    def test_all_required_pass(self):
        report = example_suite(0)
        failures = [
            it["name"] for it in report.items if not it["experimental"] and not it["passed"]
        ]
        assert report.summary["all_passed"], failures

    def test_experimental_items_labelled(self):
        report = example_suite(0)
        exp = {it["name"] for it in report.items if it["experimental"]}
        assert exp == {
            "experimental-Im-polymatroidal",
            "experimental-socle-component-polymatroidal",
        }

    def test_report_is_json_serializable(self):
        report = example_suite(0)
        json.dumps(report.to_json())

    def test_char2_suite(self):
        report = example_suite(2)
        assert report.summary["all_passed"]
