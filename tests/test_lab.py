"""Harness behavior: equivalence records, squarefree localization
equivalences, the conjecture scan, spaces, and the example suite."""

import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polymat import lab, quotients, resolution
from polymat.ideal import (
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    UnitIdealError,
    colon,
    colons,
    component,
    is_single_degree,
    localize,
    parse_ideal,
    power,
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
from polymat.polymatroid import VeroneseParams, is_matroidal, is_polymatroidal, veronese
from polymat.quotients import revlex_lq
from polymat.resolution import (
    betti_table,
    has_linear_resolution,
    is_componentwise_linear,
    lcm_lattice,
    upper_koszul_complex,
)

from oracles import lcm_divisors, localization_profile_by_walk, taylor_betti


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

    def test_exhaustive_walk_leaves_no_cycle(self):
        # the recursive walk refers to itself; its cell is cleared when the
        # walk finishes or is closed, so refcounting frees it all
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                list(space_ideals(IdealSpace(2, 2, 2)))
            partial = space_ideals(IdealSpace(2, 2, 2))
            next(partial)
            del partial
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_decreasing_revlex_failure_is_a_violation(self, monkeypatch):
        # b implies c (Herzog-Takayama): a c-failure on a polymatroidal
        # ideal is reported, not rescued by the increasing convention
        def decreasing_fails(J, increasing=False):
            return revlex_lq(J, increasing=True) if increasing else None

        monkeypatch.setattr(lab, "revlex_lq", decreasing_fails)
        rec = verify_equivalences(I("x1*x2, x1*x3, x2*x3", 3))
        assert rec.conditions == {"a": True, "b": True, "c": False, "d": True, "e": True}
        assert rec.witnesses["c"] == {"u": "1", "convention": "decreasing"}
        assert rec.violation

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdealError, match="equivalence check undefined for the unit ideal"):
            verify_equivalences(I("1", 2))


class TestVerifyEquivalencesColonsOnce:
    # each has a colon that repeats over the divisors of its lcm; in the first
    # two cases a repeated colon is the first to fail condition e
    CASES = [
        ("x1^2, x2^2, x2*x3, x3^2", 3),
        ("x1*x3^2, x1*x2*x3, x1*x2^2, x1^3", 3),
        ("x1^2, x1*x2, x2^2", 2),
        ("x1*x2, x1*x3, x2*x3", 3),
        ("x1^2, x2^2", 2),
        ("x1^2, x1*x2, x3^2, x2*x3", 3),
        ("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3),
        ("x1*x2, x1*x3^2, x2*x3^2", 3),
        ("x1^2*x2, x1*x2^2, x3^3", 3),
    ]

    @staticmethod
    def first_failures(ideal):
        """Witnesses of conditions b-e from every divisor of the lcm in order."""
        found = {}
        for u in lcm_divisors(ideal):
            J = colon(ideal, u)
            if J.is_unit:
                continue
            single = is_single_degree(J)
            if not single and "e" not in found:
                found["e"] = {"u": str(u), "degrees": list(J.degrees())}
            ok_b, wit_b = is_polymatroidal(J)
            if not ok_b and "b" not in found:
                found["b"] = {
                    "u": str(u),
                    "witness": wit_b.to_json() if wit_b else "not single degree",
                }
            if (not single or revlex_lq(J) is None) and "c" not in found:
                found["c"] = {"u": str(u), "convention": "decreasing"}
            if not has_linear_resolution(J) and "d" not in found:
                found["d"] = {"u": str(u)}
        return found

    def test_witnesses_match_brute_force(self):
        for text, n in self.CASES:
            ideal = I(text, n)
            rec = verify_equivalences(ideal)
            assert rec.to_json()["convention_sensitive"] is False
            got = {k: v for k, v in rec.witnesses.items() if k != "a"}
            assert got == self.first_failures(ideal), text

    def test_each_colon_decided_once(self, monkeypatch):
        seen = []

        def counting(J, char=0):
            seen.append(J)
            return has_linear_resolution(J, char)

        monkeypatch.setattr(lab, "has_linear_resolution", counting)
        for text, n in self.CASES:
            seen.clear()
            ideal = I(text, n)
            verify_equivalences(ideal)
            assert seen and len(seen) == len(set(seen)), text
            assert not any(J.is_unit for J in seen), text

    def test_polymatroidality_decided_once_per_colon(self, monkeypatch):
        # condition a's verdict on I serves condition b at the first colon, I : 1
        seen = []

        def counting(J):
            seen.append(J)
            return is_polymatroidal(J)

        monkeypatch.setattr(lab, "is_polymatroidal", counting)
        polymatroidal = [("x1*x2, x1*x3, x2*x3", 3), ("x1^2, x1*x2, x2^2", 2), ("x1*x2, x1*x3, x1*x4", 4)]
        for text, n in self.CASES + polymatroidal:
            ideal = I(text, n)
            assert next(colons(ideal))[1] is ideal, text
            seen.clear()
            rec = verify_equivalences(ideal)
            assert seen[0] is ideal and len(seen) == len(set(seen)), text
            if rec.conditions["b"]:
                assert len(seen) == len(list(colons(ideal))), text


class TestIndependentOfCertificateBetti:
    """Condition d and the scan's forward check decide linear resolutions
    on the Mayer-Vietoris tree alone, never off a linear-quotients
    certificate: ``resolution`` does not import ``quotients``."""

    IDEALS = (
        ("x1*x2, x1*x3, x2*x3", 3),
        ("x1^2, x1*x2, x3^2, x2*x3", 3),
        ("x1*x2, x1*x3^2, x2*x3^2", 3),
        ("x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2", 3),
        ("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6),
    )

    def test_resolution_does_not_import_quotients(self):
        src = Path(resolution.__file__).resolve().parents[1]
        check = "import polymat.resolution, sys; assert 'polymat.quotients' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)

    def test_reports_unchanged_when_the_shortcut_raises(self, monkeypatch):
        # every homological verdict on the colons, and the whole scan,
        # with each linear-quotients routine raising
        space = IdealSpace(nvars=3, maxdeg=2, maxgens=3)

        def reports():
            verdicts = [
                (str(J), char, has_linear_resolution(J, char), is_componentwise_linear(J, char),
                 betti_table(J, char).to_json())
                for text, n in self.IDEALS for _, J in colons(I(text, n)) for char in (0, 2)
            ]
            return json.dumps([verdicts, scan_conjecture(space).stable_json()], sort_keys=True)

        expected = reports()

        def shortcut(*args, **kwargs):
            raise AssertionError("linear-quotients routine called")

        routines = ("check_lq_order", "find_lq_order", "revlex_lq", "componentwise_veronese_lq", "_mask_step")
        for name in routines:
            monkeypatch.setattr(quotients, name, shortcut)
            if hasattr(lab, name):
                monkeypatch.setattr(lab, name, shortcut)
        assert reports() == expected

    def test_suite_gap_item_agrees_with_the_lattice(self):
        # the nonpure-exchange gap ideal's colons are componentwise linear
        # on the tree as by K^b homology at every lcm-lattice point
        def lattice_linear(J):
            d = J.gens[0].degree
            return all(
                sum(b) == dim + 1 + d
                for b in lcm_lattice(J) for dim in upper_koszul_complex(J, b).reduced_homology_ranks(0)
            )

        ideal = I("x1*x2, x1*x3^2, x2*x3^2", 3)
        linear = all(lattice_linear(component(J, d)) for _, J in colons(ideal) for d in J.degrees())
        (item,) = [it for it in example_suite(0).items if it["name"] == "nonpure-exchange-gap"]
        assert linear and item["passed"] and item["details"]["colons_componentwise_linear"]


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

    def test_linearity_is_decided_once_per_call(self, monkeypatch):
        # cor12.d, cor13.b and cor13.c all ask for linear(J) and linear(J^k)
        calls = []

        def counting(J, char=0, *rest):
            calls.append((J, char))
            return has_linear_resolution(J, char, *rest)

        monkeypatch.setattr(lab, "has_linear_resolution", counting)
        for text, n in [
            ("x1*x2, x1*x3, x2*x3", 3),
            ("x1*x2, x3*x4", 4),
            ("x1*x2*x3, x2*x3*x4, x1*x4", 4),
            ("x1*x4, x2*x3, x2*x4, x3*x4", 4),
        ]:
            calls.clear()
            verify_squarefree(I(text, n))
            assert calls and len(calls) == len(set(calls)), text

    def test_powers_are_built_once_per_call(self, monkeypatch):
        # cor13.b, c, d and e all raise the same localizations to powers
        calls = []

        def counting(J, k):
            calls.append((J, k))
            return power(J, k)

        monkeypatch.setattr(lab, "power", counting)
        for text, n in [("x1*x2, x1*x3, x2*x3", 3), ("x1*x2*x3, x2*x3*x4, x1*x4", 4)]:
            calls.clear()
            verify_squarefree(I(text, n))
            assert calls and len(calls) == len(set(calls)), text

    def test_increasing_revlex_rescues_condition_c(self):
        # linear quotients only in increasing reverse lex: without the
        # retry, cor12.c would fail at C = [] and deny I linear quotients
        ideal = I("x1*x4, x2*x3, x2*x4, x3*x4", 4)
        assert revlex_lq(ideal) is None and revlex_lq(ideal, increasing=True) is not None
        rec = verify_squarefree(ideal)
        assert rec["witnesses"]["cor12.c"] == {"C": [1]}
        assert not rec["matroidal"] and not rec["violation"]

    @staticmethod
    def first_failures_by_walk(ideal, kmax):
        """First failing set of each condition, walking every substitution
        set in (size, lex) order and localizing I and each power I^k."""
        n = ideal.nvars
        subsets = [
            C
            for size in range(n)
            for C in itertools.combinations(range(1, n + 1), size)
            if not localize(ideal, C).is_unit
        ]
        powers = [power(ideal, k) for k in range(1, kmax + 1)]
        lin = has_linear_resolution

        def lq_either(J):
            return is_single_degree(J) and (
                revlex_lq(J) is not None or revlex_lq(J, increasing=True) is not None
            )

        at_C = {
            "cor12.b": lambda C: is_matroidal(localize(ideal, C)),
            "cor12.c": lambda C: lq_either(localize(ideal, C)),
            "cor12.d": lambda C: lin(localize(ideal, C)),
            "cor12.e": lambda C: is_single_degree(localize(ideal, C)),
            "cor13.b": lambda C: all(lin(localize(P, C)) for P in powers),
            "cor13.c": lambda C: any(lin(localize(P, C)) for P in powers),
            "cor13.d": lambda C: any(is_single_degree(localize(P, C)) for P in powers),
            "cor13.e": lambda C: all(is_single_degree(localize(P, C)) for P in powers),
        }
        return {
            key: next((list(C) for C in subsets if not holds(C)), None)
            for key, holds in at_C.items()
        }

    @pytest.mark.parametrize("n, count", [(3, 18), (4, 166)])
    def test_conditions_match_the_walk(self, n, count):
        pool = [
            Monomial(tuple(int(i in c) for i in range(n)))
            for size in range(1, n + 1)
            for c in itertools.combinations(range(n), size)
        ]
        checked = 0
        for gens in itertools.chain.from_iterable(
            itertools.combinations(pool, r) for r in range(1, len(pool) + 1)
        ):
            if any(a.divides(b) for a, b in itertools.permutations(gens, 2)):
                continue
            ideal = MonomialIdeal(n, gens)
            rec = verify_squarefree(ideal, kmax=2)
            for key, first in self.first_failures_by_walk(ideal, 2).items():
                group, cond = key.split(".")
                assert rec[group][cond] == (first is None), (str(ideal), key)
                witness = None if first is None else {"C": first}
                assert rec["witnesses"].get(key) == witness, (str(ideal), key)
            checked += 1
        assert checked == count


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
            assert localization_profile_by_walk(ideal) == (True, None), params

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

        space = IdealSpace(nvars=3, maxdeg=2, maxgens=3)
        report = scan_conjecture(space)
        ideals = list(space_ideals(space))
        assert len(report.items) == len(ideals)
        for item, ideal in zip(report.items, ideals):
            assert item["ideal"] == str(ideal)
            expected = localization_profile_by_walk(ideal, holds=linear_by_oracle)
            assert (item["all_localizations_linear"], item["failing_subset"]) == expected, item


@st.composite
def small_ideals(draw):
    """Nonzero, non-unit ideals in at most 5 variables: up to 5
    generators, each a product of 1 to 3 variables."""
    n = draw(st.integers(1, 5))
    gens = []
    factor_lists = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
    for factors in draw(st.lists(factor_lists, min_size=1, max_size=5)):
        exps = [0] * n
        for k in factors:
            exps[k] += 1
        gens.append(Monomial(exps))
    return MonomialIdeal(n, gens)


class TestLocalizationProfile:
    """The recursive profile against the flat (size, lex) walk."""

    @pytest.mark.parametrize("char", [0, 2])
    @pytest.mark.parametrize(
        "space",
        [
            IdealSpace(nvars=4, maxdeg=3, maxgens=3),
            IdealSpace(nvars=5, maxdeg=3, maxgens=5, mode="sampled", samples=200, seed=3),
        ],
        ids=["exhaustive-4-3-3", "sampled-5-3-5"],
    )
    def test_scan_items_match_the_walk(self, space, char):
        report = scan_conjecture(space, char)
        ideals = list(space_ideals(space))
        assert len(report.items) == len(ideals) and report.summary["skipped"] == 0
        for item, ideal in zip(report.items, ideals):
            expected = localization_profile_by_walk(ideal, char)
            assert (item["all_localizations_linear"], item["failing_subset"]) == expected, item

    PREDICATES = {
        "linear-0": lambda J: has_linear_resolution(J, 0),
        "linear-2": lambda J: has_linear_resolution(J, 2),
        "single-degree": is_single_degree,
        "matroidal": is_matroidal,
    }

    @settings(max_examples=100, deadline=None)
    @given(small_ideals(), st.sampled_from(sorted(PREDICATES)))
    def test_profile_matches_the_walk(self, ideal, predicate):
        holds = self.PREDICATES[predicate]
        ok, failing = lab._localization_profile(ideal, holds, {})
        got = (ok, None if failing is None else list(failing))
        assert got == localization_profile_by_walk(ideal, holds=holds)

    def test_scan_localizes_one_variable_at_a_time(self, monkeypatch):
        sets = []

        def recording_localize(J, C):
            C = tuple(C)
            sets.append(C)
            return localize(J, C)

        monkeypatch.setattr(lab, "localize", recording_localize)
        scan_conjecture(IdealSpace(nvars=3, maxdeg=3, maxgens=4))
        assert sets and all(len(C) == 1 for C in sets)

    def test_budget_past_the_first_failing_set_skips(self, monkeypatch):
        ideal = I("x3^2, x2*x3, x1*x2", 3)
        # looked up at call time, so the patched function below is seen
        linear = lambda J: lab.has_linear_resolution(J, 0)
        # the walk stops at (1,); the recursion also profiles loc_2 = (x1, x3)
        assert lab._localization_profile(ideal, linear, {}) == (False, (1,))
        late = localize(ideal, [2])
        assert late == I("x1, x3", 3)

        def late_exceeds(J, char=0):
            if J == late:
                raise ResourceLimitExceeded("lcm lattice exceeds budget")
            return has_linear_resolution(J, char)

        monkeypatch.setattr(lab, "has_linear_resolution", late_exceeds)
        decided = {}
        with pytest.raises(ResourceLimitExceeded):
            lab._localization_profile(ideal, linear, decided)
        assert ideal not in decided and late not in decided
        assert decided[localize(ideal, [1])] == (False, ())

        report = scan_conjecture(IdealSpace(nvars=3, maxdeg=2, maxgens=3))
        item = next(it for it in report.items if it["ideal"] == str(ideal))
        assert item["status"] == "skipped"


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
        for ideal in space_ideals(IdealSpace(nvars=3, maxdeg=2, maxgens=5)):
            if ideal.degrees() != (2,):
                continue
            pm = is_polymatroidal(ideal)[0]
            assert pm == localization_profile_by_walk(ideal)[0], str(ideal)


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
        assert exp == {"experimental-socle-component-polymatroidal"}
        # I*m is a product of polymatroidal ideals: a theorem, so required
        (im,) = [it for it in report.items if it["name"] == "Im-polymatroidal"]
        assert not im["experimental"] and im["passed"]
        assert report.summary["required"] == 12 and report.summary["experimental"] == 1

    def test_report_is_json_serializable(self):
        report = example_suite(0)
        json.dumps(report.to_json())

    def test_char2_suite(self):
        report = example_suite(2)
        assert report.summary["all_passed"]
