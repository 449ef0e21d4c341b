"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time against the stated budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import itertools
import json
import sys
import time
from contextlib import contextmanager

from polymat import lab
from polymat.ideal import (
    Monomial,
    MonomialIdeal,
    localize,
    maximal_ideal,
    parse_ideal,
    power,
)
from polymat.lab import (
    IdealSpace,
    scan_conjecture,
    space_ideals,
    verify_equivalences,
    verify_squarefree,
)
from polymat.polymatroid import (
    VeroneseParams,
    is_componentwise_veronese,
    is_polymatroidal,
)
from polymat.quotients import (
    componentwise_veronese_lq,
    extend_lq_veronese,
    find_lq_order,
)
from polymat.resolution import betti_table, has_linear_resolution

from oracles import taylor_betti


@contextmanager
def criterion(num, name, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"ACCEPTANCE {num:2d} {name}: FAIL ({elapsed:.3f}s)", file=sys.stderr)
        print(f"ACCEPTANCE {num:2d} {name}: FAIL ({elapsed:.3f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"ACCEPTANCE {num:2d} {name}: {verdict} ({elapsed:.3f}s / {limit_seconds}s)")
    assert ok, f"criterion {num} took {elapsed:.3f}s, budget {limit_seconds}s"


def I(text, n):
    return parse_ideal(text, n)


def test_criterion_01_localization_golden():
    ideal = I("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6)
    expected = I("x2*x3, x3*x5*x6", 6)
    with criterion(1, "localization golden", 0.001):
        assert localize(ideal, [4]) == expected


def test_criterion_02_single_degree_localization_gap():
    with criterion(2, "single-degree localization gap", 1.0):
        item = lab._check_single_degree_localization_gap(0)
        assert item["passed"], item
        details = item["details"]
        assert details["polymatroidal"] is False
        assert details["all_localizations_single_degree"] is True
        assert details["linear_resolution"] is False


def test_criterion_03_variable_colon_gap():
    with criterion(3, "variable colon gap ideal", 5.0):
        item = lab._check_variable_colon_gap(0)
        assert item["passed"], item
        details = item["details"]
        assert details["linear_resolution"] is True
        assert details["colon_linear_resolutions"] == {"1": True, "2": True, "3": True}
        assert details["polymatroidal"] is False
        wit = details["witness"]
        assert (wit["u"], wit["v"], wit["i"]) == ("x1*x3^2", "x2^2*x3", 1)
        # the witness reproduces across repeated runs
        ideal = I("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3)
        for _ in range(3):
            assert is_polymatroidal(ideal)[1].to_json() == wit


def test_criterion_04_localization_gap_ideals():
    with criterion(4, "localization gap ideals", 10.0):
        item = lab._check_variable_localization_gap(0)
        assert item["passed"], item
        details = item["details"]
        assert all(details["single_variable_localizations_linear"].values())
        assert details["polymatroidal"] is False

        item = lab._check_linear_relations_gap(0)
        assert item["passed"], item
        details = item["details"]
        assert details["linear_relations"] is True
        assert all(details["localizations_polymatroidal"].values())
        assert details["polymatroidal"] is False


def test_criterion_05_componentwise_square():
    with criterion(5, "componentwise square degradation", 5.0):
        item = lab._check_square_of_componentwise()
        assert item["passed"], item
        details = item["details"]
        assert details["componentwise_polymatroidal"] is True
        assert details["localized_degree6_component"] == str(
            I("x1*x2^3, x2^4, x1^2*x2, x1^3", 3)
        )
        assert details["localization_single_degree"] is False


def test_criterion_06_nonpure_exchange_counterexample():
    with criterion(6, "nonpure exchange counterexample", 10.0):
        item = lab._check_nonpure_exchange_gap(0)
        assert item["passed"], item
        details = item["details"]
        assert details["nonpure_exchange"] is True
        assert (details["componentwise_polymatroidal"], details["failing_degree"]) == (False, 3)
        assert details["linear_quotients_found"] is True
        assert details["colons_componentwise_linear"] is True


def test_criterion_07_colon_equivalence_suite():
    with criterion(7, "colon equivalence suite", 600.0):
        spaces = [
            IdealSpace(nvars=2, maxdeg=4, maxgens=5),
            IdealSpace(nvars=3, maxdeg=3, maxgens=4),
            IdealSpace(nvars=3, maxdeg=3, maxgens=5, mode="sampled", samples=250, seed=101),
            IdealSpace(nvars=4, maxdeg=3, maxgens=5, mode="sampled", samples=250, seed=202),
        ]
        total = 0
        for space in spaces:
            for ideal in space_ideals(space):
                record = verify_equivalences(ideal, 0)
                assert not record.violation, (str(ideal), record.conditions)
                total += 1
        assert total >= 130 + 1178 + 500


def test_criterion_08_squarefree_localization_suite():
    with criterion(8, "squarefree localization suite", 300.0):
        checked = 0
        for n in range(1, 5):
            pool = [
                Monomial(tuple(1 if i in c else 0 for i in range(n)))
                for size in range(1, n + 1)
                for c in itertools.combinations(range(n), size)
            ]
            pool.sort(key=Monomial._key)

            def extend(chosen, start):
                for k in range(start, len(pool)):
                    m = pool[k]
                    if any(g.divides(m) or m.divides(g) for g in chosen):
                        continue
                    picked = chosen + (m,)
                    yield picked
                    yield from extend(picked, k + 1)

            for antichain in extend((), 0):
                ideal = MonomialIdeal._raw(n, antichain)
                if ideal.is_unit:
                    continue
                record = verify_squarefree(ideal, kmax=3, char=0)
                assert not record["violation"], record
                checked += 1
        assert checked > 150


def test_criterion_09_veronese_extension_suite():
    with criterion(9, "veronese extension suite", 300.0):
        verified = 0
        for n in range(1, 5):
            for d in range(1, 4):  # both degrees stay at most 4
                for caps_p in itertools.product(range(d + 2), repeat=n):
                    if sum(caps_p) < d:
                        continue
                    # caps above the target degree cut nothing, so the
                    # clamped values cover every admissible raw cap
                    lows = [min(a + 1, d + 1) for a in caps_p]
                    for caps_q in itertools.product(
                        *(range(lo, d + 2) for lo in lows)
                    ):
                        cert = extend_lq_veronese(
                            VeroneseParams(d, caps_p), VeroneseParams(d + 1, caps_q)
                        )
                        assert cert.verify()
                        verified += 1
        assert verified > 15000

        # componentwise-Veronese corpus: chained certificates exist and
        # the plain search also succeeds
        corpus = [
            I("x1, x2^3", 2),
            I("x1^2, x1*x2, x2^2, x1^3", 2),
            I("x1*x2, x1*x3, x2*x3, x1^3, x2^3, x3^3", 3),
            power(maximal_ideal(2), 3),
            I("x1, x2^2, x2*x3", 3),
        ]
        for ideal in corpus:
            if not is_componentwise_veronese(ideal)[0]:
                continue
            cert = componentwise_veronese_lq(ideal)
            assert cert is not None and cert.verify(), str(ideal)
            assert set(cert.appended) == set(ideal.gens)
            assert find_lq_order(MonomialIdeal(ideal.nvars), ideal.gens) is not None


def test_criterion_10_conjecture_scan():
    with criterion(10, "conjecture scan", 900.0):
        reports = {}
        for space in (
            IdealSpace(nvars=2, maxdeg=4, maxgens=5),
            IdealSpace(nvars=3, maxdeg=3, maxgens=4),
        ):
            report = scan_conjecture(space, 0)
            assert report.summary["reverse_candidates"] == 0, report.summary
            assert report.summary["forward_violations"] == 0, report.summary
            assert report.summary["skipped"] == 0
            reports[space] = json.dumps(report.stable_json(), sort_keys=True)

        # determinism: identical (space, seed, char) -> identical reports
        for space, first in reports.items():
            assert json.dumps(scan_conjecture(space, 0).stable_json(), sort_keys=True) == first
        sampled = IdealSpace(
            nvars=3, maxdeg=3, maxgens=4, mode="sampled", samples=60, seed=17
        )
        first = json.dumps(scan_conjecture(sampled, 0).stable_json(), sort_keys=True)
        second = json.dumps(scan_conjecture(sampled, 0).stable_json(), sort_keys=True)
        assert first == second


def test_criterion_11_betti_oracle_equivalence():
    with criterion(11, "Betti oracle equivalence", 600.0):
        checked = 0
        for nvars, seed in ((3, 11), (4, 12)):
            space = IdealSpace(
                nvars=nvars, maxdeg=3, maxgens=8, mode="sampled", samples=100, seed=seed
            )
            for ideal in space_ideals(space):
                if ideal.is_zero or ideal.is_unit:
                    continue
                for char in (0, 2):
                    assert betti_table(ideal, char).entries == taylor_betti(
                        ideal, char
                    ), (str(ideal), char)
                checked += 1
        assert checked == 200


def test_criterion_12_finite_colength_linearity():
    with criterion(12, "finite colength linearity", 120.0):
        # every power of the maximal ideal resolves linearly
        for n in range(1, 5):
            for k in range(1, 5):
                mk = power(maximal_ideal(n), k)
                assert has_linear_resolution(mk, 0), (n, k)

        # corpus ideals with every pure power present and a linear
        # resolution are powers of the maximal ideal
        spaces = [
            IdealSpace(nvars=2, maxdeg=4, maxgens=5),
            IdealSpace(nvars=3, maxdeg=3, maxgens=4),
        ]
        confirmed = 0
        for space in spaces:
            n = space.nvars
            for ideal in space_ideals(space):
                has_all_powers = all(
                    any(g.support == frozenset({i}) for g in ideal.gens)
                    for i in range(1, n + 1)
                )
                if not has_all_powers or not has_linear_resolution(ideal, 0):
                    continue
                k = ideal.gens[0].degree
                assert ideal == power(maximal_ideal(n), k), str(ideal)
                confirmed += 1
        assert confirmed > 0
