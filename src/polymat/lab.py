"""Theorem-verification harnesses, golden-example regressions, and the
conjecture scanner.

Each harness evaluates the sides of a proved equivalence independently
and reports any disagreement as a violation with a self-verifying
witness payload.  The scanner hunts the main conjecture: ideals whose
monomial localizations all have linear resolutions ought to be exactly
the polymatroidal ones; a reverse-direction disagreement is the quarry,
a forward-direction one is a bug.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import __version__
from .ideal import (
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    _require_proper,
    colon,
    colon_by_ideal,
    colons,
    component,
    ideal_product,
    is_single_degree,
    localize,
    maximal_ideal,
    monomials_of_degree,
    parse_ideal,
    power,
    saturate,
)
from .polymatroid import (
    VeroneseParams,
    detect_veronese,
    is_componentwise_polymatroidal,
    is_matroidal,
    is_polymatroidal,
    has_nonpure_exchange,
    veronese,
)
from .quotients import find_lq_order, revlex_lq
from .resolution import (
    has_linear_relations,
    has_linear_resolution,
    is_componentwise_linear,
)
from .primes import associated_primes

DEFAULT_ENUM_BUDGET = 5_000_000
REPORT_VERSION = "1"


# ---------------------------------------------------------------------------
# ideal spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealSpace:
    """A family of test ideals: exhaustive antichain enumeration or
    seeded random sampling of generator sets."""

    nvars: int
    maxdeg: int
    maxgens: int
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.nvars < 1 or self.maxdeg < 1 or self.maxgens < 1:
            raise ValueError("nvars, maxdeg and maxgens must be positive")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError("mode must be 'exhaustive' or 'sampled'")
        if self.mode == "sampled" and self.samples < 1:
            raise ValueError("sampled mode needs a positive sample count")

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "maxdeg": self.maxdeg,
            "maxgens": self.maxgens,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
        }


def space_ideals(
    space: IdealSpace, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[MonomialIdeal]:
    if space.mode == "exhaustive":
        yield from _exhaustive_ideals(space, enum_budget)
    else:
        yield from _sampled_ideals(space, enum_budget)


def _exhaustive_ideals(space: IdealSpace, enum_budget: int) -> Iterator[MonomialIdeal]:
    """All nonzero, non-unit ideals whose minimal generators fit the bounds.

    Enumerates antichains of the divisibility order directly, so each
    ideal appears exactly once, already in canonical form.  The pool of
    monomials of degree 1..maxdeg has C(maxdeg + n, n) - 1 members, and
    its subsets of at most maxgens members are counted against the
    budget before the pool is built.
    """
    size = math.comb(space.maxdeg + space.nvars, space.nvars) - 1
    implied = 0
    for g in range(1, min(space.maxgens, size) + 1):
        implied += math.comb(size, g)
        if implied > enum_budget:
            raise ResourceLimitExceeded(
                f"exhaustive space implies at least {implied} subsets, over budget {enum_budget}"
            )
    pool: list[Monomial] = []
    for d in range(1, space.maxdeg + 1):
        pool.extend(monomials_of_degree(space.nvars, d))
    pool.sort(key=Monomial._key)

    def extend(chosen: tuple[Monomial, ...], start: int) -> Iterator[tuple[Monomial, ...]]:
        for k in range(start, len(pool)):
            m = pool[k]
            if any(c.divides(m) or m.divides(c) for c in chosen):
                continue
            picked = chosen + (m,)
            yield picked
            if len(picked) < space.maxgens:
                yield from extend(picked, k + 1)

    try:
        for antichain in extend((), 0):
            yield MonomialIdeal._raw(space.nvars, antichain)
    finally:
        del extend  # extend's closure holds extend: clear the cycle when done or closed


def _sampled_ideals(space: IdealSpace, enum_budget: int) -> Iterator[MonomialIdeal]:
    """Seeded random generator sets, minimalized; split per index so
    sample i is reproducible independently of the rest.  The draws hold
    at most samples * maxgens monomials, counted against the budget
    before any is drawn."""
    implied = space.samples * space.maxgens
    if implied > enum_budget:
        raise ResourceLimitExceeded(
            f"sampled space implies up to {implied} generators, over budget {enum_budget}"
        )
    for idx in range(space.samples):
        rng = random.Random((space.seed * 0x9E3779B97F4A7C15 + idx) % 2**64)
        ngens = rng.randint(1, space.maxgens)
        gens = []
        for _ in range(ngens):
            d = rng.randint(1, space.maxdeg)
            exps = [0] * space.nvars
            for _ in range(d):
                exps[rng.randrange(space.nvars)] += 1
            gens.append(Monomial(exps))
        yield MonomialIdeal(space.nvars, gens)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class LabReport:
    """Machine-readable harness output; deterministic apart from the
    timing fields in the summary."""

    config: dict
    items: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    version: str = REPORT_VERSION

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "items": self.items,
            "summary": self.summary,
        }

    def stable_json(self) -> dict:
        """The report without timing fields, for determinism comparisons."""
        data = self.to_json()
        data["summary"] = {
            k: v for k, v in data["summary"].items() if k != "elapsed_seconds"
        }
        return data


# ---------------------------------------------------------------------------
# Theorem: polymatroidal <=> colon conditions
# ---------------------------------------------------------------------------

CONDITION_KEYS = ("a", "b", "c", "d", "e")


@dataclass
class EquivalenceRecord:
    """Verdicts for the five equivalent colon conditions on one ideal.

    a: polymatroidal; over the non-unit colons I : u of ``ideal.colons``:
    b: every colon polymatroidal, c: single degree with linear quotients
    in decreasing reverse lex, d: linear resolution, e: single degree.
    Each witness u is the first divisor of lcm(G(I)) to fail.  Any
    disagreement is a violation.  There is no fallback to the increasing
    convention: a polymatroidal colon has linear quotients in decreasing
    reverse lex (Herzog-Takayama), so b implies c.  ``to_json`` keeps
    ``convention_sensitive`` (always false) for the report schema.
    """

    ideal: MonomialIdeal
    char: int
    conditions: dict
    witnesses: dict
    violation: bool

    def to_json(self) -> dict:
        return {
            "ideal": str(self.ideal),
            "nvars": self.ideal.nvars,
            "char": self.char,
            "conditions": dict(self.conditions),
            "witnesses": dict(self.witnesses),
            "convention_sensitive": False,
            "violation": self.violation,
        }


def verify_equivalences(I: MonomialIdeal, char: int = 0) -> EquivalenceRecord:
    _require_proper(I, "equivalence check")

    ok_a, wit_a = is_polymatroidal(I)
    conditions = {"a": ok_a, "b": True, "c": True, "d": True, "e": True}
    witnesses: dict = {}
    if not ok_a:
        witnesses["a"] = wit_a.to_json() if wit_a else {"reason": "not single degree"}

    for u, J in colons(I):
        single = is_single_degree(J)
        if conditions["e"] and not single:
            conditions["e"] = False
            witnesses["e"] = {"u": str(u), "degrees": list(J.degrees())}
        if conditions["b"]:
            ok_b, wit_b = is_polymatroidal(J)
            if not ok_b:
                conditions["b"] = False
                witnesses["b"] = {
                    "u": str(u),
                    "witness": wit_b.to_json() if wit_b else "not single degree",
                }
        if conditions["c"] and (not single or revlex_lq(J) is None):
            conditions["c"] = False
            witnesses["c"] = {"u": str(u), "convention": "decreasing"}
        if conditions["d"] and not has_linear_resolution(J, char):
            conditions["d"] = False
            witnesses["d"] = {"u": str(u)}
        if not any(conditions[k] for k in "bcde"):
            break  # every verdict and witness is settled

    values = {conditions[k] for k in CONDITION_KEYS}
    return EquivalenceRecord(
        ideal=I,
        char=char,
        conditions=conditions,
        witnesses=witnesses,
        violation=len(values) > 1,
    )


# ---------------------------------------------------------------------------
# every localization
# ---------------------------------------------------------------------------

def _localization_profile(
    I: MonomialIdeal,
    holds: Callable[[MonomialIdeal], bool],
    decided: dict[MonomialIdeal, tuple[bool, tuple[int, ...] | None]],
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether ``holds`` is true of every non-unit localization of the
    nonzero ideal I, plus the first failing substitution set in
    (size, lex) order.

    Decided recursively through loc_C(I) = loc_{C - {i}}(loc_i(I)): if
    ``holds(I)`` is false, C = () fails first.  Otherwise the first
    failing set is the least of (first failing set of loc_i(I)) + {i}
    over the variables i occurring in G(I) whose localization is not the
    unit ideal.  That set of loc_i(I) avoids i, and adding the same i to
    sets of one size that avoid it keeps their lex order, so the least
    candidate is the least failing set of I.  A variable not occurring in
    G(I) leaves I unchanged, so no least failing set contains one.

    ``decided`` maps ideals already profiled under this predicate to
    their answers; new answers are added to it.  A ResourceLimitExceeded
    propagates and stores nothing for the ideals being profiled; since
    an ideal that holds has all its children profiled, a budget exceeded
    past the first failing set also raises.
    """
    known = decided.get(I)
    if known is not None:
        return known
    if not holds(I):
        first: tuple[int, ...] | None = ()
    else:
        candidates = []
        for i in sorted(set().union(*(g.support for g in I.gens))):
            loc = localize(I, (i,))
            if not loc.is_unit:
                ok, failing = _localization_profile(loc, holds, decided)
                if not ok:
                    candidates.append(tuple(sorted(failing + (i,))))
        first = min(candidates, key=lambda C: (len(C), C), default=None)
    decided[I] = answer = (first is None, first)
    return answer


# ---------------------------------------------------------------------------
# Squarefree localization equivalences, including powers
# ---------------------------------------------------------------------------

def verify_squarefree(I: MonomialIdeal, kmax: int = 3, char: int = 0) -> dict:
    """Check the matroidal localization equivalences plus the bounded
    power versions; all conditions must agree with is_matroidal.

    Each condition is one predicate over every non-unit localization (see
    ``_localization_profile``), witnessed by its first failing set.  The
    power conditions read loc_C(I^k) as loc_C(I)^k, k <= kmax.  cor12.c
    accepts either reverse-lex convention: x1*x4, x2*x3, x2*x4, x3*x4 has
    linear quotients only in increasing reverse lex.
    """
    _require_proper(I, "squarefree check")
    if not I.is_squarefree:
        raise ValueError("ideal is not squarefree")

    decided_linear: dict[MonomialIdeal, bool] = {}

    def linear(J: MonomialIdeal) -> bool:
        # cor12.d, cor13.b and cor13.c meet the same localizations and powers
        if J not in decided_linear:
            decided_linear[J] = has_linear_resolution(J, char)
        return decided_linear[J]

    # cor13.b, c, d and e all raise the same localizations to the same powers
    power_of = functools.cache(power)

    def powers(J: MonomialIdeal) -> Iterator[MonomialIdeal]:
        return (power_of(J, k) for k in range(1, kmax + 1))

    predicates = {
        "cor12": {
            "b": is_matroidal,
            "c": lambda J: is_single_degree(J)
            and (revlex_lq(J) is not None or revlex_lq(J, increasing=True) is not None),
            "d": linear,
            "e": is_single_degree,
        },
        "cor13": {
            "b": lambda J: all(map(linear, powers(J))),
            "c": lambda J: any(map(linear, powers(J))),
            "d": lambda J: any(map(is_single_degree, powers(J))),
            "e": lambda J: all(map(is_single_degree, powers(J))),
        },
    }
    a = is_matroidal(I)
    record: dict = {"ideal": str(I), "nvars": I.nvars, "char": char, "kmax": kmax, "matroidal": a}
    witnesses: dict = {}
    for group, tests in predicates.items():
        record[group] = {}
        for key, holds in tests.items():
            record[group][key], failing = _localization_profile(I, holds, {})
            if failing is not None:
                witnesses[f"{group}.{key}"] = {"C": list(failing)}
    record["witnesses"] = witnesses
    record["violation"] = any(v != a for group in predicates for v in record[group].values())
    return record


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------

def scan_conjecture(
    space: IdealSpace, char: int = 0, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> LabReport:
    """Compare 'polymatroidal' against 'all monomial localizations have a
    linear resolution' over a space of ideals.

    Forward disagreements (polymatroidal but some localization fails)
    contradict a proved statement and indicate a bug; reverse
    disagreements are conjecture counterexample candidates.  The report
    is deterministic for a fixed (space, seed, char).

    Each ideal is profiled from its one-variable localizations, each
    distinct ideal once per scan (see ``_localization_profile``).  An
    ideal whose profile or exchange test exceeds a budget is reported
    as skipped; any ResourceLimitExceeded while profiling a linear ideal
    skips it, even one raised past its first failing set.
    """
    t0 = time.perf_counter()
    report = LabReport(
        config={
            "space": space.to_json(),
            "char": char,
            "seed": space.seed,
            "enum_budget": enum_budget,
            "tool_version": __version__,
        }
    )
    counts = {"agree": 0, "forward_violations": 0, "reverse_candidates": 0, "skipped": 0}
    counterexamples: list[dict] = []
    # Profiles per ideal: each scanned ideal and each localization profiled
    # below it, keyed by the ideal, valued (all linear, first failing set).
    # A localization has no more generators and no higher degree than its
    # ideal, so in an exhaustive space it is an ideal of the space, and the
    # memo never outgrows the space; a sampled ideal adds at most 2^n - 1
    # entries, itself and its non-unit localizations.
    decided: dict[MonomialIdeal, tuple[bool, tuple[int, ...] | None]] = {}

    for idx, I in enumerate(space_ideals(space, enum_budget)):
        item: dict = {"index": idx, "ideal": str(I), "nvars": I.nvars}
        try:
            pm, wit = is_polymatroidal(I)
            loc_linear, failing = _localization_profile(
                I, lambda J: has_linear_resolution(J, char), decided
            )
        except ResourceLimitExceeded as exc:
            item["status"] = "skipped"
            item["skip_reason"] = str(exc)
            counts["skipped"] += 1
            report.items.append(item)
            continue
        item["polymatroidal"] = pm
        if wit is not None:
            item["exchange_witness"] = wit.to_json()
        item["all_localizations_linear"] = loc_linear
        item["failing_subset"] = None if failing is None else list(failing)
        if pm == loc_linear:
            item["status"] = "agree"
            counts["agree"] += 1
        elif pm and not loc_linear:
            item["status"] = "forward-violation"
            counts["forward_violations"] += 1
            counterexamples.append(item)
        else:
            item["status"] = "reverse-candidate"
            counts["reverse_candidates"] += 1
            counterexamples.append(item)
        report.items.append(item)

    report.summary = {
        **counts,
        "total": len(report.items),
        "counterexamples": counterexamples,
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
    }
    return report


# ---------------------------------------------------------------------------
# golden-example regression suite
# ---------------------------------------------------------------------------

def _suite_item(name: str, passed: bool, details: dict, experimental: bool = False) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "experimental": experimental,
        "details": details,
    }


def _check_localization_golden() -> dict:
    I = parse_ideal("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6)
    expected = parse_ideal("x2*x3, x3*x5*x6", 6)
    loc = localize(I, [4])
    sat = saturate(I, Monomial((0, 0, 0, 1, 0, 0)))
    ok = loc == expected and sat == expected
    return _suite_item(
        "localization-golden",
        ok,
        {"localization": str(loc), "expected": str(expected)},
    )


def _check_single_degree_localization_gap(char: int) -> dict:
    I = parse_ideal("x1^2, x1*x2, x3^2, x2*x3", 3)
    pm, wit = is_polymatroidal(I)
    locs_single = _localization_profile(I, is_single_degree, {})[0]
    linres = has_linear_resolution(I, char)
    ok = (not pm) and locs_single and (not linres)
    return _suite_item(
        "single-degree-localization-gap",
        ok,
        {
            "polymatroidal": pm,
            "witness": wit.to_json() if wit else None,
            "all_localizations_single_degree": locs_single,
            "linear_resolution": linres,
        },
    )


def _check_variable_colon_gap(char: int) -> dict:
    I = parse_ideal("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3)
    linres_I = has_linear_resolution(I, char)
    colon_linres = {
        i: has_linear_resolution(colon(I, Monomial(tuple(1 if k == i - 1 else 0 for k in range(3)))), char)
        for i in (1, 2, 3)
    }
    pm, wit = is_polymatroidal(I)
    expected_witness = wit is not None and (
        str(wit.u),
        str(wit.v),
        wit.i,
    ) == ("x1*x3^2", "x2^2*x3", 1)
    ok = linres_I and all(colon_linres.values()) and not pm and expected_witness
    return _suite_item(
        "variable-colon-gap",
        ok,
        {
            "linear_resolution": linres_I,
            "colon_linear_resolutions": {str(k): v for k, v in colon_linres.items()},
            "polymatroidal": pm,
            "witness": wit.to_json() if wit else None,
        },
    )


def _linear_or_unit(J: MonomialIdeal, char: int) -> bool:
    """Unit localizations (the whole ring) count as trivially linear."""
    return J.is_unit or has_linear_resolution(J, char)


def _polymatroidal_or_unit(J: MonomialIdeal) -> bool:
    return J.is_unit or is_polymatroidal(J)[0]


def _check_variable_localization_gap(char: int) -> dict:
    I = parse_ideal(
        "x1^3, x1^2*x2, x1^2*x3, x2*x3*x4, x1*x2*x3, x1*x3*x4, x1^2*x4", 4
    )
    linres_I = has_linear_resolution(I, char)
    single_var = {i: _linear_or_unit(localize(I, [i]), char) for i in range(1, 5)}
    pm, _ = is_polymatroidal(I)
    # the conjecture demands some localization fails; as I and its
    # one-variable localizations are linear, the first failing set is deeper
    _, failing = _localization_profile(I, lambda J: has_linear_resolution(J, char), {})
    ok = linres_I and all(single_var.values()) and not pm and failing is not None
    return _suite_item(
        "variable-localization-gap",
        ok,
        {
            "linear_resolution": linres_I,
            "single_variable_localizations_linear": {str(k): v for k, v in single_var.items()},
            "polymatroidal": pm,
            "first_failing_subset": None if failing is None else list(failing),
        },
    )


def _check_linear_relations_gap(char: int) -> dict:
    I = parse_ideal(
        "x1^3, x1^2*x2, x1^2*x3, x2^3, x1*x2^2, x2^2*x3, x3^3, x1*x3^2, x2*x3^2", 3
    )
    linrel = has_linear_relations(I, char)
    locs_pm = {i: _polymatroidal_or_unit(localize(I, [i])) for i in range(1, 4)}
    pm, _ = is_polymatroidal(I)
    linres_I = has_linear_resolution(I, char)
    ok = linrel and all(locs_pm.values()) and not pm
    return _suite_item(
        "linear-relations-gap",
        ok,
        {
            "linear_relations": linrel,
            "localizations_polymatroidal": {str(k): v for k, v in locs_pm.items()},
            "polymatroidal": pm,
            "linear_resolution": linres_I,
        },
    )


def _check_square_of_componentwise() -> dict:
    I = parse_ideal("x1^2, x2^2*x3, x1*x2*x3, x1*x2^2, x1*x3^3, x2*x3^3", 3)
    cw, fail_j = is_componentwise_polymatroidal(I)
    I2 = power(I, 2)
    cw2, fail_j2 = is_componentwise_polymatroidal(I2)
    comp6 = component(I2, 6)
    loc = localize(comp6, [3])
    expected = parse_ideal("x1*x2^3, x2^4, x1^2*x2, x1^3", 3)
    loc_matches = loc == expected
    loc_single = is_single_degree(loc)
    ok = cw and not cw2 and fail_j2 == 6 and loc_matches and not loc_single
    return _suite_item(
        "square-of-componentwise",
        ok,
        {
            "componentwise_polymatroidal": cw,
            "square_componentwise_polymatroidal": cw2,
            "square_failing_degree": fail_j2,
            "localized_degree6_component": str(loc),
            "expected": str(expected),
            "localization_single_degree": loc_single,
        },
    )


def _check_nonpure_exchange_gap(char: int) -> dict:
    I = parse_ideal("x1*x2, x1*x3^2, x2*x3^2", 3)
    npe, _ = has_nonpure_exchange(I)
    cw, fail_j = is_componentwise_polymatroidal(I)
    cert = find_lq_order(MonomialIdeal._raw(3, ()), I.gens)
    cert_ok = cert is not None and cert.verify()
    colons_cw_linear = True
    bad_u = None
    for u, J in colons(I):
        if not is_componentwise_linear(J, char):
            colons_cw_linear = False
            bad_u = str(u)
            break
    ok = npe and (not cw) and fail_j == 3 and cert_ok and colons_cw_linear
    return _suite_item(
        "nonpure-exchange-gap",
        ok,
        {
            "nonpure_exchange": npe,
            "componentwise_polymatroidal": cw,
            "failing_degree": fail_j,
            "linear_quotients_found": cert_ok,
            "order": [str(v) for v in cert.appended] if cert else None,
            "colons_componentwise_linear": colons_cw_linear,
            "failing_u": bad_u,
        },
    )


def _check_two_degree_power_closure() -> dict:
    """Componentwise polymatroidal in at most 2 degrees: powers stay
    componentwise polymatroidal (k <= 3)."""
    cases = [
        parse_ideal("x1, x2^2", 2),
        parse_ideal("x1, x2^3", 2),
        parse_ideal("x1*x2, x1*x3, x2*x3, x1^3, x2^3, x3^3", 3),
    ]
    details = {}
    ok = True
    for I in cases:
        cw, _ = is_componentwise_polymatroidal(I)
        two_degrees = len(I.degrees()) <= 2
        powers_ok = True
        for k in (2, 3):
            pk, fail_j = is_componentwise_polymatroidal(power(I, k))
            if not pk:
                powers_ok = False
        details[str(I)] = {
            "componentwise_polymatroidal": cw,
            "at_most_two_degrees": two_degrees,
            "powers_componentwise_polymatroidal": powers_ok,
        }
        ok = ok and cw and two_degrees and powers_ok
    return _suite_item("two-degree-power-closure", ok, details)


def check_pure_powers_classification(I: MonomialIdeal, char: int = 0) -> dict:
    """Pure-powers pattern: a single-degree ideal containing d-th powers of
    all variables but possibly one, with I and the localization at that
    variable linearly resolved, must be the Veronese ideal capping only
    the exceptional variable."""
    if I.is_zero or I.is_unit or not is_single_degree(I):
        return {"premise": False}
    n = I.nvars
    d = I.gens[0].degree
    pure = {
        i
        for i in range(1, n + 1)
        if any(g.support == frozenset({i}) for g in I.gens)
    }
    missing = [i for i in range(1, n + 1) if i not in pure]
    if len(missing) > 1:
        return {"premise": False}
    exceptional = missing[0] if missing else n
    if not has_linear_resolution(I, char):
        return {"premise": False}
    loc = localize(I, [exceptional])
    if not (loc.is_unit or has_linear_resolution(loc, char)):
        return {"premise": False}
    k = I.lcm_gens().exps[exceptional - 1]
    caps = tuple(k if i == exceptional else d for i in range(1, n + 1))
    conclusion = I == veronese(VeroneseParams(d, caps))
    return {
        "premise": True,
        "conclusion": conclusion,
        "d": d,
        "k": k,
        "exceptional_variable": exceptional,
    }


def check_veronese_reconstruction(I: MonomialIdeal, char: int = 0) -> dict:
    """The localization-pattern test: when I has a linear resolution and
    every single-variable localization matches the Veronese pattern for
    the tight caps, I must be the corresponding Veronese-type ideal."""
    if I.is_zero or I.is_unit or not is_single_degree(I):
        return {"premise": False}
    d = I.gens[0].degree
    if not has_linear_resolution(I, char):
        return {"premise": False}
    caps = I.lcm_gens().exps
    for i in range(1, I.nvars + 1):
        loc = localize(I, [i])
        a_i = caps[i - 1]
        if a_i == d:
            if not loc.is_unit:
                return {"premise": False}
            continue
        loc_caps = tuple(0 if k == i - 1 else caps[k] for k in range(I.nvars))
        if sum(loc_caps) < d - a_i or loc != veronese(VeroneseParams(d - a_i, loc_caps)):
            return {"premise": False}
    conclusion = detect_veronese(I) is not None
    return {"premise": True, "conclusion": conclusion, "caps": list(caps), "d": d}


def _check_veronese_reconstruction_spotchecks(char: int) -> dict:
    params = [
        VeroneseParams(3, (2, 2, 1)),
        VeroneseParams(2, (1, 1, 1)),
        VeroneseParams(3, (3, 2, 0)),
        VeroneseParams(4, (2, 2, 2)),
    ]
    details = {}
    ok = True
    for p in params:
        I = veronese(p)
        res = check_veronese_reconstruction(I, char)
        good = res.get("premise") and res.get("conclusion")
        details[f"I_({p.d};{','.join(map(str, p.caps))})"] = res
        ok = ok and bool(good)
    return _suite_item("veronese-reconstruction", ok, details)


def _check_finite_colength_linearity(char: int) -> dict:
    """Powers of the maximal ideal have linear resolutions, and finite
    colength plus a linear resolution forces a power of m."""
    details = {}
    ok = True
    for n in (2, 3):
        for k in (1, 2, 3):
            mk = power(maximal_ideal(n), k)
            lin = has_linear_resolution(mk, char)
            details[f"m^{k} (n={n})"] = lin
            ok = ok and lin
    # finite-colength ideals that are not powers of m must fail linearity
    for text, n in (("x1^2, x2^2", 2), ("x1^2, x2^2, x3^2", 3)):
        J = parse_ideal(text, n)
        pure_powers = all(
            any(g.support == frozenset({i}) for g in J.gens) for i in range(1, n + 1)
        )
        lin_J = has_linear_resolution(J, char)
        details[f"({text}) n={n}"] = {
            "all_pure_powers_present": pure_powers,
            "linear_resolution": lin_J,
        }
        ok = ok and pure_powers and not lin_J
    return _suite_item("finite-colength-linearity", ok, details)


def _check_three_prime_intersection(char: int) -> dict:
    I = parse_ideal("x1*x2, x1*x3, x2*x3", 3)
    ass = associated_primes(I)
    primes = [set(p) for p in ass.ass]
    pairwise_full = all(
        p | q == {1, 2, 3} for p in primes for q in primes if p != q
    )
    triple_empty = set.intersection(*primes) == set()
    locs_linear = _localization_profile(I, lambda J: has_linear_resolution(J, char), {})[0]
    ok = (
        is_matroidal(I)
        and not ass.has_embedded
        and ass.height == 2
        and pairwise_full
        and triple_empty
        and locs_linear
    )
    return _suite_item(
        "three-prime-intersection",
        ok,
        {
            "associated_primes": [sorted(p) for p in ass.ass],
            "height": ass.height,
            "pairwise_unions_full": pairwise_full,
            "triple_intersection_empty": triple_empty,
            "localizations_linear": locs_linear,
        },
    )


def _polymatroidal_corpus() -> list[MonomialIdeal]:
    return [
        veronese(VeroneseParams(2, (1, 1, 1))),
        veronese(VeroneseParams(2, (2, 1))),
        veronese(VeroneseParams(3, (2, 2, 1))),
        power(maximal_ideal(3), 2),
        parse_ideal("x1*x3, x1*x4, x2*x3, x2*x4", 4),
    ]


def _check_im_polymatroidal() -> dict:
    """I*m is polymatroidal for polymatroidal I: m is polymatroidal, and a
    product of polymatroidal ideals is (Conca-Herzog 2003)."""
    results = {
        str(I): is_polymatroidal(ideal_product(I, maximal_ideal(I.nvars)))[0] for I in _polymatroidal_corpus()
    }
    return _suite_item("Im-polymatroidal", all(results.values()), results)


def _experimental_socle_component() -> dict:
    """A believed-but-unproved statement: the degree d-1 component of the
    socle colon I : m of a polymatroidal I of degree d is polymatroidal.
    The lab only gathers evidence and labels it experimental."""
    results = {}
    for I in _polymatroidal_corpus():
        socle = component(colon_by_ideal(I, maximal_ideal(I.nvars)), I.gens[0].degree - 1)
        results[str(I)] = "zero-component" if socle.is_zero else is_polymatroidal(socle)[0]
    passed = all(v is True or v == "zero-component" for v in results.values())
    return _suite_item("experimental-socle-component-polymatroidal", passed, results, experimental=True)


def example_suite(char: int = 0) -> LabReport:
    """Run every hard-coded example and spot check; the primary
    regression gate for the repository."""
    t0 = time.perf_counter()
    items = [
        _check_localization_golden(),
        _check_single_degree_localization_gap(char),
        _check_variable_colon_gap(char),
        _check_variable_localization_gap(char),
        _check_linear_relations_gap(char),
        _check_square_of_componentwise(),
        _check_nonpure_exchange_gap(char),
        _check_two_degree_power_closure(),
        _check_veronese_reconstruction_spotchecks(char),
        _check_finite_colength_linearity(char),
        _check_three_prime_intersection(char),
        _check_im_polymatroidal(),
        _experimental_socle_component(),
    ]
    required = [it for it in items if not it["experimental"]]
    passed = sum(1 for it in required if it["passed"])
    report = LabReport(
        config={"char": char, "tool_version": __version__},
        items=items,
        summary={
            "required": len(required),
            "passed": passed,
            "failed": len(required) - passed,
            "experimental": len(items) - len(required),
            "all_passed": passed == len(required),
            "elapsed_seconds": round(time.perf_counter() - t0, 6),
        },
    )
    return report
