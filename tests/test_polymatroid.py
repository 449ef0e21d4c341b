"""Exchange-property predicates and Veronese-type constructions."""

import itertools
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polymat.ideal import (
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    UnitIdealError,
    ZeroIdealError,
    colon,
    colons,
    component,
    ideal_product,
    maximal_ideal,
    monomials_of_degree,
    parse_ideal,
    power,
)
from polymat.polymatroid import (
    ExchangeWitness,
    VeroneseParams,
    detect_veronese,
    has_nonpure_exchange,
    has_strong_exchange,
    is_componentwise_polymatroidal,
    is_componentwise_veronese,
    is_matroidal,
    is_polymatroidal,
    veronese,
)
from polymat.lab import IdealSpace, space_ideals
from polymat.quotients import componentwise_veronese_lq
from polymat.resolution import has_linear_resolution, is_componentwise_linear

from oracles import (
    componentwise_over_full_range,
    has_nonpure_exchange_loop,
    has_strong_exchange_loop,
    is_polymatroidal_loop,
    lcm_divisors,
)


def I(text, n):
    return parse_ideal(text, n)


def brute_force_exchange_fails(ideal, witness: ExchangeWitness) -> bool:
    """Re-check a violated witness: no admissible j exists."""
    u, v, i = witness.u, witness.v, witness.i
    assert u.deg_var(i) > v.deg_var(i)
    for j in range(1, ideal.nvars + 1):
        if u.deg_var(j) < v.deg_var(j):
            moved = list(u.exps)
            moved[i - 1] -= 1
            moved[j - 1] += 1
            if ideal.contains(Monomial(moved)):
                return False
    return True


class TestPolymatroidal:
    def test_known_gap_ideal_not_polymatroidal(self):
        ok, wit = is_polymatroidal(I("x1^2, x1*x2, x3^2, x2*x3", 3))
        assert not ok
        assert wit is not None

    def test_square_of_max_ideal(self):
        assert is_polymatroidal(I("x1^2, x1*x2, x2^2", 2)) == (True, None)

    def test_violation_witness_values(self):
        ideal = I("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3)
        ok, wit = is_polymatroidal(ideal)
        assert not ok
        assert (str(wit.u), str(wit.v), wit.i) == ("x1*x3^2", "x2^2*x3", 1)
        assert wit.verdict == "violated"
        assert brute_force_exchange_fails(ideal, wit)

    def test_witness_is_deterministic(self):
        ideal = I("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3)
        wits = {is_polymatroidal(ideal)[1].to_json()["u"] for _ in range(3)}
        assert len(wits) == 1

    def test_not_single_degree_has_no_pair_witness(self):
        ok, wit = is_polymatroidal(I("x1, x2^2", 2))
        assert not ok and wit is None

    def test_single_generator_vacuous(self):
        assert is_polymatroidal(I("x1^2*x2", 2))[0]

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            is_polymatroidal(I("", 2))
        with pytest.raises(UnitIdealError):
            is_polymatroidal(I("1", 2))

    def test_colon_closure_on_polymatroidal(self):
        # Theorem: every colon of a polymatroidal ideal is polymatroidal
        for text, n in [
            ("x1*x2, x1*x3, x2*x3", 3),
            ("x1^2, x1*x2, x2^2", 2),
            ("x1*x3, x1*x4, x2*x3, x2*x4", 4),
        ]:
            ideal = I(text, n)
            assert is_polymatroidal(ideal)[0]
            for u in lcm_divisors(ideal):
                J = colon(ideal, u)
                if not J.is_unit:
                    assert is_polymatroidal(J)[0]

    def test_product_closure(self):
        A = I("x1*x2, x1*x3, x2*x3", 3)
        B = I("x1, x2", 3)
        assert is_polymatroidal(ideal_product(A, B))[0]
        assert is_polymatroidal(ideal_product(A, A))[0]


class TestMatroidal:
    def test_triangle(self):
        assert is_matroidal(I("x1*x2, x1*x3, x2*x3", 3))

    def test_not_squarefree(self):
        assert not is_matroidal(I("x1^2, x1*x2, x2^2", 2))

    def test_disjoint_edges(self):
        assert not is_matroidal(I("x1*x2, x3*x4", 4))


class TestStrongExchange:
    def test_veronese_has_it(self):
        assert has_strong_exchange(veronese(VeroneseParams(2, (1, 1, 1))))[0]

    def test_single_generator_vacuous(self):
        assert has_strong_exchange(I("x1^2*x3", 3))[0]

    def test_transversal_fails(self):
        ideal = I("x1*x3, x1*x4, x2*x3, x2*x4", 4)
        ok, wit = has_strong_exchange(ideal)
        assert not ok and wit is not None
        # the witnessed move really is not in the ideal
        moved = list(wit.u.exps)
        moved[wit.i - 1] -= 1
        moved[wit.j - 1] += 1
        assert not ideal.contains(Monomial(moved))

    def test_strong_implies_polymatroidal(self):
        for params in [
            VeroneseParams(2, (1, 1, 1)),
            VeroneseParams(3, (2, 2, 1)),
            VeroneseParams(2, (2, 2)),
        ]:
            ideal = veronese(params)
            assert has_strong_exchange(ideal)[0]
            assert is_polymatroidal(ideal)[0]

    def test_separating_example(self):
        # polymatroidal without the strong exchange property
        ideal = I("x1*x3, x1*x4, x2*x3, x2*x4", 4)
        assert is_polymatroidal(ideal)[0]
        assert not has_strong_exchange(ideal)[0]


class TestNonpureExchange:
    def test_mixed_degree_gap_ideal_has_it(self):
        assert has_nonpure_exchange(I("x1*x2, x1*x3^2, x2*x3^2", 3))[0]

    def test_two_pure_squares_fail(self):
        ok, wit = has_nonpure_exchange(I("x1^2, x2^2", 2))
        assert not ok
        assert brute_force_exchange_fails(I("x1^2, x2^2", 2), wit)

    def test_single_generator(self):
        assert has_nonpure_exchange(I("x1*x2^3", 2))[0]

    def test_componentwise_polymatroidal_implies_nonpure(self):
        for text, n in [
            ("x1, x2^2", 2),
            ("x1, x2^3", 2),
            ("x1^2, x2^2*x3, x1*x2*x3, x1*x2^2, x1*x3^3, x2*x3^3", 3),
            ("x1*x2, x1*x3, x2*x3, x1^3, x2^3, x3^3", 3),
        ]:
            ideal = I(text, n)
            assert is_componentwise_polymatroidal(ideal)[0]
            assert has_nonpure_exchange(ideal)[0]

    def test_converse_fails(self):
        ideal = I("x1*x2, x1*x3^2, x2*x3^2", 3)
        assert has_nonpure_exchange(ideal)[0]
        assert not is_componentwise_polymatroidal(ideal)[0]


class TestVeronese:
    def test_triangle(self):
        assert veronese(VeroneseParams(2, (1, 1, 1))) == I("x1*x2, x1*x3, x2*x3", 3)

    def test_full_caps_is_power_of_m(self):
        for n, d in [(2, 3), (3, 2)]:
            assert veronese(VeroneseParams(d, (d,) * n)) == power(maximal_ideal(n), d)

    def test_caps_below_degree(self):
        assert veronese(VeroneseParams(3, (2, 3))) == I("x1^2*x2, x1*x2^2, x2^3", 2)

    def test_zero_rejected_at_construction(self):
        with pytest.raises(ValueError):
            VeroneseParams(3, (1, 1))

    def test_always_polymatroidal(self):
        for d in (1, 2, 3):
            for caps in itertools.product(range(4), repeat=3):
                if sum(caps) < d:
                    continue
                ideal = veronese(VeroneseParams(d, caps))
                assert is_polymatroidal(ideal)[0], (d, caps)


class TestDetectVeronese:
    def test_triangle(self):
        p = detect_veronese(I("x1*x2, x1*x3, x2*x3", 3))
        assert p == VeroneseParams(2, (1, 1, 1))

    def test_four_cycle_is_not(self):
        assert detect_veronese(I("x1*x3, x1*x4, x2*x3, x2*x4", 4)) is None

    def test_power_of_m(self):
        for n, k in [(2, 3), (3, 2)]:
            p = detect_veronese(power(maximal_ideal(n), k))
            assert p == VeroneseParams(k, (k,) * n)

    def test_requires_single_degree(self):
        with pytest.raises(ValueError):
            detect_veronese(I("x1, x2^2", 2))

    def test_roundtrip(self):
        for d, caps in [(2, (1, 2, 1)), (3, (2, 2, 2)), (4, (4, 1))]:
            ideal = veronese(VeroneseParams(d, caps))
            found = detect_veronese(ideal)
            assert found is not None and veronese(found) == ideal


class TestComponentwise:
    def test_mixed_degree_gap_ideal(self):
        assert is_componentwise_polymatroidal(I("x1*x2, x1*x3^2, x2*x3^2", 3)) == (False, 3)

    def test_three_degree_componentwise_ideal(self):
        ideal = I("x1^2, x2^2*x3, x1*x2*x3, x1*x2^2, x1*x3^3, x2*x3^3", 3)
        assert is_componentwise_polymatroidal(ideal) == (True, None)

    def test_single_degree_polymatroidal(self):
        assert is_componentwise_polymatroidal(I("x1*x2, x1*x3, x2*x3", 3))[0]

    def test_extended_range_flag(self):
        # components past the top generator degree equal I_<d> * m^(j-d),
        # so the verdict must survive extending the checked range
        for text, n in [
            ("x1*x2, x1*x3, x2*x3", 3),
            ("x1, x2^3", 2),
            ("x1^2, x2^2*x3, x1*x2*x3, x1*x2^2, x1*x3^3, x2*x3^3", 3),
            ("x1*x2, x1*x3^2, x2*x3^2", 3),
        ]:
            ideal = I(text, n)
            extended = all(
                is_polymatroidal(component(ideal, j))[0]
                for j in range(ideal.min_degree, ideal.max_degree + 3)
            )
            assert extended == is_componentwise_polymatroidal(ideal)[0]

    def test_generator_degrees_match_the_full_range(self):
        # a degree j with no minimal generator has I_<j> = I_<j-1> * m, so
        # the first failing degree is always a generator degree
        for ideal in space_ideals(IdealSpace(3, 3, 4)):
            if ideal.is_unit:
                continue
            assert is_componentwise_polymatroidal(ideal) == componentwise_over_full_range(
                ideal, lambda J: is_polymatroidal_loop(J)[0]
            ), str(ideal)
            linear = componentwise_over_full_range(ideal, has_linear_resolution)[0]
            assert is_componentwise_linear(ideal) == linear, str(ideal)

    def test_componentwise_veronese_walk_is_budgeted(self):
        # every degree 1..400 is visited; the running total of component
        # monomials passes DEFAULT_MONOMIAL_BUDGET near degree 84
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded, match="componentwise Veronese walk"):
            is_componentwise_veronese(I("x1, x2, x3^400", 3))
        with pytest.raises(ResourceLimitExceeded):
            componentwise_veronese_lq(I("x1, x2, x3^400", 3))
        assert time.perf_counter() - t0 < 10.0
        # an early failing degree is still answered
        assert is_componentwise_veronese(I("x1*x2, x1*x3^2, x2*x3^2, x3^400", 3)) == (False, 3)

    def test_componentwise_veronese_cases(self):
        assert is_componentwise_veronese(I("x1^2, x1*x2, x2^2, x1^3", 2))[0]
        assert not is_componentwise_veronese(I("x1*x2, x1*x3^2, x2*x3^2", 3))[0]
        assert is_componentwise_veronese(power(maximal_ideal(3), 2))[0]

    def test_componentwise_veronese_implies_componentwise_polymatroidal(self):
        for text, n in [("x1, x2^3", 2), ("x1^2, x1*x2, x2^2, x1^3", 2)]:
            ideal = I(text, n)
            ok_v, _ = is_componentwise_veronese(ideal)
            assert ok_v
            assert is_componentwise_polymatroidal(ideal)[0]


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

def small_params():
    return st.tuples(
        st.integers(1, 3), st.lists(st.integers(0, 3), min_size=2, max_size=3)
    ).filter(lambda t: sum(t[1]) >= t[0])


@settings(max_examples=50, deadline=None)
@given(small_params())
def test_veronese_polymatroidal_property(t):
    d, caps = t
    ideal = veronese(VeroneseParams(d, tuple(caps)))
    assert is_polymatroidal(ideal)[0]


@settings(max_examples=25, deadline=None)
@given(small_params(), small_params())
def test_product_closure_property(t1, t2):
    d1, caps1 = t1
    d2, caps2 = t2
    n = min(len(caps1), len(caps2))
    try:
        A = veronese(VeroneseParams(d1, tuple(caps1[:n])))
        B = veronese(VeroneseParams(d2, tuple(caps2[:n])))
    except ValueError:
        return
    assert is_polymatroidal(ideal_product(A, B))[0]


@st.composite
def exchange_ideals(draw):
    """Ideals in at most 4 variables, generated in one degree or in several."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pool = list(monomials_of_degree(n, draw(st.integers(1, 3))))
        gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    else:
        exps = st.lists(st.integers(0, 2), min_size=n, max_size=n)
        gens = draw(
            st.lists(
                exps.map(Monomial).filter(lambda m: m.degree > 0), min_size=1, max_size=6
            )
        )
    return MonomialIdeal(n, gens)


@st.composite
def degree_gap_ideals(draw):
    """Ideals in 2 or 3 variables whose generator degrees skip at least
    one degree: generators of degree d, and of degree d + 2 or more."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, 2))
    low = draw(st.lists(st.sampled_from(list(monomials_of_degree(n, d))), min_size=1, max_size=3))
    high = draw(
        st.lists(
            st.integers(d + 2, d + 3).flatmap(lambda e: st.sampled_from(list(monomials_of_degree(n, e)))),
            min_size=1,
            max_size=4,
        )
    )
    return MonomialIdeal(n, low + high)


@settings(max_examples=60, deadline=None)
@given(degree_gap_ideals())
def test_componentwise_predicates_match_the_full_range_across_gaps(ideal):
    assert is_componentwise_polymatroidal(ideal) == componentwise_over_full_range(
        ideal, lambda J: is_polymatroidal_loop(J)[0]
    )
    linear = componentwise_over_full_range(ideal, has_linear_resolution)[0]
    assert is_componentwise_linear(ideal) == linear


def assert_scanners_match_pair_loops(ideal):
    for scanner, loop in (
        (is_polymatroidal, is_polymatroidal_loop),
        (has_strong_exchange, has_strong_exchange_loop),
        (has_nonpure_exchange, has_nonpure_exchange_loop),
    ):
        ok, wit = scanner(ideal)
        ok_ref, wit_ref = loop(ideal)
        assert ok == ok_ref, (scanner.__name__, str(ideal))
        assert (wit and wit.to_json()) == (wit_ref and wit_ref.to_json()), (scanner.__name__, str(ideal))


# its first non-pure witness loses x1 from x1^3 against x2*x3; scanning the
# larger generator first would give x3^3 against x1^3 instead
NONPURE_ORDER_IDEAL = "x2*x3, x3^3, x1^3"


@settings(max_examples=100, deadline=None)
@given(exchange_ideals())
@example(power(maximal_ideal(5), 4))  # 70 generators: masks past 64 bits
@example(I(NONPURE_ORDER_IDEAL, 3))
def test_exchange_scanner_matches_pair_loops(ideal):
    assert_scanners_match_pair_loops(ideal)


def test_nonpure_witness_takes_the_smaller_generator_first():
    ok, wit = has_nonpure_exchange(I(NONPURE_ORDER_IDEAL, 3))
    assert not ok
    assert wit.to_json() == {"u": "x1^3", "v": "x2*x3", "i": 1, "verdict": "violated", "j": None}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_exchange_scanner_matches_pair_loops_on_query_colons(monkeypatch):
    """The base ideal of each type of the benchmark's ``query`` workload,
    with 10 to 36 generators, and every colon that ``colons`` yields of it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    checked = 0
    for t in range(len(workloads.QUERY_TYPES)):
        n, gens = workloads.query_variants(t)[0]
        for _, J in colons(MonomialIdeal(n, [Monomial(g) for g in gens])):
            assert_scanners_match_pair_loops(J)
            checked += 1
    assert checked == 230
