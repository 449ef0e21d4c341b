"""Core monomial-ideal arithmetic: parsing, minimalization, colon,
saturation, localization, combinations, components."""

import gc
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from polymat import ideal as ideal_module
from polymat.ideal import (
    DEFAULT_MONOMIAL_BUDGET,
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    ZeroIdealError,
    capped_exponents,
    colon,
    colons,
    combine,
    component,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_single_degree,
    localize,
    maximal_ideal,
    monomials_of_degree,
    parse_ideal,
    parse_generators,
    parse_monomial,
    power,
    prime_ideal,
    saturate,
)
from polymat.lab import IdealSpace, space_ideals

from oracles import (
    colon_membership_ok,
    component_oracle,
    intersection_membership_ok,
    lcm_divisors,
    monomials_up_to,
)


def I(text, n):
    return parse_ideal(text, n)


def M(text, n):
    return parse_monomial(text, n)


def substituted(ideal, C):
    """The localization by its definition: x_i -> 1 for i in C, then
    minimalized by the validating constructor."""
    return MonomialIdeal(ideal.nvars, (
        Monomial(0 if i + 1 in C else e for i, e in enumerate(g.exps)) for g in ideal.gens
    ))


# ---------------------------------------------------------------------------
# parsing and canonical form
# ---------------------------------------------------------------------------

class TestParsing:
    def test_mixed_degree_parse(self):
        ideal = I("x1*x2, x1*x3^2, x2*x3^2", 3)
        assert [str(g) for g in ideal.gens] == ["x1*x2", "x2*x3^2", "x1*x3^2"]

    def test_minimalization_prunes_multiples(self):
        assert I("x1, x1^2", 2) == I("x1", 2)

    def test_empty_is_zero_ideal(self):
        ideal = I("", 3)
        assert ideal.is_zero and ideal.gens == ()

    def test_whitespace_insignificant(self):
        assert I("  x1 * x2 ,x3 ", 3) == I("x1*x2, x3", 3)

    def test_unit_generator(self):
        assert I("1", 2).is_unit
        assert I("1, x1", 2).is_unit

    def test_repeated_variable_accumulates(self):
        assert M("x1*x1^2", 2) == M("x1^3", 2)

    def test_syntax_error_position(self):
        with pytest.raises(IdealSyntaxError) as err:
            parse_ideal("x1*y2", 3)
        assert err.value.position == 3

    @pytest.mark.parametrize("text, nvars, message, position", [
        ("x 1", 2, "expected an integer", 1),
        ("x^2", 2, "expected an integer", 1),
        ("x1^", 2, "expected an integer", 3),
        ("x2^  x2", 2, "expected an integer", 5),
        ("x1 ^ 0", 2, "exponent must be positive", 5),
        ("x0", 2, "variable index 0 out of range 1..2", 1),
        ("x1*x3^0", 2, "variable index 3 out of range 1..2", 4),
        ("x3^", 2, "variable index 3 out of range 1..2", 1),
        ("1*x1", 2, "expected ',' between generators", 1),
        ("12", 2, "expected ',' between generators", 1),
        ("x1 x2", 2, "expected ',' between generators", 3),
        ("x1,", 2, "expected a term 'x<index>'", 3),
        ("x1**x2", 2, "expected a term 'x<index>'", 3),
        # digits that are not decimal ones: int() used to reject them
        ("x1\u00b2", 2, "expected ',' between generators", 2),
        ("x\u00b2", 2, "expected an integer", 1),
    ])
    def test_syntax_error_messages(self, text, nvars, message, position):
        with pytest.raises(IdealSyntaxError) as err:
            parse_generators(text, nvars)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("text, expected", [
        ("x01", "x1"),
        ("x\u0661", "x1"),  # ARABIC-INDIC DIGIT ONE is a decimal digit
        ("x1\u00a0*\u2003x2 ^\u00a02", "x1*x2^2"),  # NO-BREAK SPACE, EM SPACE
    ])
    def test_unicode_digits_and_spaces_accepted(self, text, expected):
        assert parse_generators(text, 2) == [M(expected, 2)]

    def test_variable_out_of_range(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x4", 3)

    def test_zero_exponent_rejected(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x1^0", 2)

    def test_trailing_comma_rejected(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x1,", 2)

    def test_order_preserving_generator_parse(self):
        gens = parse_generators("x2*x3^2, x1*x2", 3)
        assert [str(g) for g in gens] == ["x2*x3^2", "x1*x2"]


class TestCanonicalForm:
    def test_roundtrip_examples(self):
        for text, n in [
            ("x1*x2, x1*x3^2, x2*x3^2", 3),
            ("x1^2, x1*x2, x3^2, x2*x3", 3),
            ("", 4),
            ("1", 2),
            ("x1^3*x2^5", 2),
        ]:
            ideal = I(text, n)
            assert parse_ideal(str(ideal), n) == ideal

    def test_structural_equality_is_ideal_equality(self):
        assert I("x1, x2", 2) == I("x2, x1, x1*x2", 2)

    def test_gens_sorted_by_degree_then_lex(self):
        ideal = I("x2^3, x1, x2*x3", 3)
        degrees = [g.degree for g in ideal.gens]
        assert degrees == sorted(degrees)


# ---------------------------------------------------------------------------
# minimalization
# ---------------------------------------------------------------------------

class TestMinimalize:
    def test_divisor_pruning(self):
        gens = [M("x1*x2", 2), M("x1^2*x2", 2), M("x2^3", 2)]
        assert MonomialIdeal(2, gens) == I("x1*x2, x2^3", 2)

    def test_unit_swallows_everything(self):
        assert MonomialIdeal(2, [M("1", 2), M("x1", 2)]).is_unit

    def test_antichain_untouched(self):
        ideal = I("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3)
        assert len(ideal.gens) == 4

    def test_mixed_nvars_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [M("x1", 2), M("x1", 3)])


# ---------------------------------------------------------------------------
# colon and saturation
# ---------------------------------------------------------------------------

class TestColon:
    def test_four_generator_colon(self):
        ideal = I("x1^2, x1*x2, x3^2, x2*x3", 3)
        assert colon(ideal, M("x2", 3)) == I("x1, x3", 3)
        assert colon_membership_ok(ideal, M("x2", 3))

    def test_colon_by_one(self):
        ideal = I("x1*x2, x3", 3)
        assert colon(ideal, M("1", 3)) == ideal

    def test_counterexample_ideal(self):
        ideal = I("x1*x2, x1*x3^2, x2*x3^2", 3)
        assert colon(ideal, M("x3", 3)) == I("x1*x2, x1*x3, x2*x3", 3)
        assert colon_membership_ok(ideal, M("x3", 3))

    def test_colon_can_reach_unit(self):
        ideal = I("x1*x2", 2)
        assert colon(ideal, M("x1*x2", 2)).is_unit

    def test_cap_property(self):
        ideal = I("x1^2*x2, x2*x3^2", 3)
        top = ideal.lcm_gens()
        big = M("x1^9*x3^9", 3)
        assert colon(ideal, big) == colon(ideal, big.gcd(top))


class TestSaturate:
    def test_iterated_colon_stabilizes(self):
        assert saturate(I("x1*x2^2, x3", 3), M("x2", 3)) == I("x1, x3", 3)

    def test_saturate_by_one(self):
        ideal = I("x1^2, x2", 2)
        assert saturate(ideal, M("1", 2)) == ideal

    def test_saturate_checks_nvars(self):
        with pytest.raises(ValueError, match="nvars mismatch"):
            saturate(I("x1^2, x2", 2), M("x1", 3))

    def test_saturation_drops_variable(self):
        ideal = I("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6)
        assert saturate(ideal, M("x4", 6)) == I("x2*x3, x3*x5*x6", 6)

    def test_one_colon_equals_the_iterated_fixed_point(self):
        def iterated(ideal, u):
            prev, cur = ideal, colon(ideal, u)
            while cur != prev:
                prev, cur = cur, colon(cur, u)
            return cur

        us = [Monomial(e) for e in itertools.product(range(3), repeat=3)]
        checked = 0
        for ideal in space_ideals(IdealSpace(3, 3, 3)):
            for u in us:
                assert saturate(ideal, u) == iterated(ideal, u), (str(ideal), str(u))
                checked += 1
        assert checked > 27 * 100


class TestLocalize:
    def test_substitution_example(self):
        ideal = I("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6)
        assert localize(ideal, [4]) == I("x2*x3, x3*x5*x6", 6)

    def test_empty_subset_is_identity(self):
        ideal = I("x1^2*x2, x3", 3)
        assert localize(ideal, []) == ideal

    def test_square_component_localization(self):
        ideal = I("x1^2, x2^2*x3, x1*x2*x3, x1*x2^2, x1*x3^3, x2*x3^3", 3)
        loc = localize(component(power(ideal, 2), 6), [3])
        assert loc == I("x1*x2^3, x2^4, x1^2*x2, x1^3", 3)

    def test_localize_equals_saturation(self):
        # both against the substitution x_i -> 1 itself; one exponent is
        # far past any machine-word sentinel
        for text, n, C in [
            ("x1^2*x2, x2*x3^2, x1*x3", 3, [2]),
            ("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6, [3, 4]),
            ("x1^3, x2^2", 2, [1]),
            (f"x1^{10**20}*x2, x2^3*x3, x1*x3^2", 3, [1]),
            (f"x1^{10**20}*x2, x2^3*x3, x1*x3^2", 3, [2, 3]),
        ]:
            ideal = I(text, n)
            xc = M("*".join(f"x{i}" for i in C), n)
            assert localize(ideal, C) == substituted(ideal, C), (text, C)
            assert saturate(ideal, xc) == substituted(ideal, C), (text, C)

    def test_indices_any_iterable_and_checked(self):
        ideal = I("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6)
        for C in ({3, 4}, (4, 3), range(3, 5), (i for i in [3, 4])):
            assert localize(ideal, C) == I("x2, x5*x6", 6)
        for bad, shown in (([0], "[0]"), ([7, 2, 9], "[7, 9]")):
            message = f"variable indices {shown} out of range 1..6"
            with pytest.raises(ValueError, match=re.escape(message)):
                localize(ideal, bad)
            with pytest.raises(ValueError, match=re.escape(message)):
                prime_ideal(6, bad)

    def test_squarefree_localization_is_plain_colon(self):
        ideal = I("x1*x2, x2*x3, x3*x4", 4)
        for C in ([1], [2, 4], [1, 3]):
            xc = M("*".join(f"x{i}" for i in C), 4)
            assert localize(ideal, C) == colon(ideal, xc)


# ---------------------------------------------------------------------------
# sums, products, intersections, powers, components
# ---------------------------------------------------------------------------

class TestCombine:
    def test_intersection_of_primes(self):
        K = ideal_intersection(
            ideal_intersection(prime_ideal(3, [1, 2]), prime_ideal(3, [1, 3])),
            prime_ideal(3, [2, 3]),
        )
        assert K == I("x1*x2, x1*x3, x2*x3", 3)

    def test_intersection_membership(self):
        A = I("x1^2, x2*x3", 3)
        B = I("x1*x3, x2^2", 3)
        assert intersection_membership_ok(A, B, ideal_intersection(A, B))

    def test_product_transversal(self):
        assert ideal_product(prime_ideal(4, [1, 2]), prime_ideal(4, [3, 4])) == I(
            "x1*x3, x1*x4, x2*x3, x2*x4", 4
        )

    def test_power_one_is_identity(self):
        ideal = I("x1^2, x2*x3", 3)
        assert power(ideal, 1) == ideal

    def test_combine_dispatch(self):
        A, B = I("x1", 2), I("x2", 2)
        assert combine("sum", A, B) == I("x1, x2", 2)
        assert combine("product", A, B) == I("x1*x2", 2)
        assert combine("intersect", A, B) == I("x1*x2", 2)
        with pytest.raises(ValueError):
            combine("meet", A, B)

    def test_zero_and_unit_absorption(self):
        zero, unit, A = I("", 2), I("1", 2), I("x1^2, x2", 2)
        assert ideal_sum(zero, A) == A
        assert ideal_product(zero, A).is_zero
        assert ideal_intersection(zero, A).is_zero
        assert ideal_product(unit, A) == A
        assert ideal_intersection(unit, A) == A


class TestComponent:
    def test_degree_three_component(self):
        ideal = I("x1*x2, x1*x3^2, x2*x3^2", 3)
        expected = I("x1^2*x2, x1*x2^2, x1*x2*x3, x1*x3^2, x2*x3^2", 3)
        assert component(ideal, 3) == expected
        assert set(component(ideal, 3).gens) == component_oracle(ideal, 3)

    def test_below_least_degree_is_zero(self):
        assert component(I("x1*x2", 3), 0).is_zero
        assert component(I("x1*x2", 3), 1).is_zero

    def test_at_generator_degree(self):
        assert component(I("x1*x2", 2), 2) == I("x1*x2", 2)

    def test_matches_oracle(self):
        ideal = I("x1^2, x2^2*x3, x1*x3^3", 3)
        for j in range(6):
            assert set(component(ideal, j).gens) == component_oracle(ideal, j)

    def test_stable_range_identity(self):
        # past the top generator degree, components grow by one power of m
        ideal = I("x1^2, x2^3", 2)
        d = ideal.max_degree
        m = maximal_ideal(2)
        for extra in (1, 2):
            assert component(ideal, d + extra) == ideal_product(
                component(ideal, d), power(m, extra)
            )

    def test_component_growth(self):
        ideal = I("x1^2, x2^2*x3, x1*x3^3", 3)
        m = maximal_ideal(3)
        for j in range(2, 6):
            grown = ideal_product(component(ideal, j), m)
            assert component(ideal, j + 1).contains_ideal(grown)


class TestSingleDegree:
    def test_examples(self):
        assert is_single_degree(I("x1^2, x1*x2, x3^2, x2*x3", 3))
        assert not is_single_degree(I("x1*x2^3, x2^4, x1^2*x2, x1^3", 3))
        assert is_single_degree(I("x1^2*x2^4", 2))
        assert is_single_degree(I("1", 2))

    def test_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            is_single_degree(I("", 2))


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_monomials_of_degree_count(self):
        assert len(list(monomials_of_degree(3, 3))) == 10
        assert [str(m) for m in monomials_of_degree(2, 2)] == ["x2^2", "x1*x2", "x1^2"]

    def test_capped_exponents_match_a_filtered_product(self):
        # random caps, zeros included, against a lex-sorted brute force
        rng = random.Random(19)
        for n in range(1, 6):
            for _ in range(6):
                caps = tuple(rng.randint(0, 3) for _ in range(n))
                for d in range(7):
                    expected = sorted(
                        e for e in itertools.product(*(range(a + 1) for a in caps)) if sum(e) == d
                    )
                    assert list(capped_exponents(d, caps)) == expected, (d, caps)
        assert list(capped_exponents(2, ())) == []
        assert list(capped_exponents(-1, (3, 3))) == []

    def test_capped_exponents_leave_no_cycle(self):
        # the recursive helper refers to itself; its cell is cleared when
        # the generator finishes or is closed, so refcounting frees it all
        gc.collect()
        gc.disable()
        try:
            for caps in ((2, 2), (2, 1, 2), (3, 3, 3, 3)):
                list(capped_exponents(3, caps))
                partial = capped_exponents(3, caps)
                next(partial)
                del partial
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_divisors(self):
        divs = lcm_divisors(I("x1^2*x2", 2))
        assert len(divs) == 6
        assert divs[0].is_unit and divs[-1] == M("x1^2*x2", 2)

    def test_capped_divisors_cover_all_colons(self):
        # every colon I : w equals I : gcd(w, lcm(G(I))), a divisor of the lcm
        ideal = I("x1^2, x2*x3", 3)
        reachable = {colon(ideal, u) for u in lcm_divisors(ideal)}
        for w in monomials_up_to(3, 4):
            assert colon(ideal, w) in reachable

    def test_capped_divisors_are_counted_before_any_is_built(self, monkeypatch):
        # prod(e_i + 1) divisors of the lcm, against the monomial budget
        at_budget = MonomialIdeal(1, [Monomial((DEFAULT_MONOMIAL_BUDGET - 1,))])
        assert next(colons(at_budget)) == (M("1", 1), at_budget)
        over = MonomialIdeal(2, [Monomial((1, DEFAULT_MONOMIAL_BUDGET // 2))])
        used = []
        monkeypatch.setattr(ideal_module, "colon", lambda J, u: used.append(u))
        with pytest.raises(ResourceLimitExceeded, match="colons would enumerate"):
            next(colons(over))
        assert not used


def first_colons(ideal):
    """Each distinct non-unit colon at its least divisor of the lcm, in order."""
    first = {}
    for u in lcm_divisors(ideal):
        J = colon(ideal, u)
        if not J.is_unit:
            first.setdefault(J, u)
    return [(u, J) for J, u in first.items()]


class TestColons:
    def test_first_occurrences_in_divisor_order(self):
        more = [
            ("1", 2),
            ("x1*x2, x3*x4", 4),
            ("x1^2*x3, x2*x4^2, x1*x2*x3*x4", 4),
            ("x1*x2*x3, x3*x4*x5, x1^2*x5", 5),
            ("x1^2, x1*x2, x2*x3, x4*x5^2", 5),
        ]
        ideals = [*space_ideals(IdealSpace(3, 3, 3)), *(I(text, n) for text, n in more)]
        for ideal in ideals:
            assert list(colons(ideal)) == first_colons(ideal), ideal

    def test_powers_of_m_and_sampled_ideals(self):
        # m^3 in 5 variables: 1,024 divisors of the lcm but few distinct colons
        ideals = [power(maximal_ideal(5), 3), power(maximal_ideal(4), 4)]
        for n, seed in [(4, 11), (5, 12)]:
            ideals += space_ideals(IdealSpace(n, 3, 5, mode="sampled", samples=40, seed=seed))
        for ideal in ideals:
            assert list(colons(ideal)) == first_colons(ideal), ideal

    def test_zero_ideal_has_no_colons(self):
        assert list(colons(I("", 2))) == []

    def test_yielded_monomials_equal_checked_ones(self):
        # the walk builds each u with the trusted constructor
        for ideal in space_ideals(IdealSpace(3, 3, 4)):
            for u, _ in colons(ideal):
                checked = Monomial(u.exps)
                assert type(u.exps) is tuple and u == checked, (str(ideal), u.exps)
                assert u.degree == checked.degree, (str(ideal), u.exps)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

def monomials(nvars, maxexp=2):
    return st.builds(
        Monomial,
        st.lists(st.integers(0, maxexp), min_size=nvars, max_size=nvars).map(tuple),
    )


def ideals(nvars, maxgens=4, maxexp=2):
    return st.lists(
        monomials(nvars, maxexp).filter(lambda m: m.degree > 0),
        min_size=1,
        max_size=maxgens,
    ).map(lambda gens: MonomialIdeal(nvars, gens))


@settings(max_examples=60, deadline=None)
@given(ideals(3), monomials(3))
def test_colon_membership_property(ideal, u):
    assert colon_membership_ok(ideal, u, maxdeg=3)


@st.composite
def colon_cases(draw):
    """An ideal in at most 6 variables with up to 12 generators (possibly
    zero or the unit ideal), and a monomial u: 1, or exponents up to two
    past the lcm's, or some near 10^6."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=12))
    ideal = MonomialIdeal(n, [Monomial(e) for e in gens])
    top = ideal.lcm_gens().exps if gens else (0,) * n
    u = draw(
        st.one_of(
            st.just((0,) * n),
            st.tuples(*(st.integers(0, t + 2) for t in top)),
            st.tuples(*(st.sampled_from((0, 1, 10**6)) for _ in range(n))),
        )
    )
    return ideal, Monomial(u)


def colon_by_definition(ideal, u):
    """G(I : u) by its definition: the minimal elements of
    {g / gcd(g, u)} over G(I), as exponent tuples in canonical order."""
    quotients = {tuple(max(a - b, 0) for a, b in zip(g.exps, u.exps)) for g in ideal.gens}
    minimal = [
        q for q in quotients
        if not any(p != q and all(a <= b for a, b in zip(p, q)) for p in quotients)
    ]
    return sorted(minimal, key=lambda q: (sum(q), q))


@settings(max_examples=300, deadline=None)
@given(colon_cases())
def test_colon_matches_its_definition(case):
    ideal, u = case
    J = colon(ideal, u)
    assert J.nvars == ideal.nvars
    assert [g.exps for g in J.gens] == colon_by_definition(ideal, u), (str(ideal), str(u))
    assert all(g.degree == sum(g.exps) for g in J.gens)


@settings(max_examples=40, deadline=None)
@given(ideals(3))
def test_localize_is_saturation_property(ideal):
    for C in ([1], [2, 3]):
        xc = Monomial(tuple(1 if i + 1 in C else 0 for i in range(3)))
        assert localize(ideal, C) == substituted(ideal, C)
        assert saturate(ideal, xc) == substituted(ideal, C)


@settings(max_examples=40, deadline=None)
@given(ideals(3), monomials(3, maxexp=4))
def test_colon_cap_property(ideal, u):
    top = ideal.lcm_gens()
    assert colon(ideal, u) == colon(ideal, u.gcd(top))


@settings(max_examples=30, deadline=None)
@given(ideals(2), ideals(2), ideals(2))
def test_combine_laws(A, B, C):
    assert ideal_sum(A, B) == ideal_sum(B, A)
    assert ideal_product(A, B) == ideal_product(B, A)
    assert ideal_intersection(A, B) == ideal_intersection(B, A)
    assert ideal_sum(ideal_sum(A, B), C) == ideal_sum(A, ideal_sum(B, C))
    assert ideal_product(ideal_product(A, B), C) == ideal_product(A, ideal_product(B, C))
    # product distributes over sum at the level of generated ideals
    assert ideal_product(A, ideal_sum(B, C)) == ideal_sum(
        ideal_product(A, B), ideal_product(A, C)
    )


@settings(max_examples=50, deadline=None)
@given(ideals(3))
def test_roundtrip_property(ideal):
    assert parse_ideal(str(ideal), 3) == ideal


@settings(max_examples=50, deadline=None)
@given(st.lists(monomials(3, maxexp=3), min_size=1, max_size=8))
def test_gens_are_antichain(drawn):
    # repeating a prefix puts duplicates in every input
    given_gens = drawn + drawn[: len(drawn) // 2 + 1]
    gens = MonomialIdeal(3, given_gens).gens
    for a in gens:
        for b in gens:
            if a is not b:
                assert not a.divides(b)
    # brute force: the input monomials that no other distinct input divides
    assert set(gens) == {
        m for m in given_gens if not any(k != m and k.divides(m) for k in given_gens)
    }
