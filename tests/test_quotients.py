"""Linear-quotients certificates: checking, exhaustive search, reverse-lex
orders, and the Veronese extension construction."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polymat.ideal import (
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    UnitIdealError,
    _masks,
    colon,
    ideal_product,
    maximal_ideal,
    monomials_of_degree,
    parse_generators,
    parse_ideal,
    power,
)
from polymat.polymatroid import VeroneseParams, is_polymatroidal, veronese
from polymat.quotients import (
    LinearQuotientsCertificate,
    _mask_step,
    check_lq_order,
    componentwise_veronese_lq,
    extend_lq_veronese,
    find_lq_order,
    revlex_lq,
    revlex_order,
)
from polymat.resolution import is_componentwise_linear
import polymat.quotients as quotients_module

from oracles import is_minimal_sequence, lq_exists_bruteforce, lq_order_ok_primitive


def I(text, n):
    return parse_ideal(text, n)


def zero(n):
    return MonomialIdeal(n)


class TestCheckOrder:
    def test_given_order_certificate(self):
        cert, fail = check_lq_order(zero(3), parse_generators("x1*x2, x1*x3^2, x2*x3^2", 3))
        assert fail is None
        assert [sorted(s) for s in cert.steps] == [[], [2], [1]]
        assert cert.verify()

    def test_failing_order(self):
        cert, fail = check_lq_order(zero(4), parse_generators("x1*x2, x3*x4", 4))
        assert cert is None and fail == 1

    def test_single_generator(self):
        cert, fail = check_lq_order(zero(2), parse_generators("x1*x2^2", 2))
        assert cert is not None and list(cert.steps) == [frozenset()]

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            check_lq_order(zero(2), parse_generators("x1, x1*x2", 2))
        with pytest.raises(ValueError):
            check_lq_order(I("x1", 2), parse_generators("x1*x2", 2))
        # the divisor lies two degrees below its multiple, past an
        # unrelated member of the degree between
        with pytest.raises(ValueError):
            check_lq_order(zero(3), parse_generators("x2^2, x1*x3^2, x1", 3))

    def test_certificate_tampering_detected(self):
        cert, _ = check_lq_order(zero(3), parse_generators("x1*x2, x1*x3^2, x2*x3^2", 3))
        bad = LinearQuotientsCertificate(
            cert.base, cert.appended, (frozenset(), frozenset({1}), frozenset({1}))
        )
        assert not bad.verify()

    def test_certificate_of_non_minimal_sequence_rejected(self):
        # (x1*x2) : x1 = (x2), so each step alone looks linear, but x1
        # divides x1*x2 and the sequence is no minimal generating set
        bad = LinearQuotientsCertificate(
            zero(2), tuple(parse_generators("x1*x2, x1", 2)), (frozenset(), frozenset({2}))
        )
        assert not bad.verify()

    def test_certificate_with_mixed_nvars_rejected(self):
        # a pairwise comparison of exponents would silently drop x3
        appended = (parse_generators("x1", 2)[0], parse_generators("x2*x3", 3)[0])
        bad = LinearQuotientsCertificate(zero(2), appended, (frozenset(), frozenset({1})))
        assert not bad.verify()

    def test_nonzero_base(self):
        base = I("x2^3, x1*x2^2, x1^2*x2", 2)  # I_(2;1,2) * m
        cert, fail = check_lq_order(base, parse_generators("x1^3", 2))
        assert fail is None
        assert [sorted(s) for s in cert.steps] == [[2]]


class TestFindOrder:
    def test_counterexample_ideal_has_order(self):
        gens = parse_generators("x1*x2, x1*x3^2, x2*x3^2", 3)
        cert = find_lq_order(zero(3), gens)
        assert cert is not None and cert.verify()

    def test_disjoint_edges_none(self):
        assert find_lq_order(zero(4), parse_generators("x1*x2, x3*x4", 4)) is None

    def test_veronese_ideals_found(self):
        for params in [
            VeroneseParams(2, (1, 1, 1)),
            VeroneseParams(3, (2, 3)),
            VeroneseParams(2, (2, 1, 1)),
        ]:
            ideal = veronese(params)
            cert = find_lq_order(zero(ideal.nvars), ideal.gens)
            assert cert is not None and cert.verify()

    def test_search_leaves_no_cycle(self):
        # the recursive search refers to itself; its cell is cleared after
        # the search, so its masks and memo go with the last reference
        cases = [parse_generators("x1*x2, x1*x3^2, x2*x3^2", 3), parse_generators("x1*x2, x3*x4", 4)]
        gc.collect()
        gc.disable()
        try:
            for gens in cases:
                find_lq_order(zero(len(gens[0].exps)), gens)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cap_enforced(self):
        gens = list(power(maximal_ideal(3), 3).gens)
        with pytest.raises(ResourceLimitExceeded):
            find_lq_order(zero(3), gens, max_gens=5)

    def test_order_is_pinned(self):
        # the first success in canonical candidate order, step sets included
        cases = [
            (parse_generators("x1*x2, x1*x3^2, x2*x3^2", 3),
             ["x1*x2", "x2*x3^2", "x1*x3^2"], [[], [1], [2]]),
            (veronese(VeroneseParams(2, (2, 1, 1))).gens,
             ["x2*x3", "x1*x3", "x1*x2", "x1^2"], [[], [2], [3], [2, 3]]),
        ]
        for gens, order, steps in cases:
            cert = find_lq_order(zero(3), gens)
            assert [str(v) for v in cert.appended] == order
            assert [sorted(s) for s in cert.steps] == steps

    def test_deterministic(self):
        gens = parse_generators("x1*x2, x1*x3^2, x2*x3^2", 3)
        a = find_lq_order(zero(3), gens)
        b = find_lq_order(zero(3), gens)
        assert a.appended == b.appended

    def test_exhaustive_against_bruteforce(self):
        cases = [
            ("x1*x2, x3*x4", 4),
            ("x1*x2, x1*x3^2, x2*x3^2", 3),
            ("x1^2, x2^2", 2),
            ("x1^2, x1*x2, x3^2, x2*x3", 3),
            ("x1*x2, x2*x3, x3*x4", 4),
            ("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3),
        ]
        for text, n in cases:
            gens = parse_generators(text, n)
            found = find_lq_order(zero(n), gens) is not None
            assert found == lq_exists_bruteforce(zero(n), gens), text


class TestRevlex:
    def test_comparison_convention(self):
        # x1 > x2 > x3; ties broken from the last variable backwards
        assert revlex_greater(I("x1*x2", 3).gens[0], I("x1*x3", 3).gens[0])
        assert revlex_greater(I("x1^2", 3).gens[0], I("x1*x2", 3).gens[0])
        assert not revlex_greater(I("x2*x3", 3).gens[0], I("x1*x3", 3).gens[0])

    def test_descending_processing(self):
        order = revlex_order(parse_generators("x2^2, x1^2, x1*x2", 2))
        assert [str(m) for m in order] == ["x1^2", "x1*x2", "x2^2"]
        inc = revlex_order(parse_generators("x2^2, x1^2, x1*x2", 2), increasing=True)
        assert [str(m) for m in inc] == ["x2^2", "x1*x2", "x1^2"]

    def test_m_squared(self):
        cert = revlex_lq(I("x1^2, x1*x2, x2^2", 2))
        assert cert is not None and cert.verify()

    def test_disjoint_edges(self):
        assert revlex_lq(I("x1*x2, x3*x4", 4)) is None

    def test_non_polymatroidal_revlex_recorded(self):
        # no theorem applies (the ideal is not polymatroidal); both
        # conventions are legal inputs and simply report what happens
        ideal = I("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3)
        dec = revlex_lq(ideal)
        inc = revlex_lq(ideal, increasing=True)
        assert (dec is None or dec.verify()) and (inc is None or inc.verify())

    def test_requires_single_degree(self):
        with pytest.raises(ValueError):
            revlex_lq(I("x1, x2^2", 2))

    def test_polymatroidal_corpus_decreasing_works(self):
        cases = [
            veronese(VeroneseParams(2, (1, 1, 1))),
            veronese(VeroneseParams(3, (2, 2, 1))),
            veronese(VeroneseParams(2, (2, 1))),
            power(maximal_ideal(3), 2),
            I("x1*x3, x1*x4, x2*x3, x2*x4", 4),
            ideal_product(I("x1, x2", 3), I("x2, x3", 3)),
        ]
        for ideal in cases:
            assert is_polymatroidal(ideal)[0]
            cert = revlex_lq(ideal)
            assert cert is not None and cert.verify(), str(ideal)


class TestExtendVeronese:
    def test_two_variable_extension(self):
        cert = extend_lq_veronese(VeroneseParams(2, (1, 2)), VeroneseParams(3, (3, 3)))
        assert cert.base == ideal_product(veronese(VeroneseParams(2, (1, 2))), maximal_ideal(2))
        assert [str(v) for v in cert.appended] == ["x1^3"]
        assert [sorted(s) for s in cert.steps] == [[2]]

    def test_order_is_pinned(self):
        # the two-stage construction's orders: stage 1 (every u_i <= a_i + 1),
        # then stage 2 (caps raised one at a time, in variable order)
        cases = [
            ((2, (0, 1, 2)), (3, (3, 3, 3)),
             ["x1*x2^2", "x1^2*x2", "x1^2*x3", "x1^3", "x2^3"]),
            ((3, (1, 1, 1, 1)), (4, (3, 2, 3, 4)),
             ["x1^2*x2^2", "x1^2*x3^2", "x1^2*x4^2", "x2^2*x3^2", "x2^2*x4^2",
              "x3^2*x4^2", "x1^3*x2", "x1^3*x3", "x1^3*x4", "x1*x3^3", "x2*x3^3",
              "x3^3*x4", "x1*x4^3", "x2*x4^3", "x3*x4^3", "x4^4"]),
        ]
        for p, q, order in cases:
            cert = extend_lq_veronese(VeroneseParams(*p), VeroneseParams(*q))
            assert [str(v) for v in cert.appended] == order, (p, q)

    def test_trivial_extension(self):
        cert = extend_lq_veronese(VeroneseParams(2, (2, 2)), VeroneseParams(3, (3, 3)))
        assert cert.appended == ()

    def test_three_vars_full_run(self):
        cert = extend_lq_veronese(VeroneseParams(2, (1, 1, 1)), VeroneseParams(3, (2, 2, 2)))
        assert cert.verify()
        # final ideal is all of J
        total = set(cert.base.gens) | set(cert.appended)
        assert total == set(veronese(VeroneseParams(3, (2, 2, 2))).gens)

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            extend_lq_veronese(VeroneseParams(2, (2, 2)), VeroneseParams(3, (1, 2)))
        with pytest.raises(ValueError):
            extend_lq_veronese(VeroneseParams(2, (2, 2)), VeroneseParams(4, (4, 4)))

    def test_untight_caps_accepted(self):
        # caps above the degree describe the same ideal and must still work
        cert = extend_lq_veronese(VeroneseParams(2, (5, 5)), VeroneseParams(3, (3, 3)))
        assert cert.appended == ()

    def test_exhaustive_small_pairs(self):
        for n in (2, 3):
            for d in (1, 2):
                for caps_p in itertools.product(range(d + 2), repeat=n):
                    if sum(caps_p) < d:
                        continue
                    p = VeroneseParams(d, caps_p)
                    Im = ideal_product(veronese(p), maximal_ideal(n))
                    for caps_q in itertools.product(range(d + 3), repeat=n):
                        if sum(caps_q) < d + 1:
                            continue
                        q = VeroneseParams(d + 1, caps_q)
                        if not veronese(q).contains_ideal(Im):
                            continue
                        cert = extend_lq_veronese(p, q)
                        assert cert.verify()

    def test_generator_sets_match_the_ideal_arithmetic(self):
        # every criterion-9 pair with n <= 3: the tuple-built base and
        # appended set against I*m and G(J) built as ideals
        for n in range(1, 4):
            for d in range(1, 4):
                for caps_p in itertools.product(range(d + 2), repeat=n):
                    if sum(caps_p) < d:
                        continue
                    p = VeroneseParams(d, caps_p)
                    Im = ideal_product(veronese(p), maximal_ideal(n))
                    lows = [min(a + 1, d + 1) for a in caps_p]
                    for caps_q in itertools.product(*(range(lo, d + 2) for lo in lows)):
                        q = VeroneseParams(d + 1, caps_q)
                        cert = extend_lq_veronese(p, q)
                        assert cert.base == Im, (p, q)
                        assert set(cert.appended) == set(veronese(q).gens) - set(Im.gens), (p, q)


class TestComponentwiseVeroneseChain:
    def test_single_degree_chain(self):
        cert = componentwise_veronese_lq(power(maximal_ideal(2), 2))
        assert cert is not None and cert.verify()

    def test_two_degree_chain(self):
        ideal = I("x1, x2^3", 2)
        cert = componentwise_veronese_lq(ideal)
        assert cert is not None and cert.verify()
        assert set(cert.appended) == set(ideal.gens)

    def test_not_componentwise_veronese(self):
        assert componentwise_veronese_lq(I("x1*x2, x1*x3^2, x2*x3^2", 3)) is None

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdealError):
            componentwise_veronese_lq(I("1", 2))

    def test_chain_implies_find_succeeds(self):
        for text, n in [("x1, x2^3", 2), ("x1^2, x1*x2, x2^2, x1^3", 2)]:
            ideal = I(text, n)
            cert = componentwise_veronese_lq(ideal)
            assert cert is not None
            assert find_lq_order(zero(n), ideal.gens) is not None

    def test_linear_quotients_implies_componentwise_linear(self):
        for text, n in [
            ("x1*x2, x1*x3^2, x2*x3^2", 3),
            ("x1, x2^3", 2),
            ("x1*x2, x1*x3, x2*x3", 3),
        ]:
            ideal = I(text, n)
            if find_lq_order(zero(n), ideal.gens) is not None:
                assert is_componentwise_linear(ideal)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 2),
    st.lists(st.integers(0, 3), min_size=2, max_size=3),
    st.lists(st.integers(0, 4), min_size=2, max_size=3),
)
def test_extension_property(d, caps_p, caps_q):
    n = min(len(caps_p), len(caps_q))
    caps_p, caps_q = tuple(caps_p[:n]), tuple(caps_q[:n])
    if sum(caps_p) < d or sum(caps_q) < d + 1:
        return
    p = VeroneseParams(d, caps_p)
    q = VeroneseParams(d + 1, caps_q)
    Im = ideal_product(veronese(p), maximal_ideal(n))
    if not veronese(q).contains_ideal(Im):
        return
    cert = extend_lq_veronese(p, q)
    assert cert.verify()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=3), st.integers(1, 2))
def test_certificates_self_verify(caps, d):
    caps = tuple(caps)
    if sum(caps) < d:
        return
    ideal = veronese(VeroneseParams(d, caps))
    cert = revlex_lq(ideal)
    if cert is not None:
        assert cert.verify()


def _exponent_monomials(n):
    return st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda e: Monomial(tuple(e))
    )


@st.composite
def step_cases(draw):
    """Predecessors (any list, possibly empty) and a next generator v,
    with v often a multiple of some predecessor."""
    n = draw(st.integers(1, 4))
    current = draw(st.lists(_exponent_monomials(n), max_size=6))
    v = draw(_exponent_monomials(n))
    if current and draw(st.booleans()):
        v = draw(st.sampled_from(current)) * v
    return n, current, v


@st.composite
def lq_sequences(draw):
    """A base ideal (possibly zero) and an order of further generators,
    jointly a minimal generating set."""
    n = draw(st.integers(1, 4))
    drawn = draw(st.lists(_exponent_monomials(n), max_size=7))
    gens = draw(st.permutations(MonomialIdeal(n, drawn).gens))
    k = draw(st.integers(0, len(gens)))
    return MonomialIdeal(n, gens[:k]), gens[k:]


def revlex_greater(u, v):
    """u > v in the reverse lexicographic order with x1 > x2 > ... > xn:
    for equal degrees, the last nonzero entry of u - v is negative."""
    for a, b in zip(reversed(u.exps), reversed(v.exps)):
        if a != b:
            return a < b
    return False


def _lq_step(current, v):
    """The mask step for (current) : v, on the masks of current plus v."""
    return _mask_step(_masks((*current, v)), v.exps, (1 << len(current)) - 1)


def _colon_variables(ideal, v):
    """The variable set of ideal : v, or None when it is not generated by variables."""
    J = colon(ideal, v)
    if any(g.degree != 1 for g in J.gens):
        return None
    return frozenset().union(*(g.support for g in J.gens))


@settings(max_examples=300, deadline=None)
@given(step_cases())
def test_step_test_matches_colon(case):
    n, current, v = case
    assert _lq_step(current, v) == _colon_variables(MonomialIdeal(n, current), v)


def _colon_steps(base, order):
    """The variable set of every step of ``order`` after ``base``, by colons."""
    return [
        _colon_variables(MonomialIdeal(base.nvars, base.gens + tuple(order[:k])), v)
        for k, v in enumerate(order)
    ]


@settings(max_examples=300, deadline=None)
@given(lq_sequences())
def test_check_order_matches_primitive_oracle(case):
    base, order = case
    cert, failed_at = check_lq_order(base, order)
    assert (cert is not None) == lq_order_ok_primitive(base, order)
    colons = _colon_steps(base, order)
    if cert is None:
        # the reported position is the first step whose colon is not linear
        assert failed_at == colons.index(None)
        return
    assert failed_at is None and cert.verify()
    assert list(cert.steps) == colons


@pytest.mark.parametrize("increasing", [False, True])
@pytest.mark.parametrize(
    "ideal",
    [power(maximal_ideal(5), 4), veronese(VeroneseParams(3, (2, 0, 3, 1)))],
    ids=["m^4 in 5 variables", "Veronese with a zero cap"],
)
def test_wide_sequences_step_like_the_colon(ideal, increasing):
    # m^4 in 5 variables has 70 generators, so the masks pass 64 bits, and
    # its steps meet exponents at the top of each variable; the zero cap
    # gives a variable whose exponent is 0 throughout
    order = revlex_order(ideal.gens, increasing)
    colons = _colon_steps(zero(ideal.nvars), order)
    cert, failed_at = check_lq_order(zero(ideal.nvars), order)
    if None in colons:
        assert cert is None and failed_at == colons.index(None)
    else:
        assert failed_at is None and list(cert.steps) == colons
    assert [_lq_step(order[:k], v) for k, v in enumerate(order)] == colons
    if not increasing:
        assert revlex_lq(ideal) == cert


def test_search_after_a_wide_base():
    # I*m has 65 generators for I = I_(3;2,2,2,2,2); the search places the
    # five fourth powers after it, with predecessor masks past 64 bits
    p, q = VeroneseParams(3, (2,) * 5), VeroneseParams(4, (4,) * 5)
    base = ideal_product(veronese(p), maximal_ideal(5))
    assert len(base.gens) == 65
    cert = find_lq_order(base, extend_lq_veronese(p, q).appended)
    assert cert is not None and cert.verify()
    assert list(cert.steps) == _colon_steps(base, cert.appended)


def test_huge_exponents_step_in_generator_count_time():
    # the masks are keyed by the exponents that occur, so an exponent of
    # 10^9 costs no more than an exponent of 1
    e = 10**9
    clash = parse_generators(f"x1^{e}, x2^{e}", 2)
    assert check_lq_order(zero(2), clash) == (None, 1)
    assert find_lq_order(zero(2), clash) is None
    assert revlex_lq(MonomialIdeal(2, clash)) is None
    assert revlex_lq(MonomialIdeal(2, clash), increasing=True) is None
    linear = parse_generators(f"x1^{e}*x2, x1^{e - 1}*x2^2", 2)
    cert, failed_at = check_lq_order(zero(2), linear)
    assert failed_at is None and list(cert.steps) == [frozenset(), frozenset({1})]
    assert cert.verify()
    found = find_lq_order(zero(2), linear)  # canonical order: x2^2 first
    assert found.appended == tuple(reversed(linear)) and found.verify()
    assert revlex_lq(MonomialIdeal(2, linear)) == cert


def _sequences_with_huge_exponents():
    """Sequences of 1 to 3 variables whose exponents are small or near 10^6."""
    exponent = st.one_of(st.integers(0, 3), st.integers(10**6, 10**6 + 3))
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(exponent, min_size=n, max_size=n).map(lambda e: Monomial(tuple(e))),
            min_size=1,
            max_size=6,
        )
    )


@settings(max_examples=200, deadline=None)
@given(_sequences_with_huge_exponents())
def test_masks_hold_the_positions_above_each_key(seq):
    # every key t of gt[i] holds the positions with exponent above t, and
    # the keys t - 1 and t + 1 are there for every exponent t that occurs
    gt = _masks(seq)
    assert len(gt) == len(seq[0].exps)
    for i, col in enumerate(gt):
        for key, mask in col.items():
            assert mask == sum(1 << k for k, g in enumerate(seq) if g.exps[i] > key)
        for t in {g.exps[i] for g in seq}:
            assert col[t - 1] == sum(1 << k for k, g in enumerate(seq) if g.exps[i] >= t)
            assert t in col and t + 1 in col


@st.composite
def single_degree_sets(draw):
    """Distinct monomials of one degree, in drawn order."""
    n = draw(st.integers(1, 5))
    pool = list(monomials_of_degree(n, draw(st.integers(1, 3))))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))


@settings(max_examples=200, deadline=None)
@given(single_degree_sets())
def test_revlex_order_matches_pairwise_definition(gens):
    order = revlex_order(gens)
    assert sorted(order) == sorted(gens)
    assert all(revlex_greater(u, v) for u, v in zip(order, order[1:]))
    assert revlex_order(gens, increasing=True) == order[::-1]


@settings(max_examples=200, deadline=None)
@given(single_degree_sets(), st.booleans())
def test_revlex_certificates_verify(gens, increasing):
    # verify() re-runs check_lq_order on the certificate's own data
    ideal = MonomialIdeal(gens[0].nvars, gens)
    cert = revlex_lq(ideal, increasing)
    expected, _ = check_lq_order(zero(ideal.nvars), revlex_order(ideal.gens, increasing))
    assert cert == expected
    assert cert is None or cert.verify()


@st.composite
def mixed_sequences(draw):
    """A base ideal and an order that is often no minimal generating set
    with it: a repeat, a divisor or multiple of a member, a multiple of
    a base generator, a member with another number of variables, a
    repeat in an order of several degrees, or a proper divisor placed
    after its multiple."""
    n = draw(st.integers(1, 3))
    base = MonomialIdeal(n, draw(st.lists(_exponent_monomials(n), max_size=3)))
    order = draw(st.lists(_exponent_monomials(n), max_size=4))
    flaw = draw(st.sampled_from(
        ["none", "repeat", "multiple", "divisor", "base", "nvars", "degree-repeat", "late-divisor"]
    ))
    if flaw == "repeat" and order:
        order.append(draw(st.sampled_from(order)))
    elif flaw == "multiple" and order:
        order.append(draw(st.sampled_from(order)) * draw(_exponent_monomials(n)))
    elif flaw == "divisor" and order:
        u = draw(st.sampled_from(order))
        order.append(Monomial(tuple(draw(st.integers(0, e)) for e in u.exps)))
    elif flaw == "base" and base.gens:
        order.append(draw(st.sampled_from(base.gens)) * draw(_exponent_monomials(n)))
    elif flaw == "nvars":
        order.append(draw(_exponent_monomials(n + 1)))
    order = draw(st.permutations(order))
    if flaw == "degree-repeat" and order:
        u = draw(st.sampled_from(order))
        other = draw(_exponent_monomials(n))
        if other.degree == u.degree:
            other = other * Monomial((1,) * n)
        order.append(other)  # the order now spans at least two degrees
        order.insert(draw(st.integers(0, len(order))), u)
    elif flaw == "late-divisor" and any(u.degree for u in order):
        k = draw(st.sampled_from([k for k, u in enumerate(order) if u.degree]))
        u = order[k]
        i = draw(st.sampled_from([i for i, e in enumerate(u.exps) if e]))
        w = [draw(st.integers(0, e)) for e in u.exps]
        w[i] = draw(st.integers(0, u.exps[i] - 1))  # a proper divisor of u
        order.insert(draw(st.integers(k + 1, len(order))), Monomial(tuple(w)))
    return base, order


@settings(max_examples=400, deadline=None)
@given(mixed_sequences())
def test_minimality_check_matches_pairwise_oracle(case):
    def rejects(f):
        try:
            f(base, order)
        except ValueError:
            return True
        return False

    base, order = case
    assert rejects(check_lq_order) == (not is_minimal_sequence(base.nvars, base.gens + tuple(order)))
    # the search takes a set of candidates, so repeats collapse first
    pool = tuple(dict.fromkeys(order))
    assert rejects(find_lq_order) == (not is_minimal_sequence(base.nvars, base.gens + pool))


def test_revlex_steps_only_through_check_lq_order(monkeypatch):
    calls = []
    inside = []
    check, step = quotients_module.check_lq_order, quotients_module._mask_step

    def counting_check(base, order):
        calls.append(tuple(order))
        inside.append(True)
        try:
            return check(base, order)
        finally:
            inside.pop()

    def guarded_step(*args):
        assert inside, "a step ran outside check_lq_order"
        return step(*args)

    monkeypatch.setattr(quotients_module, "check_lq_order", counting_check)
    monkeypatch.setattr(quotients_module, "_mask_step", guarded_step)
    ideals = [
        power(maximal_ideal(3), 2),
        I("x1*x2, x3*x4", 4),
        I("x1*x4, x2*x3, x2*x4, x3*x4", 4),
        I("x1^2*x2", 2),
    ]
    for ideal in ideals:
        for increasing in (False, True):
            calls.clear()
            cert = revlex_lq(ideal, increasing)
            assert calls == [tuple(revlex_order(ideal.gens, increasing))]
            assert cert is None or cert.appended == calls[0]
