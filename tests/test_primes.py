"""Irreducible decomposition, associated primes, and transversal ideals."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from polymat import ideal as ideal_module
from polymat import primes as primes_module
from polymat.ideal import (
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    ZeroIdealError,
    colon,
    ideal_intersection,
    maximal_ideal,
    parse_ideal,
    power,
    prime_ideal,
)
from polymat.primes import (
    IrreducibleComponent,
    associated_primes,
    irreducible_decomposition,
    transversal,
)

from oracles import lcm_divisors


def I(text, n):
    return parse_ideal(text, n)


def recombine(components, nvars):
    result = components[0].as_ideal(nvars)
    for c in components[1:]:
        result = ideal_intersection(result, c.as_ideal(nvars))
    return result


def ass_oracle(ideal):
    """All primes of the form I : w, over every divisor of lcm(G(I))."""
    out = set()
    for w in lcm_divisors(ideal):
        Q = colon(ideal, w)
        if not Q.is_zero and not Q.is_unit and all(g.degree == 1 for g in Q.gens):
            out.add(frozenset(g.exps.index(1) + 1 for g in Q.gens))
    return out


class TestIrreducibleDecomposition:
    def test_edge(self):
        comps = irreducible_decomposition(I("x1*x2", 2))
        assert {c.to_json()["1"] if "1" in c.to_json() else None for c in comps}
        assert [dict(c.powers) for c in comps] == [{1: 1}, {2: 1}]

    def test_embedded_example(self):
        comps = irreducible_decomposition(I("x1^2, x1*x2", 2))
        assert [dict(c.powers) for c in comps] == [{1: 1}, {1: 2, 2: 1}]

    def test_triangle(self):
        comps = irreducible_decomposition(I("x1*x2, x1*x3, x2*x3", 3))
        assert [dict(c.powers) for c in comps] == [
            {1: 1, 2: 1},
            {1: 1, 3: 1},
            {2: 1, 3: 1},
        ]

    def test_recombination_and_irredundancy(self):
        cases = [
            ("x1*x2", 2),
            ("x1^2, x1*x2", 2),
            ("x1*x2, x1*x3, x2*x3", 3),
            ("x1^2, x1*x2, x3^2, x2*x3", 3),
            ("x1^2*x2, x2*x3^3, x1*x3", 3),
            ("x1^2, x1*x2^2, x2^4", 2),
        ]
        for text, n in cases:
            ideal = I(text, n)
            comps = irreducible_decomposition(ideal)
            assert recombine(list(comps), n) == ideal, text
            for k in range(len(comps)):
                rest = list(comps[:k]) + list(comps[k + 1:])
                if rest:
                    assert recombine(rest, n) != ideal, (text, k)

    def test_rejects_zero_unit(self):
        with pytest.raises(ZeroIdealError):
            irreducible_decomposition(I("", 2))

    def test_component_pairs_are_budgeted(self):
        # a matching of e edges has 2^e components: its last step holds
        # 256 * 255 pairs for 8 edges, within the budget, and 512 * 511
        # for 9 edges, which are not
        def matching(e):
            return I(", ".join(f"x{2 * i + 1}*x{2 * i + 2}" for i in range(e)), 2 * e)

        assert len(irreducible_decomposition(matching(8))) == 256
        for decompose in (irreducible_decomposition, associated_primes):
            t0 = time.perf_counter()
            with pytest.raises(ResourceLimitExceeded, match="261632 > 200000 component pairs"):
                decompose(matching(9))
            assert time.perf_counter() - t0 < 2.0, decompose

    def test_step_pairs_are_budgeted(self, monkeypatch):
        # x1*x2 splits the zero ideal's one component in two: 2 * 1 pairs;
        # x1^2 and x2 each leave a single component
        monkeypatch.setattr(ideal_module, "DEFAULT_MONOMIAL_BUDGET", 1)
        with pytest.raises(ResourceLimitExceeded, match="2 > 1 component pairs"):
            irreducible_decomposition(I("x1*x2", 2))
        assert len(irreducible_decomposition(I("x1^2, x2", 2))) == 1

    def test_step_pairs_do_not_accrue(self):
        # the budget bounds each step, not a running total over the fold
        for n, d, count in ((5, 5, 70), (6, 4, 56)):
            t0 = time.perf_counter()
            assert len(irreducible_decomposition(power(maximal_ideal(n), d))) == count
            assert time.perf_counter() - t0 < 2.0, (n, d)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            IrreducibleComponent.of({})
        with pytest.raises(ValueError):
            IrreducibleComponent.of({1: 0})


class TestAssociatedPrimes:
    def test_edge(self):
        res = associated_primes(I("x1*x2", 2))
        assert set(res.ass) == {frozenset({1}), frozenset({2})}
        assert res.height == 1 and not res.has_embedded

    def test_embedded(self):
        res = associated_primes(I("x1^2, x1*x2", 2))
        assert set(res.ass) == {frozenset({1}), frozenset({1, 2})}
        assert res.has_embedded
        assert set(res.minimal) == {frozenset({1})}
        assert colon(I("x1^2, x1*x2", 2), res.witnesses[frozenset({1, 2})]) == prime_ideal(2, [1, 2])

    def test_triangle(self):
        res = associated_primes(I("x1*x2, x1*x3, x2*x3", 3))
        assert set(res.ass) == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }
        assert res.height == 2 and not res.has_embedded

    def test_witnesses_validate(self):
        for text, n in [("x1^2, x1*x2", 2), ("x1*x2, x2*x3, x3*x4", 4)]:
            ideal = I(text, n)
            res = associated_primes(ideal)
            for p, w in res.witnesses.items():
                assert colon(ideal, w) == prime_ideal(n, p)

    def test_stops_at_last_witness(self, monkeypatch):
        # no colon is built after the walk yields the last witness, and the
        # walk builds fewer colons than the lcm has divisors
        original = ideal_module.colon
        built = []
        monkeypatch.setattr(ideal_module, "colon", lambda J, u: built.append(u) or original(J, u))
        built_at_yield = {}
        walk = primes_module.colons

        def recorded(ideal):
            for u, J in walk(ideal):
                built_at_yield[u] = len(built)
                yield u, J

        monkeypatch.setattr(primes_module, "colons", recorded)
        for text, n in [
            ("x1^2, x1*x2", 2),
            ("x1*x2, x2*x3, x3*x4", 4),
            ("x1^2, x1*x2, x3^2, x2*x3", 3),
        ]:
            ideal = I(text, n)
            built.clear()
            built_at_yield.clear()
            res = associated_primes(ideal)
            last = max(res.witnesses.values())
            assert len(built) == built_at_yield[last], text
            assert len(built) < len(lcm_divisors(ideal)), text

    def test_against_colon_oracle(self):
        cases = [
            ("x1*x2", 2),
            ("x1^2, x1*x2", 2),
            ("x1^2, x1*x2, x3^2, x2*x3", 3),
            ("x1*x2, x1*x3, x2*x3", 3),
            ("x1^3, x1*x2^2", 2),
            ("x1*x2^2, x2*x3^2, x1^2*x3", 3),
        ]
        for text, n in cases:
            ideal = I(text, n)
            assert set(associated_primes(ideal).ass) == ass_oracle(ideal), text

    def test_minimal_primes_match_radical(self):
        for text, n in [
            ("x1^2, x1*x2", 2),
            ("x1^2*x2, x2*x3^3, x1*x3", 3),
            ("x1^2, x1*x2^2, x2^4", 2),
        ]:
            ideal = I(text, n)
            radical = MonomialIdeal(
                n, [Monomial(tuple(1 if e else 0 for e in g.exps)) for g in ideal.gens]
            )
            assert set(associated_primes(ideal).minimal) == set(
                associated_primes(radical).minimal
            )


class TestTransversal:
    def test_two_disjoint_primes(self):
        assert transversal(4, [[1, 2], [3, 4]], [1, 1]) == I(
            "x1*x3, x1*x4, x2*x3, x2*x4", 4
        )

    def test_prime_power(self):
        assert transversal(3, [[1, 2]], [2]) == power(prime_ideal(3, [1, 2]), 2)

    def test_overlapping(self):
        assert transversal(3, [[1, 2], [1, 3]], [1, 1]) == I(
            "x1^2, x1*x3, x1*x2, x2*x3", 3
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            transversal(2, [[1]], [0])
        with pytest.raises(ValueError):
            transversal(2, [[1], [2]], [1])


@st.composite
def small_ideals(draw):
    n = draw(st.integers(1, 6))
    exps = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    gens = draw(st.lists(exps.map(Monomial), min_size=1, max_size=8))
    return MonomialIdeal(n, gens)


@settings(max_examples=30, deadline=None)
@given(small_ideals())
def test_decomposition_recombines_property(ideal):
    # the irredundant decomposition is unique, so recombining to I with no
    # component to spare pins the answer
    if ideal.is_zero or ideal.is_unit:
        return
    comps = irreducible_decomposition(ideal)
    assert [c.powers for c in comps] == sorted(c.powers for c in comps)
    assert recombine(list(comps), ideal.nvars) == ideal
    # irredundant: the intersection of the others is strictly larger
    for k in range(len(comps)):
        rest = list(comps[:k]) + list(comps[k + 1:])
        if rest:
            assert recombine(rest, ideal.nvars) != ideal, (str(ideal), k)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.builds(
            Monomial,
            st.lists(st.integers(0, 2), min_size=2, max_size=2).map(tuple),
        ).filter(lambda m: m.degree > 0),
        min_size=1,
        max_size=3,
    )
)
def test_ass_matches_oracle_property(gens):
    ideal = MonomialIdeal(2, gens)
    if ideal.is_zero or ideal.is_unit:
        return
    assert set(associated_primes(ideal).ass) == ass_oracle(ideal)
