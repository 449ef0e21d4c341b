"""Betti tables via upper Koszul complexes, cross-checked against the
independent Taylor-complex oracle, plus the linearity predicates."""

import fractions
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from polymat.ideal import (
    MonomialIdeal,
    Monomial,
    ResourceLimitExceeded,
    UnitIdealError,
    ZeroIdealError,
    is_single_degree,
    maximal_ideal,
    parse_ideal,
    power,
)
from polymat.lab import IdealSpace, space_ideals
from polymat.resolution import (
    SimplicialComplex,
    betti_table,
    has_linear_relations,
    has_linear_resolution,
    is_componentwise_linear,
    lcm_lattice,
    _is_prime,
    rank_exact,
    rank_mod_p,
    upper_koszul_complex,
)

from oracles import taylor_betti, upper_koszul_faces


def I(text, n):
    return parse_ideal(text, n)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def fraction_rank(rows):
    m = [[fractions.Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestRank:
    def test_small_known(self):
        assert rank_exact([[1, 2], [2, 4]]) == 1
        assert rank_exact([[1, 0], [0, 1]]) == 2
        assert rank_exact([[0, 0], [0, 0]]) == 0
        assert rank_exact([]) == 0

    def test_random_against_fraction_elimination(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            assert rank_exact(mat) == fraction_rank(mat)

    def test_mod_p_differs_when_it_should(self):
        mat = [[2, 0], [0, 1]]
        assert rank_mod_p(mat, 2) == 1
        assert rank_exact(mat) == 2

    def test_mod_p_random_consistency(self):
        # over a big prime, small integer matrices have their rational rank
        rng = random.Random(11)
        for _ in range(40):
            mat = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)]
            assert rank_mod_p(mat, 1009) == rank_exact(mat)


class TestCharacteristic:
    def test_primality_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        for p in range(-2, 5000):
            assert _is_prime(p) == trial(p), p

    def test_large_prime_accepted_quickly(self):
        ideal = I("x1, x2", 2)
        t0 = time.perf_counter()
        table = betti_table(ideal, (1 << 61) - 1)
        assert time.perf_counter() - t0 < 1.0
        assert table.entries == {(0, 1): 2, (1, 2): 1}
        assert has_linear_resolution(ideal, (1 << 64) - 59)  # largest prime below 2^64

    @pytest.mark.parametrize(
        "char",
        [
            1,
            561,  # Carmichael number
            3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
            (1 << 61) + 1,
            1 << 64,
            (1 << 89) - 1,  # prime, but at or above 2^64
        ],
    )
    def test_rejected(self, char):
        with pytest.raises(ValueError):
            betti_table(I("x1, x2", 2), char)


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class TestSimplicialComplex:
    def test_void_complex(self):
        cx = SimplicialComplex(3, [])
        assert cx.is_void
        assert cx.reduced_homology_ranks() == {}

    def test_empty_face_only(self):
        cx = SimplicialComplex(3, [frozenset()])
        assert cx.reduced_homology_ranks() == {-1: 1}

    def test_two_points(self):
        cx = SimplicialComplex(2, [frozenset({0}), frozenset({1})])
        assert cx.reduced_homology_ranks() == {0: 1}

    def test_closure_from_maximal(self):
        cx = SimplicialComplex(3, [frozenset({0, 1, 2})])
        assert len(cx.all_faces()) == 8
        assert cx.reduced_homology_ranks() == {}

    def test_hollow_triangle_is_circle(self):
        cx = SimplicialComplex(3, [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})])
        assert cx.reduced_homology_ranks() == {1: 1}

    def test_cone_has_no_homology(self):
        # maximal faces {0,1} and {0,2} share vertex 0; the extra facet
        # {2} is not maximal and would hide the cone if it were counted
        cx = SimplicialComplex(3, [frozenset({0, 1}), frozenset({0, 2}), frozenset({2})])
        assert not cx.is_void
        assert cx.is_cone
        for char in (0, 2):
            assert cx.reduced_homology_ranks(char) == {}

    def test_not_cones(self):
        assert not SimplicialComplex(3, []).is_cone
        assert not SimplicialComplex(3, [frozenset()]).is_cone
        hollow = SimplicialComplex(3, [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})])
        assert not hollow.is_cone

    def test_projective_plane_char_dependence(self):
        faces = [
            frozenset(f)
            for f in [
                (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
            ]
        ]
        cx = SimplicialComplex(6, faces)
        assert cx.reduced_homology_ranks(0) == {}
        assert cx.reduced_homology_ranks(2) == {1: 1, 2: 1}


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

class TestBettiTable:
    def test_koszul(self):
        t = betti_table(I("x1, x2, x3", 3))
        assert t.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
        assert t.regularity == 1

    def test_principal(self):
        t = betti_table(I("x1^2*x2^3", 2))
        assert t.entries == {(0, 5): 1}

    def test_four_generator_nonlinear_table(self):
        t = betti_table(I("x1^2, x1*x2, x3^2, x2*x3", 3))
        assert t.rank(1, 4) > 0
        assert t.entries == taylor_betti(I("x1^2, x1*x2, x3^2, x2*x3", 3))

    def test_beta_zero_counts_generators(self):
        for text, n in [
            ("x1*x2, x3^3, x2*x3", 3),
            ("x1^2, x2^2*x3, x1*x2*x3, x1*x2^2, x1*x3^3, x2*x3^3", 3),
        ]:
            ideal = I(text, n)
            t = betti_table(ideal)
            for j, count in t.gendegrees.items():
                assert t.rank(0, j) == count
            assert sum(r for (i, j), r in t.entries.items() if i == 0) == len(ideal.gens)

    def test_zero_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            betti_table(I("", 2))
        with pytest.raises(UnitIdealError):
            betti_table(I("1", 2))

    def test_budget_guard(self):
        ideal = power(maximal_ideal(3), 2)
        with pytest.raises(ResourceLimitExceeded):
            betti_table(ideal, budget=3)

    def test_char_is_explicit_and_can_matter(self):
        # distinct prime fields may disagree; the API never guesses
        ideal = I("x1, x2, x3", 3)
        assert betti_table(ideal, 0).entries == betti_table(ideal, 2).entries

    def test_json_sorted(self):
        t = betti_table(I("x1, x2", 2))
        triples = t.to_json()
        assert triples == sorted(triples, key=lambda e: (e["i"], e["j"]))

    def test_lcm_lattice_contents(self):
        ideal = I("x1*x2, x2*x3", 3)
        lattice = lcm_lattice(ideal)
        assert set(lattice) == {(1, 1, 0), (0, 1, 1), (1, 1, 1)}

    def test_upper_koszul_at_generator(self):
        ideal = I("x1*x2, x2*x3", 3)
        cx = upper_koszul_complex(ideal, (1, 1, 0))
        assert cx.reduced_homology_ranks() == {-1: 1}


def exhaustive_space_ideals(nvars, maxdeg, maxgens):
    return list(space_ideals(IdealSpace(nvars=nvars, maxdeg=maxdeg, maxgens=maxgens)))


class TestUpperKoszulFromGenerators:
    def test_matches_membership_oracle_on_exhaustive_space(self):
        points = 0
        for ideal in exhaustive_space_ideals(3, 3, 4):
            for b in lcm_lattice(ideal):
                cx = upper_koszul_complex(ideal, b)
                assert cx.all_faces() == upper_koszul_faces(ideal, b), (str(ideal), b)
                points += 1
        assert points == 10377

    def test_early_exit_agrees_with_full_table(self):
        for ideal in exhaustive_space_ideals(3, 3, 4):
            d = ideal.gens[0].degree
            for char in (0, 2):
                expected = is_single_degree(ideal) and betti_table(ideal, char).is_linear(d)
                assert has_linear_resolution(ideal, char) == expected, (str(ideal), char)


class TestTaylorOracleAgreement:
    def test_fixed_ideals_both_chars(self):
        cases = [
            ("x1, x2, x3", 3),
            ("x1^2, x1*x2, x3^2, x2*x3", 3),
            ("x1*x3^2, x1^2*x3, x1*x2*x3, x2^2*x3", 3),
            ("x1*x2, x1*x3^2, x2*x3^2", 3),
            ("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6),
            ("x1^3, x1^2*x2, x1^2*x3, x2*x3*x4, x1*x2*x3, x1*x3*x4, x1^2*x4", 4),
        ]
        for text, n in cases:
            ideal = I(text, n)
            for char in (0, 2):
                assert betti_table(ideal, char).entries == taylor_betti(ideal, char), (
                    text,
                    char,
                )

    def test_seeded_random_ideals(self):
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(2, 4)
            gens = []
            for _ in range(rng.randint(1, 6)):
                exps = [0] * n
                for _ in range(rng.randint(1, 3)):
                    exps[rng.randrange(n)] += 1
                gens.append(Monomial(exps))
            ideal = MonomialIdeal(n, gens)
            if ideal.is_zero or ideal.is_unit:
                continue
            for char in (0, 2):
                assert betti_table(ideal, char).entries == taylor_betti(ideal, char)


class TestLinearity:
    def test_triangle_linear(self):
        assert has_linear_resolution(I("x1*x2, x1*x3, x2*x3", 3))

    def test_four_generator_ideal_not_linear(self):
        assert not has_linear_resolution(I("x1^2, x1*x2, x3^2, x2*x3", 3))

    def test_powers_of_m(self):
        for n in (2, 3):
            for k in (1, 2, 3, 4):
                assert has_linear_resolution(power(maximal_ideal(n), k))

    def test_mixed_degrees_not_linear(self):
        assert not has_linear_resolution(I("x1, x2^2", 2))

    def test_linear_relations_without_resolution(self):
        ideal = I(
            "x1^3, x1^2*x2, x1^2*x3, x2^3, x1*x2^2, x2^2*x3, x3^3, x1*x3^2, x2*x3^2", 3
        )
        assert has_linear_relations(ideal)
        assert not has_linear_resolution(ideal)

    def test_principal_has_linear_relations(self):
        assert has_linear_relations(I("x1^2*x2", 2))

    def test_linear_relations_requires_single_degree(self):
        with pytest.raises(ValueError):
            has_linear_relations(I("x1, x2^2", 2))

    def test_componentwise_linear_cases(self):
        assert is_componentwise_linear(I("x1*x2, x1*x3^2, x2*x3^2", 3))
        assert not is_componentwise_linear(I("x1^2, x1*x2, x3^2, x2*x3", 3))
        assert is_componentwise_linear(power(maximal_ideal(3), 2))

    def test_finite_colength_characterization(self):
        # finite colength + linear resolution forces a power of m
        m2 = power(maximal_ideal(2), 2)
        assert has_linear_resolution(m2)
        ci = I("x1^2, x2^2", 2)
        assert not has_linear_resolution(ci)


# ---------------------------------------------------------------------------
# property-based agreement with the oracle
# ---------------------------------------------------------------------------

def monomials(nvars, maxexp=2):
    return st.builds(
        Monomial,
        st.lists(st.integers(0, maxexp), min_size=nvars, max_size=nvars).map(tuple),
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        monomials(3).filter(lambda m: 0 < m.degree), min_size=1, max_size=5
    )
)
def test_betti_matches_taylor_property(gens):
    ideal = MonomialIdeal(3, gens)
    if ideal.is_zero or ideal.is_unit:
        return
    assert betti_table(ideal).entries == taylor_betti(ideal)
