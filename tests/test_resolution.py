"""Betti tables via upper Koszul complexes, cross-checked against the
independent Taylor-complex oracle, plus the linearity predicates."""

import itertools
import re
from collections import Counter
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polymat.ideal import (
    MonomialIdeal,
    Monomial,
    ResourceLimitExceeded,
    UnitIdealError,
    ZeroIdealError,
    capped_exponents,
    colons,
    is_single_degree,
    maximal_ideal,
    monomials_of_degree,
    parse_ideal,
    power,
)
from polymat import ideal as ideal_module, polymatroid as polymatroid_module, quotients, resolution
from polymat.lab import IdealSpace, space_ideals
from polymat.polymatroid import is_polymatroidal
from polymat.resolution import (
    SimplicialComplex,
    betti_table,
    has_linear_relations,
    has_linear_resolution,
    is_componentwise_linear,
    lcm_lattice,
    _is_prime,
    matrix_rank,
    upper_koszul_complex,
)

from oracles import (
    fraction_rank,
    fraction_rank_mod_p,
    is_polymatroidal_loop,
    rank_over,
    taylor_betti,
    upper_koszul_faces,
)


def I(text, n):
    return parse_ideal(text, n)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def product_matrix(rng, rows, cols, k, bound):
    """A * B for random integer A (rows x k) and B (k x cols): rank at most k."""
    a = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(rows)]
    b = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


PRIMES = (3, 1009, (1 << 61) - 1)


class TestRank:
    def test_small_known(self):
        assert matrix_rank([[1, 2], [2, 4]], 0) == 1
        assert matrix_rank([[1, 0], [0, 1]], 0) == 2
        assert matrix_rank([[0, 0], [0, 0]], 0) == 0
        assert matrix_rank([], 0) == 0
        assert matrix_rank([[]], 3) == 0

    def test_random_against_fraction_elimination(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            assert matrix_rank(mat, 0) == fraction_rank(mat)

    def test_mod_p_differs_when_it_should(self):
        mat = [[2, 0], [0, 1]]
        assert matrix_rank(mat, 2) == 1
        assert matrix_rank(mat, 0) == 2
        assert matrix_rank([[3, 1], [0, 1]], 3) == 1

    def test_mod_p_random_consistency(self):
        # over a big prime, small integer matrices have their rational rank
        rng = random.Random(11)
        for _ in range(40):
            mat = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)]
            assert matrix_rank(mat, 1009) == matrix_rank(mat, 0)

    def test_dense_large_entries(self):
        rng = random.Random(13)
        for _ in range(30):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            mat = [[rng.randint(-10**6, 10**6) for _ in range(cols)] for _ in range(rows)]
            assert matrix_rank(mat, 0) == fraction_rank(mat)
            for p in (2, *PRIMES):
                assert matrix_rank(mat, p) == fraction_rank_mod_p(mat, p), p

    def test_products_have_rank_at_most_inner_dimension(self):
        rng = random.Random(17)
        for _ in range(40):
            rows, cols, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 5)
            mat = product_matrix(rng, rows, cols, k, rng.choice((3, 10**6)))
            expected = fraction_rank(mat)
            assert matrix_rank(mat, 0) == expected <= k
            for p in (2, *PRIMES):
                assert matrix_rank(mat, p) == fraction_rank_mod_p(mat, p) <= expected, p

    def test_rank_drops_at_a_dividing_prime(self):
        # det [[1, 2], [3, 1009 + 6]] = 1009: rank 1 mod 1009 and 2 elsewhere
        mat = [[1, 2], [3, 1015]]
        assert [matrix_rank(mat, p) for p in (0, *PRIMES)] == [2, 2, 1, 2]
        # and det [[1, 1], [1, 3]] = 2: rank 1 over GF(2) only
        mat = [[1, 1], [1, 3]]
        assert [matrix_rank(mat, p) for p in (0, 2, *PRIMES)] == [2, 1, 2, 2, 2]


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

# the 6-vertex real projective plane: triangles of its triangulation
RP2_TRIANGLES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def complex_of(facets):
    """The complex generated by ``facets`` (sets of vertices 0, 1, ...), as
    the vertex masks over them that ``SimplicialComplex`` holds."""
    facets = list(facets)
    nverts = max((max(f) + 1 for f in facets if f), default=0)
    masks = [sum(1 << j for j, f in enumerate(facets) if v in f) for v in range(nverts)]
    return SimplicialComplex((1 << len(facets)) - 1, masks)


class TestSimplicialComplex:
    def test_void_complex(self):
        cx = complex_of([])
        assert cx.is_void
        assert cx.reduced_homology_ranks() == {}

    def test_empty_face_only(self):
        cx = complex_of([frozenset()])
        assert cx.reduced_homology_ranks() == {-1: 1}

    def test_two_points(self):
        cx = complex_of([frozenset({0}), frozenset({1})])
        assert cx.reduced_homology_ranks() == {0: 1}

    def test_closure_from_maximal(self):
        cx = complex_of([frozenset({0, 1, 2})])
        assert sum(len(fs) for fs in cx.faces().values()) == 8
        assert cx.reduced_homology_ranks() == {}

    def test_hollow_triangle_is_circle(self):
        cx = complex_of([frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})])
        assert cx.reduced_homology_ranks() == {1: 1}

    def test_cone_has_no_homology(self):
        # maximal faces {0,1} and {0,2} share vertex 0, a cone that is no
        # simplex; the extra facet {2} is not maximal
        cx = complex_of([frozenset({0, 1}), frozenset({0, 2}), frozenset({2})])
        assert not cx.is_void
        for char in (0, 2, 3):
            assert cx.reduced_homology_ranks(char) == {}

    def test_projective_plane_char_dependence(self):
        cx = complex_of(RP2_TRIANGLES)
        assert cx.reduced_homology_ranks(0) == {}
        assert cx.reduced_homology_ranks(2) == {1: 1, 2: 1}


def full_homology(cx, char):
    """Reduced homology ranks from every face of ``cx`` and the oracle's
    ranks of the full boundary maps, the empty face included."""
    faces = cx.faces()
    row = {d: {f: r for r, f in enumerate(fs)} for d, fs in faces.items()}
    ranks = {}
    for d, fs in faces.items():
        if d - 1 in row:
            mat = [[0] * len(fs) for _ in row[d - 1]]
            for c, f in enumerate(fs):
                for t in range(len(f)):
                    mat[row[d - 1][f[:t] + f[t + 1:]]][c] = (-1) ** t
            ranks[d] = rank_over(mat, char)
    homology = {d: len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d, fs in faces.items()}
    return {d: h for d, h in homology.items() if h}


@st.composite
def complexes(draw):
    """The complex of up to 8 random facets over at most 7 vertices, some
    of which may lie in no facet: void without facets, {empty face} when
    every facet is empty."""
    nverts = draw(st.integers(0, 7))
    facet = st.frozensets(st.integers(0, nverts - 1)) if nverts else st.just(frozenset())
    facets = draw(st.lists(facet, max_size=8))
    masks = [sum(1 << j for j, f in enumerate(facets) if v in f) for v in range(nverts)]
    return SimplicialComplex((1 << len(facets)) - 1, masks)


@settings(max_examples=300, deadline=None)
@given(complexes())
@example(complex_of([]))
@example(complex_of([frozenset()]))
@example(complex_of(RP2_TRIANGLES))
def test_star_relative_homology_matches_full_boundary_ranks(cx):
    for char in (0, 2, 3):
        assert cx.reduced_homology_ranks(char) == full_homology(cx, char), (cx.facets, cx.masks, char)


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
            for j, count in Counter(g.degree for g in ideal.gens).items():
                assert t.rank(0, j) == count
            assert sum(r for (i, j), r in t.entries.items() if i == 0) == len(ideal.gens)

    def test_wrong_boundary_rank_raises(self, monkeypatch):
        # a rank one too high makes some c_k - r_k - r_{k+1} negative; the
        # alternating sums of faces and homology would still agree.  Every
        # rank the path computes is off by one, in every characteristic.
        # The 5-cycle is not linear, so its strand walk falls back to the
        # whole tree and its ranks
        pentagon = I("x1*x2, x2*x3, x3*x4, x4*x5, x5*x1", 5)
        assert not has_linear_resolution(pentagon)
        exact = resolution.matrix_rank
        calls = Counter()

        def wrong_exact(rows, char):
            calls[char] += 1
            return exact(rows, char) + 1

        monkeypatch.setattr(resolution, "matrix_rank", wrong_exact)
        for char in (0, 2, 3):
            calls.clear()
            with pytest.raises(AssertionError):
                betti_table(pentagon, char)
            # the raise must come from a patched rank at this characteristic
            assert calls[char] > 0, char

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


def faces_of(cx):
    return {frozenset(f) for fs in cx.faces().values() for f in fs}


class TestUpperKoszulFromGenerators:
    def test_matches_membership_oracle_on_exhaustive_space(self):
        points = 0
        for ideal in exhaustive_space_ideals(3, 3, 4):
            for b in lcm_lattice(ideal):
                cx = upper_koszul_complex(ideal, b)
                assert faces_of(cx) == upper_koszul_faces(ideal, b), (str(ideal), b)
                points += 1
        assert points == 10377

    def test_early_exit_agrees_with_full_table(self):
        for ideal in exhaustive_space_ideals(3, 3, 4):
            d = ideal.gens[0].degree
            single = is_single_degree(ideal)
            for char in (0, 2):
                table = betti_table(ideal, char)
                expected = single and table.is_linear(d)
                assert has_linear_resolution(ideal, char) == expected, (str(ideal), char)
                if single:
                    relations = all(j == d + 1 for (i, j) in table.entries if i == 1)
                    assert has_linear_relations(ideal, char) == relations, (str(ideal), char)


@st.composite
def ideals_with_huge_exponents(draw):
    """A proper ideal in 1 to 3 variables whose exponents are small or near 10^6."""
    n = draw(st.integers(1, 3))
    exponent = st.one_of(st.integers(0, 2), st.integers(10**6, 10**6 + 2))
    exps = st.lists(exponent, min_size=n, max_size=n).filter(any)
    return MonomialIdeal(n, [Monomial(tuple(e)) for e in draw(st.lists(exps, min_size=1, max_size=5))])


@settings(max_examples=100, deadline=None)
@given(ideals_with_huge_exponents())
def test_upper_koszul_matches_membership_oracle_property(ideal):
    for b in lcm_lattice(ideal):
        assert faces_of(upper_koszul_complex(ideal, b)) == upper_koszul_faces(ideal, b), b


@settings(max_examples=100, deadline=None)
@given(ideals_with_huge_exponents(), st.data())
def test_upper_koszul_off_the_lattice_is_right(ideal, data):
    # any multidegree from 3 below to 6 above a generator exponent in each
    # coordinate, past the lcm's too: K^b is defined for every b
    near = [
        sorted({max(g.exps[i] + d, 0) for g in ideal.gens for d in range(-3, 7)})
        for i in range(ideal.nvars)
    ]
    b = tuple(data.draw(st.sampled_from(values)) for values in near)
    assert faces_of(upper_koszul_complex(ideal, b)) == upper_koszul_faces(ideal, b), b
    # one exponent too few or too many is refused, never truncated
    for wrong in (b[:-1], b + (data.draw(st.integers(0, 3)),)):
        with pytest.raises(ValueError, match=re.escape(str(wrong))):
            upper_koszul_complex(ideal, wrong)


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


def rp2_ideal():
    """The Stanley-Reisner ideal of RP^2 on 6 vertices: every edge is a
    face, so its minimal non-faces are the 10 other triangles."""
    faces = set(RP2_TRIANGLES)
    return MonomialIdeal(6, [
        Monomial(tuple(int(v in t) for v in range(6)))
        for t in itertools.combinations(range(6), 3) if t not in faces
    ])


class TestProjectivePlane:
    def test_betti_matches_taylor_oracle_in_three_characteristics(self):
        ideal = rp2_ideal()
        assert len(ideal.gens) == 10 and is_single_degree(ideal) and ideal.gens[0].degree == 3
        tables = {char: betti_table(ideal, char).entries for char in (0, 2, 3)}
        for char, entries in tables.items():
            assert entries == taylor_betti(ideal, char), char
        # Hochster: H~_1 and H~_2 of RP^2 over GF(2) give beta_{3,6} and beta_{2,6}
        extra = Counter(tables[2])
        extra.subtract(tables[0])
        assert +extra == {(2, 6): 1, (3, 6): 1}
        assert tables[3] == tables[0]

    def test_powers_of_m_rank_no_boundary_map(self, monkeypatch):
        calls = Counter()
        exact = resolution.matrix_rank
        monkeypatch.setattr(
            resolution, "matrix_rank", lambda rows, char: calls.update([char]) or exact(rows, char)
        )
        # m^3 is read off its strand walk, so its whole tree is called
        # directly: the tree is the mapping cone of its linear quotients
        # and reads no K^b.
        # The critical faces of each K^b over its lcm lattice lie in one
        # dimension, so no boundary map is ranked there either
        m3 = power(maximal_ideal(5), 3)
        table = resolution._tree_betti(m3, 0, 50_000)
        for b in lcm_lattice(m3):
            upper_koszul_complex(m3, b).reduced_homology_ranks(0)
        assert table.entries and not calls


class TestMaskIndex:
    """The exchange scan builds the generator masks of its ideal once per
    call; the upper Koszul complexes read G(I) directly and keep no state
    between ideals."""

    # three generators in four variables each: polymatroidal and linear,
    # linear only, one degree without a linear resolution, mixed degrees
    TEXTS = ("x1*x2, x2*x3, x1*x3", "x1*x2, x3*x4, x1*x3", "x1^2, x2^2, x3^2", "x1^2, x2*x3, x4^3")

    def test_interleaved_ideals_read_their_own_masks(self):
        # each ideal twice, as equal but distinct objects
        pool = [parse_ideal(text, 4) for text in self.TEXTS for _ in range(2)]
        tables = {J: taylor_betti(J) for J in pool}

        def linear(J):
            d = J.gens[0].degree
            return is_single_degree(J) and all(j == i + d for i, j in tables[J])

        for k in range(2 * len(pool)):
            J, K, L = (pool[(3 * k + r) % len(pool)] for r in range(3))
            assert is_polymatroidal(J) == is_polymatroidal_loop(J), str(J)
            assert has_linear_resolution(K) == linear(K), str(K)
            assert betti_table(L).entries == tables[L], str(L)
            assert is_polymatroidal(K) == is_polymatroidal_loop(K), str(K)
            assert betti_table(J).entries == tables[J], str(J)

    def test_only_the_exchange_scan_builds_masks(self, monkeypatch):
        built, koszul = [], []
        masks, upper = ideal_module._masks, resolution.upper_koszul_complex
        for module in (ideal_module, polymatroid_module, quotients):
            monkeypatch.setattr(module, "_masks", lambda seq: built.append(seq) or masks(seq))
        monkeypatch.setattr(
            resolution, "upper_koszul_complex", lambda J, b: koszul.append(b) or upper(J, b)
        )
        J = parse_ideal("x1*x2, x3*x4", 4)
        for calls in (1, 2):
            is_polymatroidal(J)
            assert len(built) == calls
        built.clear()
        # the tree of two disjoint edges reaches K^b at the off-strand
        # x1*x2*x3*x4; so does the table of a mixed-degree ideal, which
        # tries no linear-quotients certificate
        assert not has_linear_resolution(J)
        mixed = parse_ideal("x4^2, x2*x3*x4, x1*x2*x3", 4)
        assert betti_table(mixed).entries == taylor_betti(mixed)
        assert len(koszul) >= 2 and not built


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def query_base_ideals(monkeypatch):
    """The base ideal of each type of the benchmark's ``query`` workload."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return [
        MonomialIdeal(n, [Monomial(g) for g in gens])
        for n, gens in (workloads.query_variants(t)[0] for t in range(len(workloads.QUERY_TYPES)))
    ]


def strand_table(ideal, char=0, budget=50_000):
    """``betti_table(ideal, char, budget)`` and whether it was read off the
    strand walk alone, without falling back to the whole tree."""
    fallbacks = []
    tree = resolution._tree_betti
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(resolution, "_tree_betti", lambda *args: fallbacks.append(args) or tree(*args))
        table = betti_table(ideal, char, budget)
    return table, not fallbacks


class TestCertificateBetti:
    """The tables of ideals with a decreasing-revlex linear-quotients
    certificate (Herzog-Takayama) are read off the tree's skipping walk:
    against the certificate, the whole tree and the Taylor oracle."""

    def test_equals_tree_on_exhaustive_space(self):
        # the walk reads the strand exactly where revlex_lq certifies
        read = 0
        for ideal in exhaustive_space_ideals(3, 3, 4):
            for char in (0, 2, 3):
                table, on_strand = strand_table(ideal, char)
                certified = is_single_degree(ideal) and quotients.revlex_lq(ideal) is not None
                assert on_strand == certified, (str(ideal), char)
                assert table == resolution._tree_betti(ideal, char, 50_000), (str(ideal), char)
                read += on_strand and char == 0
        assert read == 152

    def test_equals_tree_on_query_ideals(self, monkeypatch):
        ideals = query_base_ideals(monkeypatch)
        assert len(ideals) == 16
        for ideal in ideals:
            for char in (0, 2, 3):
                table, on_strand = strand_table(ideal, char)
                assert on_strand, str(ideal)
                assert table == resolution._tree_betti(ideal, char, 50_000), (str(ideal), char)

    def test_budget_counts_generators(self):
        # the walk of an ideal with linear quotients visits only the spine
        m2 = power(maximal_ideal(4), 2)
        assert len(m2.gens) == 10 and len(lcm_lattice(m2)) == 76
        table, on_strand = strand_table(m2, budget=10)
        assert on_strand and table.entries == {(0, 2): 10, (1, 3): 20, (2, 4): 15, (3, 5): 4}
        with pytest.raises(ResourceLimitExceeded):
            betti_table(m2, budget=9)

    def test_mixed_degree_takes_the_whole_tree(self):
        ideal = I("x1, x2^2", 2)
        table, on_strand = strand_table(ideal)
        assert not on_strand and table.entries == taylor_betti(ideal)

    def test_char_still_validated(self):
        for text in ("x1, x2", "x1, x2^2"):
            with pytest.raises(ValueError):
                betti_table(I(text, 2), 4)


class TestMayerVietorisTree:
    """Betti tables and linearity verdicts on the Mayer-Vietoris tree
    against the Taylor oracle, and the tree's own shape."""

    @pytest.mark.parametrize("params", [(3, 3, 4), (4, 3, 3)])
    def test_tables_equal_taylor_on_exhaustive_space(self, params):
        for ideal in exhaustive_space_ideals(*params):
            for char in (0, 2):
                expected = taylor_betti(ideal, char)
                assert resolution._tree_betti(ideal, char, 50_000).entries == expected, (str(ideal), char)
                if is_single_degree(ideal):
                    d = ideal.gens[0].degree
                    linear = all(j == i + d for i, j in expected)
                    relations = all(j == d + 1 for i, j in expected if i == 1)
                    assert has_linear_resolution(ideal, char) == linear, (str(ideal), char)
                    assert has_linear_relations(ideal, char) == relations, (str(ideal), char)

    def test_two_generator_family_in_both_orientations(self):
        t0 = time.perf_counter()
        for n in range(2, 41):
            rest = "*".join(f"x{i}" for i in range(2, n + 1))
            last = "*".join(f"x{i}" for i in range(1, n))
            for text in (f"x1, {rest}", f"x{n}, {last}"):
                ideal = I(text, n)
                table = {(0, 1): 1, (0, n - 1): 1, (1, n): 1} if n > 2 else {(0, 1): 2, (1, 2): 1}
                assert betti_table(ideal).entries == table, text
                assert has_linear_resolution(ideal) == (n == 2), text
                # three nodes: both generators and their lcm
                assert len(list(resolution._mayer_vietoris_tree(ideal, 3))) == 3
        assert time.perf_counter() - t0 < 1.0

    def test_nodes_count_against_the_budget(self):
        ideal = I("x1, x2*x3*x4", 4)
        assert resolution._tree_betti(ideal, 0, 3).entries == {(0, 1): 1, (0, 3): 1, (1, 4): 1}
        with pytest.raises(ResourceLimitExceeded, match="budget of 2 multidegrees"):
            resolution._tree_betti(ideal, 0, 2)
        # 11 nodes at 8 multidegrees: each multidegree is charged once
        ideal = I("x3^2, x2^2*x3, x1*x2*x3, x1*x2^2", 3)
        nodes = list(resolution._mayer_vietoris_tree(ideal, 8))
        assert len(nodes) == 11 and len({b for _, b, _ in nodes}) == 8
        with pytest.raises(ResourceLimitExceeded):
            list(resolution._mayer_vietoris_tree(ideal, 7))

    @pytest.mark.parametrize("params", [(3, 3, 4), (4, 3, 3)])
    def test_answers_wherever_the_lattice_budget_did(self, params):
        # node multidegrees are lattice points, so no budget that the lcm
        # lattice met is exceeded on the tree
        for ideal in exhaustive_space_ideals(*params):
            points = len(lcm_lattice(ideal))
            resolution._tree_betti(ideal, 0, points)
            if is_single_degree(ideal):
                has_linear_resolution(ideal, 0, points)
                has_linear_relations(ideal, 0, points)

    def test_polymatroidal_colons_need_no_homology(self, monkeypatch):
        # decreasing revlex makes every intersection m times variables, so
        # each subtree is a Koszul complex on the strand and no K^b is read
        ideals = [J for base in query_base_ideals(monkeypatch)[:6] for _, J in colons(base)]
        assert len(ideals) > 50

        def no_homology(*args):
            raise AssertionError("K^b built for a polymatroidal ideal")

        monkeypatch.setattr(resolution, "upper_koszul_complex", no_homology)
        for J in ideals:
            assert is_polymatroidal(J), str(J)
            assert has_linear_resolution(J) and has_linear_relations(J), str(J)

    def test_tree_only_sorts_generators(self, monkeypatch):
        # condition d stays independent of condition c and of the lattice;
        # the on-strand skip reads exponents, not the generator-mask index
        for name in ("_masks", "_mask_step", "revlex_lq", "quotients"):
            assert not hasattr(resolution, name), name

        def forbidden(*args, **kwargs):
            raise AssertionError("the tree called a linear-quotients, mask or lattice routine")

        for module, name in (
            (resolution, "lcm_lattice"),
            (quotients, "revlex_lq"), (quotients, "check_lq_order"), (quotients, "_mask_step"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        for text, n, linear in (
            ("x1*x2, x2*x3, x1*x3", 3, True), ("x1*x2, x3*x4", 4, False), ("x1^2, x2^2, x3^2", 3, False)
        ):
            ideal = I(text, n)
            assert resolution._tree_betti(ideal, 0, 50_000).entries == taylor_betti(ideal)
            assert betti_table(ideal).entries == taylor_betti(ideal)
            assert has_linear_resolution(ideal) == linear
            assert has_linear_relations(ideal) == linear


def reference_tree(ideal, budget, strand=None, top=None):
    """The tree walk that builds every intersection it may enter and then
    reads the on-strand skip off its last generator's degree; a skipped
    node reports the number of its intersection's generators."""
    made = set()
    stack = [(0, sorted((g.exps for g in ideal.gens), key=resolution._tree_key))]
    while stack:
        s, gens = stack.pop()
        m = gens.pop()
        if m not in made:
            made.add(m)
            if len(made) > budget:
                raise ResourceLimitExceeded(f"reference tree exceeds budget of {budget} multidegrees")
        r, meet = 0, None
        if gens and (top is None or s < top):
            meet = resolution._intersection(gens, m)
            deg = sum(m)
            if strand is not None and deg == s + strand and sum(meet[-1]) == deg + 1:
                r, meet = len(meet), None
        yield s, m, r
        if meet is not None:
            stack.append((s + 1, meet))
        if gens:
            stack.append((s, gens))


class TestOnStrandSkip:
    """The skip under an on-strand node, decided on exponents, against the
    degree of the intersection that the reference walk builds."""

    @pytest.mark.parametrize("params", [(3, 3, 4), (4, 3, 3)])
    def test_nodes_equal_the_reference_walk(self, params):
        pruned = 0
        for ideal in exhaustive_space_ideals(*params):
            d = ideal.gens[0].degree
            for top in (None, 1):
                expected = list(reference_tree(ideal, 50_000, strand=d, top=top))
                nodes = list(resolution._mayer_vietoris_tree(ideal, 50_000, strand=d, top=top))
                assert nodes == expected, (str(ideal), top)
                # the same multidegrees are charged, so the same budget is the first to fail
                budget = len({b for _, b, _ in expected})
                with pytest.raises(ResourceLimitExceeded):
                    list(resolution._mayer_vietoris_tree(ideal, budget - 1, strand=d, top=top))
                if top is None:
                    pruned += len(nodes) < len(list(reference_tree(ideal, 50_000)))
        assert pruned > 100


def check_skip_at_every_split(gens):
    """At each split (gens[:k], gens[k]) of a ``_tree_key``-sorted
    antichain and inside each intersection, the exponent test gives the
    number of the intersection's generators when its last one has degree
    deg m + 1, and 0 otherwise."""
    for k in range(1, len(gens)):
        rest, m = gens[:k], gens[k]
        meet = resolution._intersection(rest, m)
        expected = len(meet) if sum(meet[-1]) == sum(m) + 1 else 0
        assert resolution._meets_next_degree(rest, m) == expected, (rest, m, meet)
        check_skip_at_every_split(meet)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=8)
    )
)
@example([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
@example([(2, 0, 0), (0, 2, 0), (1, 1, 1)])
def test_skip_decided_on_exponents_matches_the_intersection(exps):
    ideal = MonomialIdeal(len(exps[0]), [Monomial(e) for e in exps])
    check_skip_at_every_split(sorted((g.exps for g in ideal.gens), key=resolution._tree_key))


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(monomials(n).filter(lambda m: 0 < m.degree), min_size=1, max_size=6)
    )
)
def test_lcm_lattice_is_every_subset_join(gens):
    ideal = MonomialIdeal(len(gens[0].exps), gens)
    joins = {
        tuple(max(column) for column in zip(*(g.exps for g in subset)))
        for k in range(1, len(ideal.gens) + 1)
        for subset in itertools.combinations(ideal.gens, k)
    }
    lattice = lcm_lattice(ideal)
    assert lattice == sorted(joins, key=lambda b: (sum(b), b))
    assert lcm_lattice(ideal, budget=len(lattice)) == lattice
    with pytest.raises(ResourceLimitExceeded):
        lcm_lattice(ideal, budget=len(lattice) - 1)


@st.composite
def single_degree_ideals(draw):
    """(ideal, whether it is polymatroidal by construction): a Veronese-type
    ideal, or a random set of monomials of one degree."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        caps = draw(st.lists(st.integers(1, d), min_size=n, max_size=n).filter(lambda c: sum(c) >= d))
        return MonomialIdeal(n, [Monomial(g) for g in capped_exponents(d, caps)]), True
    pool = list(monomials_of_degree(draw(st.integers(2, 4)), d))
    return MonomialIdeal(len(pool[0].exps), draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))), False


@settings(max_examples=40, deadline=None)
@given(single_degree_ideals(), st.sampled_from((0, 2, 3)))
def test_certificate_betti_matches_taylor_property(drawn, char):
    ideal, polymatroidal = drawn
    table, on_strand = strand_table(ideal, char)
    assert on_strand or not polymatroidal, str(ideal)
    assert table.entries == taylor_betti(ideal, char), (str(ideal), char)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(monomials(n).filter(lambda m: 0 < m.degree), min_size=1, max_size=6)
    ),
    st.sampled_from((0, 2)),
)
def test_tree_matches_taylor_property(gens, char):
    ideal = MonomialIdeal(len(gens[0].exps), gens)
    if ideal.is_unit:
        return
    expected = taylor_betti(ideal, char)
    assert resolution._tree_betti(ideal, char, 50_000).entries == expected, (str(ideal), char)
    d = ideal.gens[0].degree
    linear = is_single_degree(ideal) and all(j == i + d for i, j in expected)
    assert has_linear_resolution(ideal, char) == linear, (str(ideal), char)
