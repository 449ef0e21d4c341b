"""Independent oracles used to cross-check the library.

These deliberately avoid the code paths they test: Betti numbers come
from Taylor-complex strand homology over generator subsets, ranked by
elimination over fractions or with inverses mod p (the library
uses upper Koszul complexes over variables, ranked relative to a vertex
star by fraction-free elimination), upper Koszul complexes come
from membership tests over every subset of the support (the library
reads their facets from the generators), colon ideals are checked by raw
membership, minimality of a generator sequence by pairwise divisibility
of exponent tuples (the library reads it off its step masks),
linear-quotient searches are re-done by permutation
enumeration on top of the primitive colon, and the exchange predicates
are the plain pair loops that test every move by divisibility (the
library looks moves up among the generators).
"""

from __future__ import annotations

import fractions
import functools
import itertools

from polymat.ideal import (
    Monomial,
    MonomialIdeal,
    colon,
    is_single_degree,
    localize,
    monomials_of_degree,
)
from polymat.polymatroid import VERDICT_VIOLATED, ExchangeWitness
from polymat.resolution import has_linear_resolution


def monomials_up_to(nvars: int, maxdeg: int):
    for d in range(maxdeg + 1):
        yield from monomials_of_degree(nvars, d)


def lcm_divisors(I: MonomialIdeal) -> list[Monomial]:
    """Every divisor of the lcm of the generators, in (degree, lex) order,
    from the full grid of exponent vectors."""
    top = [max(col) for col in zip(*(g.exps for g in I.gens))]
    grid = itertools.product(*(range(e + 1) for e in top))
    return [Monomial(e) for e in sorted(grid, key=lambda t: (sum(t), t))]


def colon_membership_ok(I: MonomialIdeal, u: Monomial, maxdeg: int = 5) -> bool:
    """w in (I : u) iff w*u in I, for all monomials w up to maxdeg."""
    J = colon(I, u)
    return all(
        J.contains(w) == I.contains(w * u) for w in monomials_up_to(I.nvars, maxdeg)
    )


def intersection_membership_ok(I, J, K, maxdeg: int = 4) -> bool:
    """K agrees with membership in both I and J up to maxdeg."""
    return all(
        K.contains(w) == (I.contains(w) and J.contains(w))
        for w in monomials_up_to(I.nvars, maxdeg)
    )


def component_oracle(I: MonomialIdeal, j: int) -> set[Monomial]:
    """All degree-j monomials belonging to I, by direct enumeration."""
    return {w for w in monomials_of_degree(I.nvars, j) if I.contains(w)}


def componentwise_over_full_range(I: MonomialIdeal, holds) -> tuple[bool, int | None]:
    """(``holds`` true of every component I_<j>, first failing j), testing
    every degree j from the lowest to the highest generator degree, each
    component built by direct enumeration."""
    for j in range(I.min_degree, I.max_degree + 1):
        if not holds(MonomialIdeal(I.nvars, component_oracle(I, j))):
            return False, j
    return True, None


def fraction_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination over fractions.
    Entries stay ints while the multipliers are integral, and a zero
    entry of the pivot row leaves the entry below it untouched."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = fractions.Fraction(m[r][c], top[c])
                if f.denominator == 1:
                    f = f.numerator
                m[r] = [a - f * b if b else a for a, b in zip(m[r], top)]
        rank += 1
    return rank


def fraction_rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) by ``fraction_rank``'s elimination with inverses mod p."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        inv = pow(top[c], -1, p)
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(a - f * b) % p if b else a for a, b in zip(m[r], top)]
        rank += 1
    return rank


def rank_over(rows, char: int) -> int:
    """Rank over the rationals (``char`` 0) or GF(char)."""
    return fraction_rank_mod_p(rows, char) if char else fraction_rank(rows)


def taylor_betti(I: MonomialIdeal, char: int = 0) -> dict[tuple[int, int], int]:
    """Betti numbers of I from Taylor-complex strand homology.

    The Taylor complex on the generator subsets resolves S/I; tensoring
    with the residue field splits it into strands indexed by the subset
    lcm, and the homology of the strand at multidegree b in subset-size
    k gives beta_{k-1, deg b} of the ideal.
    """
    gens = I.gens
    ngens = len(gens)
    strands: dict[tuple[int, ...], dict[int, list[tuple[int, ...]]]] = {}
    lcm_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for mask in range(1, 1 << ngens):
        members = tuple(i for i in range(ngens) if mask >> i & 1)
        exps = tuple(
            max(g.exps[pos] for k, g in enumerate(gens) if mask >> k & 1)
            for pos in range(I.nvars)
        )
        lcm_of[members] = exps
        strands.setdefault(exps, {}).setdefault(len(members), []).append(members)

    entries: dict[tuple[int, int], int] = {}
    for b, by_size in strands.items():
        for subs in by_size.values():
            subs.sort()
        ranks: dict[int, int] = {}
        for k in sorted(by_size):
            rows = by_size.get(k - 1, [])
            cols = by_size[k]
            if not rows:
                ranks[k] = 0
                continue
            index = {s: r for r, s in enumerate(rows)}
            mat = [[0] * len(cols) for _ in rows]
            for c, sigma in enumerate(cols):
                for t in range(len(sigma)):
                    sub = sigma[:t] + sigma[t + 1:]
                    if sub in index:
                        mat[index[sub]][c] = -1 if t % 2 else 1
            ranks[k] = rank_over(mat, char)
        for k, cols in by_size.items():
            h = len(cols) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            assert h >= 0
            if h:
                key = (k - 1, sum(b))
                entries[key] = entries.get(key, 0) + h
    return entries


def upper_koszul_faces(I: MonomialIdeal, b: tuple[int, ...]) -> set[frozenset[int]]:
    """Every face of K^b by brute force: tau ranges over all subsets of
    supp(b), each tested by membership of x^(b - tau) in I.  Vertices are
    relabelled 0..k-1 along the support of b, as in the library."""
    supp = [i for i, e in enumerate(b) if e > 0]
    faces = set()
    for mask in range(1 << len(supp)):
        exps = list(b)
        for k, pos in enumerate(supp):
            if mask >> k & 1:
                exps[pos] -= 1
        if I.contains(Monomial(exps)):
            faces.add(frozenset(k for k in range(len(supp)) if mask >> k & 1))
    return faces


def lq_order_ok_primitive(base: MonomialIdeal, order) -> bool:
    """Step check built directly on the primitive colon operation."""
    current = MonomialIdeal(base.nvars, base.gens)
    from polymat.ideal import ideal_sum

    for v in order:
        step = colon(current, v)
        if not step.is_zero and any(g.degree != 1 for g in step.gens):
            return False
        current = ideal_sum(current, MonomialIdeal(base.nvars, [v]))
    return True


def is_minimal_sequence(nvars: int, seq) -> bool:
    """Every member has ``nvars`` variables and none divides another,
    by pairwise comparison of exponent tuples (repeats divide)."""
    exps = [g.exps for g in seq]
    if any(len(e) != nvars for e in exps):
        return False
    return not any(
        j != k and all(a <= b for a, b in zip(exps[j], exps[k]))
        for j in range(len(exps))
        for k in range(len(exps))
    )


def lq_exists_bruteforce(base: MonomialIdeal, gens) -> bool:
    """Permutation-exhaustive linear-quotients existence (<= 7 generators)."""
    gens = list(gens)
    assert len(gens) <= 7
    return any(
        lq_order_ok_primitive(base, perm) for perm in itertools.permutations(gens)
    )


def _move_in(I: MonomialIdeal, u: Monomial, i0: int, j0: int) -> bool:
    """x_{j0+1} * (u / x_{i0+1}) lies in I, by divisibility."""
    e = list(u.exps)
    e[i0] -= 1
    e[j0] += 1
    return I.contains(Monomial(e))


def _some_move_in(I: MonomialIdeal, u: Monomial, v: Monomial, i0: int) -> bool:
    return any(
        u.exps[j0] < v.exps[j0] and _move_in(I, u, i0, j0) for j0 in range(I.nvars)
    )


def is_polymatroidal_loop(I: MonomialIdeal):
    """Single degree plus the exchange property, one divisibility scan per move."""
    if not is_single_degree(I):
        return False, None
    for u in I.gens:
        for v in I.gens:
            if u is v:
                continue
            for i0 in range(I.nvars):
                if u.exps[i0] > v.exps[i0] and not _some_move_in(I, u, v, i0):
                    return False, ExchangeWitness(u, v, i0 + 1, VERDICT_VIOLATED)
    return True, None


def has_strong_exchange_loop(I: MonomialIdeal):
    """Every admissible (i, j) moves into I, one divisibility scan per move."""
    if not is_single_degree(I):
        return False, None
    for u in I.gens:
        for v in I.gens:
            if u is v:
                continue
            for i0 in range(I.nvars):
                if u.exps[i0] <= v.exps[i0]:
                    continue
                for j0 in range(I.nvars):
                    if u.exps[j0] < v.exps[j0] and not _move_in(I, u, i0, j0):
                        return False, ExchangeWitness(
                            u, v, i0 + 1, VERDICT_VIOLATED, j0 + 1
                        )
    return True, None


def has_nonpure_exchange_loop(I: MonomialIdeal):
    """Exchange across degrees, the higher-degree generator losing x_i."""
    for small in I.gens:
        for big in I.gens:
            if small is big or small.degree > big.degree:
                continue
            for i0 in range(I.nvars):
                if big.exps[i0] > small.exps[i0] and not _some_move_in(I, big, small, i0):
                    return False, ExchangeWitness(big, small, i0 + 1, VERDICT_VIOLATED)
    return True, None


@functools.lru_cache(maxsize=None)
def _linear(J: MonomialIdeal, char: int) -> bool:
    return has_linear_resolution(J, char)


def localization_profile_by_walk(I: MonomialIdeal, char: int = 0, holds=None):
    """(``holds`` true of every non-unit localization, first failing set
    as a list) by the flat walk over every proper substitution set C in
    (size, lex) order, each localized from I in one step.  ``holds``
    defaults to having a linear resolution over the characteristic."""
    if holds is None:
        holds = lambda J: _linear(J, char)
    for size in range(I.nvars):
        for C in itertools.combinations(range(1, I.nvars + 1), size):
            loc = localize(I, C)
            if not loc.is_unit and not holds(loc):
                return False, list(C)
    return True, None
