"""Independent oracles used to cross-check the library.

These deliberately avoid the code paths they test: Betti numbers come
from Taylor-complex strand homology over generator subsets (the library
uses upper Koszul complexes over variables), upper Koszul complexes come
from membership tests over every subset of the support (the library
reads their facets from the generators), colon ideals are checked by raw
membership, and linear-quotient searches are re-done by permutation
enumeration on top of the primitive colon.
"""

from __future__ import annotations

import itertools

from polymat.ideal import Monomial, MonomialIdeal, colon, monomials_of_degree
from polymat.resolution import matrix_rank


def monomials_up_to(nvars: int, maxdeg: int):
    for d in range(maxdeg + 1):
        yield from monomials_of_degree(nvars, d)


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
            ranks[k] = matrix_rank(mat, char)
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


def lq_exists_bruteforce(base: MonomialIdeal, gens) -> bool:
    """Permutation-exhaustive linear-quotients existence (<= 7 generators)."""
    gens = list(gens)
    assert len(gens) <= 7
    return any(
        lq_order_ok_primitive(base, perm) for perm in itertools.permutations(gens)
    )
