"""Exact graded Betti numbers of monomial ideals via simplicial homology.

For each multidegree b in the lcm lattice of the generators, the rank of
the (i-1)-st reduced homology of the upper Koszul complex

    K^b = { squarefree tau : x^b / x^tau lies in the ideal }

over the chosen prime field contributes to beta_{i, deg b} (Miller and
Sturmfels, GTM 227, Thm 1.34).  With D the generators dividing x^b, tau
is a face exactly when some g in D has g_i < b_i for every i in tau: one
AND of generator bitmasks per step of a depth-first walk.  Cones have no
homology.  Boundary ranks are exact: GF(2) ranks by an XOR basis, lifted
to the rationals by fraction-free elimination only where the GF(2)
homology leaves room, and modular elimination at an odd prime.
``has_linear_resolution`` and ``has_linear_relations`` stop at the first
multidegree off their strand.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .ideal import (
    MonomialIdeal,
    ResourceLimitExceeded,
    _require_proper,
    component,
    is_single_degree,
)

DEFAULT_LATTICE_BUDGET = 50_000


# ---------------------------------------------------------------------------
# exact rank computation
# ---------------------------------------------------------------------------

def rank_exact(rows: list[list[int]]) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for r in range(rank + 1, nrows):
            f = m[r][c]
            row = m[r]
            top = m[rank]
            for cc in range(c + 1, ncols):
                num = row[cc] * pv - f * top[cc]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free elimination divided inexactly")
                row[cc] = q
            row[c] = 0
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over the prime field GF(p)."""
    if not rows or not rows[0]:
        return 0
    m = [[x % p for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        top = [(x * inv) % p for x in m[rank]]
        m[rank] = top
        for r in range(rank + 1, nrows):
            f = m[r][c]
            if f:
                row = m[r]
                for cc in range(c, ncols):
                    row[cc] = (row[cc] - f * top[cc]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


# Witness bases that make Miller-Rabin exact for every n below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_CHAR = 1 << 64


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= p < 2^64."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _validate_char(char: int) -> None:
    if char >= _MAX_CHAR:
        raise ValueError(f"characteristic must be below 2^64, got {char}")
    if char != 0 and not _is_prime(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def matrix_rank(rows: list[list[int]], char: int) -> int:
    return rank_exact(rows) if char == 0 else rank_mod_p(rows, char)


def rank_gf2(columns: list[int]) -> int:
    """Rank over GF(2) of vectors held as int bitsets, by an XOR basis."""
    basis: dict[int, int] = {}
    for v in columns:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


# ---------------------------------------------------------------------------
# simplicial complexes and reduced homology
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """A simplicial complex as vertex masks over its facets: bit j of
    ``masks[k]`` is set when facet j contains vertex k, and tau is a face
    when ``facets`` (a bit per facet) AND the masks over tau is nonzero.
    Without facets it is void; one empty facet gives the complex whose
    only face is the empty set, with reduced homology 1 in dimension -1."""

    __slots__ = ("facets", "masks")

    def __init__(self, facets: int, masks: list[int]):
        self.facets, self.masks = facets, masks

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_cone(self) -> bool:
        """Some vertex lies in every maximal face: no reduced homology."""
        return self._walk()[1]

    def _walk(self) -> tuple[list[list[int]], bool]:
        """The faces as vertex bitmasks, dimension k in layer k + 1, walked
        depth first with one AND per step, and whether some vertex extends
        every leaf of the walk, that is, lies in every maximal face."""
        masks, layers, apex = self.masks, [], list(range(len(self.masks)))
        stack = [(0, self.facets, 0, 0)] if self.facets else []
        while stack:
            face, common, start, size = stack.pop()
            if size == len(layers):
                layers.append([])
            layers[size].append(face)
            leaf = True
            for k in range(start, len(masks)):
                if common & masks[k]:
                    leaf = False
                    stack.append((face | 1 << k, common & masks[k], k + 1, size + 1))
            if leaf and apex:
                apex = [v for v in apex if common & masks[v]]
        return layers, bool(layers and apex)

    def faces(self) -> dict[int, list[tuple[int, ...]]]:
        """Every face as a sorted tuple, by dimension (-1 for the empty face)."""
        vertices, layers = range(len(self.masks)), self._walk()[0]
        return {j - 1: sorted(tuple(v for v in vertices if f >> v & 1) for f in fs) for j, fs in enumerate(layers)}

    def reduced_homology_ranks(self, char: int = 0) -> dict[int, int]:
        """Ranks of the reduced homology groups, keyed by dimension from -1.

        In characteristic 0 each boundary rank is first taken over GF(2).
        It can only grow over the rationals and no homology is negative, so
        it is redone exactly only where the GF(2) homology is nonzero in
        both dimensions it touches."""
        _validate_char(char)
        # a facet holding every vertex makes a simplex, a cone read off the masks alone
        simplex = self.masks and reduce(and_, self.masks, self.facets)
        layers, cone = ([], True) if simplex else self._walk()
        if cone:
            return {}
        # onto the empty face the boundary has rank 1 in every field, 0 without vertices
        above = (_boundary_rank(layers, j, char or 2) for j in range(2, len(layers)))
        ranks = [0, min(len(layers) - 1, 1), *above, 0]
        homology = _homology(layers, ranks)
        lifted = [j for j in range(1, len(layers)) if homology[j] and homology[j - 1]] if char == 0 else []
        for j in lifted:
            ranks[j] = _boundary_rank(layers, j, 0)
        return {j - 1: h for j, h in enumerate(_homology(layers, ranks) if lifted else homology) if h}


def _homology(layers: list[list[int]], ranks: list[int]) -> list[int]:
    """Faces minus the boundary ranks out of and into each layer; raises if negative."""
    homology = [len(fs) - ranks[j] - ranks[j + 1] for j, fs in enumerate(layers)]
    if any(h < 0 for h in homology):
        raise AssertionError(f"negative homology rank {homology}: a boundary rank is wrong")
    return homology


def _boundary_rank(layers: list[list[int]], j: int, char: int) -> int:
    """Rank of the boundary map out of layer j: by ``rank_gf2`` at 2, else on signed rows."""
    row = {f: 1 << r for r, f in enumerate(layers[j - 1])}
    cols = [[row[f ^ v] for v in sorted(layers[1]) if f & v] for f in layers[j]]
    if char == 2:
        return rank_gf2([sum(col) for col in cols])
    rows = [[(-1) ** col.index(bit) if bit in col else 0 for col in cols] for bit in row.values()]
    return matrix_rank(rows, char)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} of an ideal (beta_0 counts generators)."""

    entries: dict[tuple[int, int], int]

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def regularity(self) -> int:
        return max(j - i for (i, j) in self.entries)

    def is_linear(self, d: int) -> bool:
        return all(j == i + d for (i, j) in self.entries)

    def to_json(self) -> list[dict]:
        return [{"i": i, "j": j, "rank": r} for (i, j), r in sorted(self.entries.items())]

    def __str__(self) -> str:
        lines = [f"beta_{{{i},{j}}} = {r}" for (i, j), r in sorted(self.entries.items())]
        return "\n".join(lines)


def lcm_lattice(I: MonomialIdeal, budget: int = DEFAULT_LATTICE_BUDGET) -> list[tuple[int, ...]]:
    """All joins (componentwise max) of nonempty generator subsets, by
    (degree, b), in one pass over the generators: L <- L | {b v g : b in L} | {g}.

    Raises ResourceLimitExceeded once there are more than ``budget`` points,
    checked after each generator, so the set never exceeds 2 * budget + 1.
    """
    lattice: set[tuple[int, ...]] = set()
    for g in I.gens:
        lattice |= {tuple(map(max, b, g.exps)) for b in lattice}
        lattice.add(g.exps)
        if len(lattice) > budget:
            raise ResourceLimitExceeded(f"lcm lattice exceeds budget of {budget} multidegrees")
    return sorted(lattice, key=lambda b: (sum(b), b))


def _generator_masks(I: MonomialIdeal) -> list[tuple[list[int], list[int]]]:
    """Per variable, the distinct exponents among G(I), ascending, and the
    masks of the generators with exponent at most each, after a leading 0."""
    columns = []
    for column in zip(*(g.exps for g in I.gens)):
        bits: dict[int, int] = {}
        for j, e in enumerate(column):
            bits[e] = bits.get(e, 0) | 1 << j
        values, upto = sorted(bits), [0]
        for v in values:
            upto.append(upto[-1] | bits[v])
        columns.append((values, upto))
    return columns


def upper_koszul_complex(
    I: MonomialIdeal, b: tuple[int, ...], columns: list | None = None
) -> SimplicialComplex:
    """The complex of squarefree tau inside supp(b) with x^b / x^tau in I,
    vertices relabelled 0..k-1 along supp(b).  A generator g divides
    x^b / x^tau exactly when g divides x^b and g_i < b_i for each i in
    tau; ``columns`` is ``_generator_masks(I)``, when already built."""
    columns = columns or _generator_masks(I)
    D = reduce(and_, (upto[bisect.bisect_right(values, e)] for (values, upto), e in zip(columns, b)), -1)
    masks = [D & upto[bisect.bisect_left(values, e)] for (values, upto), e in zip(columns, b) if e]
    return SimplicialComplex(D, masks)


def _lattice_homology(
    I: MonomialIdeal, char: int, budget: int
) -> Iterator[tuple[int, dict[int, int]]]:
    """(deg b, reduced homology ranks of K^b) over the lcm lattice, lazily."""
    _validate_char(char)
    lattice, columns = lcm_lattice(I, budget), _generator_masks(I)
    for b in lattice:
        yield sum(b), upper_koszul_complex(I, b, columns).reduced_homology_ranks(char)


def betti_table(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_LATTICE_BUDGET
) -> BettiTable:
    """The exact Betti table of I over a field of the given characteristic."""
    _require_proper(I, "Betti numbers")
    entries: dict[tuple[int, int], int] = {}
    for j, homology in _lattice_homology(I, char, budget):
        for dim, h in homology.items():
            key = (dim + 1, j)
            entries[key] = entries.get(key, 0) + h
    return BettiTable(entries)


def has_linear_resolution(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """Single degree d and beta_{i,j} = 0 whenever j != i + d.

    Stops at the first multidegree with homology off that strand.
    """
    _require_proper(I, "Betti numbers")
    if not is_single_degree(I):
        return False
    d = I.gens[0].degree
    lattice = _lattice_homology(I, char, budget)
    return all(j == dim + 1 + d for j, homology in lattice for dim in homology)


def has_linear_relations(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """beta_{1,j} = 0 for j != d + 1; stops at the first beta_1 off that strand."""
    _require_proper(I, "Betti numbers")
    if not is_single_degree(I):
        raise ValueError("linear relations are defined for equigenerated ideals")
    d = I.gens[0].degree
    return all(
        j == d + 1 for j, homology in _lattice_homology(I, char, budget) if 0 in homology
    )


def is_componentwise_linear(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """Every graded component has a linear resolution.

    Only the generator degrees are tested: at any other degree j,
    I_<j> = I_<j-1> * m, the truncation one degree up of an ideal that
    already has a linear resolution, which keeps it linear.
    """
    _require_proper(I, "Betti numbers")
    return all(has_linear_resolution(component(I, j), char, budget) for j in I.degrees())
