"""Exact graded Betti numbers of monomial ideals on a Mayer-Vietoris tree.

The tree (E. Saenz-de-Cabezon, "Multigraded Betti numbers without
computing minimal free resolutions", AAECC 20, 2009) sorts G(I) by
degree, then decreasing reverse lex, and peels off the last generator
m: node (s, m), then I' = I without m at shift s and
G(I' ∩ (m)) = min {lcm(g, m)} at shift s + 1.  Its nodes (position,
multidegree) are a basis of a free resolution of I, and minimizing it
cancels only nodes of one multidegree in adjacent positions, so where
the nodes of b lie in no two adjacent positions, beta_{i,b} is the node
count at (i, b) over every field.  Elsewhere beta_{i,b} is the (i-1)-st
reduced homology rank of the upper Koszul complex

    K^b = { squarefree tau : x^b / x^tau lies in the ideal }

over the chosen prime field (Miller and Sturmfels, GTM 227, Thm 1.34).
A node counts against the budget when its multidegree is new, so never
past the lcm lattice's point count.  The linearity tests skip the
subtree under an on-strand node whose intersection is m times
variables, a Koszul complex on the strand, and read K^b once at each
off-strand multidegree.  The skip is decided on exponents before any
intersection is built: every g left must exceed m in some variable in
which another g exceeds m alone and by one.  A walk that skips never
also uses the adjacency rule: a skipped node can be the partner that
cancels an off-strand one.  On a polymatroidal ideal every intersection
is m times variables, so the linearity tests and ``betti_table`` build
no intersection and read no K^b at all.  The tree only sorts
generators, and no Betti path calls ``lcm_lattice``.

With D the generators dividing x^b, tau is a face of K^b exactly when
some g in D has g_i < b_i for every i in tau: one AND of generator
bitmasks per step of a depth-first walk.  The masks are read off G(I)
in one pass at each b, for any b with one exponent per variable.  A
full simplex has no homology and is skipped before the walk.  Any other
complex is read relative to the closed star of the vertex in most
facets: the star is a cone, so H~_j(K) = H_j(K, st v) over every field,
and only the faces outside it (the critical faces) are walked.  When
they lie in one dimension their count is the homology and no boundary
matrix is built.  Otherwise the boundary ranks between critical faces
are exact, by one integer elimination over the rationals or reduced mod
p at a prime, 2 included.

An ideal generated in one degree d with linear quotients along u_1, ...,
u_m, whose colon at step j is generated by r_j variables, has a linear
resolution with beta_{i,i+d} = sum_j C(r_j, i) over every field
(Herzog and Takayama, "Resolutions by mapping cones", 2002).  On the
tree's spine the on-strand skip is that step in decreasing reverse lex,
so ``betti_table`` reads the table of a single-degree ideal off the
skipping walk, C(r, k) at position s + k for each node skipped over r
variables, and falls back to the whole tree at the first off-strand
node.  The walk charges each spine node once, |G(I)| on an ideal with
linear quotients in that order.  Every Betti path and linearity test
runs on the tree alone and this module does not import ``quotients``,
so the lab's homological verdicts stay independent of linear quotients.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import and_, le

from .ideal import (
    MonomialIdeal,
    ResourceLimitExceeded,
    _require_proper,
    component,
    is_single_degree,
)

DEFAULT_NODE_BUDGET = 50_000


# ---------------------------------------------------------------------------
# exact rank computation
# ---------------------------------------------------------------------------

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
    """Rank over the rationals (``char`` 0) or GF(char), by fraction-free
    elimination: each row below the pivot becomes pivot * row - f * top,
    reduced mod a prime or divided by the gcd of its entries at 0."""
    m = [[x % char for x in r] if char else list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[c]
        for r in range(rank + 1, len(m)):
            f = m[r][c]
            if f:
                row = [pv * x - f * y for x, y in zip(m[r], top)]
                if char:
                    m[r] = [x % char for x in row]
                else:
                    g = math.gcd(*row) or 1
                    m[r] = [x // g for x in row]
        rank += 1
        if rank == len(m):
            break
    return rank


# ---------------------------------------------------------------------------
# simplicial complexes and reduced homology
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """A simplicial complex as vertex masks over its facets: bit j of
    ``masks[k]`` is set when facet j contains vertex k, and tau is a face
    when ``facets`` (a bit per facet) AND the masks over tau is nonzero.
    Without facets it is void; one empty facet gives the complex whose
    only face is the empty set, with reduced homology 1 in dimension -1.

    Homology is read relative to the closed star of one vertex v, the
    faces tau with tau + v a face.  The star is a cone, so it is
    contractible, and the long exact sequence of the pair gives
    H~_j(K) = H_j(K, st v) over every field.  The relative chains are
    spanned by the faces outside the star, those that lie in no facet
    through v: the critical faces.  Each lies in a facet avoiding v, so
    only faces of those facets are walked.  When the critical faces lie
    in one dimension no boundary map touches them, and their count is
    the homology."""

    __slots__ = ("facets", "masks")

    def __init__(self, facets: int, masks: list[int]):
        self.facets, self.masks = facets, masks

    @property
    def is_void(self) -> bool:
        return not self.facets

    def _walk(self, apex: int = 0) -> list[list[int]]:
        """The faces lying in no facet of ``apex`` (a facet bitmask), as
        vertex bitmasks, dimension k in layer k + 1.  The walk is depth
        first with one AND per step and descends only while a facet
        outside ``apex`` holds the face; without an apex it finds every
        face."""
        outside = self.facets & ~apex
        vertices = [(1 << k, m) for k, m in enumerate(self.masks) if m & outside]
        layers = [[] for _ in range(len(vertices) + 1)]
        stack = [(0, self.facets, 0, 0)] if outside else []
        while stack:
            face, common, start, size = stack.pop()
            if not common & apex:
                layers[size].append(face)
            for i in range(start, len(vertices)):
                bit, mask = vertices[i]
                below = common & mask
                if below & outside:
                    stack.append((face | bit, below, i + 1, size + 1))
        return layers

    def faces(self) -> dict[int, list[tuple[int, ...]]]:
        """Every face as a sorted tuple, by dimension (-1 for the empty face)."""
        vertices, layers = range(len(self.masks)), self._walk()
        return {
            j - 1: sorted(tuple(v for v in vertices if f >> v & 1) for f in fs)
            for j, fs in enumerate(layers) if fs
        }

    def reduced_homology_ranks(self, char: int = 0) -> dict[int, int]:
        """Ranks of the reduced homology groups, keyed by dimension from -1,
        as the homology relative to the star of the vertex in most facets.

        Only boundary maps between two nonempty layers of critical faces
        are ranked."""
        _validate_char(char)
        facets, masks = self.facets, self.masks
        # a facet holding every vertex makes a simplex, read off the masks alone
        if masks and reduce(and_, masks, facets):
            return {}
        apex = max((m & facets for m in masks), key=int.bit_count, default=0)
        if not apex:
            return {-1: 1} if facets else {}
        layers = self._walk(apex)
        filled = [j for j, fs in enumerate(layers) if fs]
        if len(filled) < 2:
            return {j - 1: len(layers[j]) for j in filled}
        ranks = [0, *(_boundary_rank(layers, j, char) for j in range(1, len(layers))), 0]
        return {j - 1: h for j, h in enumerate(_homology(layers, ranks)) if h}


def _homology(layers: list[list[int]], ranks: list[int]) -> list[int]:
    """Faces minus the boundary ranks out of and into each layer; raises if negative."""
    homology = [len(fs) - ranks[j] - ranks[j + 1] for j, fs in enumerate(layers)]
    if any(h < 0 for h in homology):
        raise AssertionError(f"negative homology rank {homology}: a boundary rank is wrong")
    return homology


def _boundary_rank(layers: list[list[int]], j: int, char: int) -> int:
    """Rank of the boundary map out of layer j: 0 with no matrix when layer
    j or j - 1 is empty, else ``matrix_rank`` on signed rows.  A face of
    layer j - 1 that was not walked has no row, but keeps its place in
    the sign count."""
    if not (layers[j] and layers[j - 1]):
        return 0
    row = {f: 1 << r for r, f in enumerate(layers[j - 1])}
    bits = [1 << k for k in range(max(layers[j]).bit_length())]
    cols = [[row.get(f ^ v, 0) for v in bits if f & v] for f in layers[j]]
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


def lcm_lattice(I: MonomialIdeal, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, ...]]:
    """All joins (componentwise max) of nonempty generator subsets, by
    (degree, b), in one pass over the generators: L <- L | {b v g : b in L} | {g}.
    No Betti path calls it; it is kept only for the tests and the
    benchmark's per-layer series.

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


def upper_koszul_complex(I: MonomialIdeal, b: tuple[int, ...]) -> SimplicialComplex:
    """The complex of squarefree tau inside supp(b) with x^b / x^tau in I,
    vertices relabelled 0..k-1 along supp(b).  A generator g divides
    x^b / x^tau exactly when g divides x^b and g_i < b_i for each i in
    tau, so one pass over G(I) gives D, the bitmask of the generators
    dividing x^b, and each vertex i the mask of those in D with
    g_i < b_i.  Raises ValueError when b does not have one exponent per
    variable."""
    if len(b) != I.nvars:
        raise ValueError(f"the multidegree {b} does not have {I.nvars} exponents")
    divisors = [(1 << k, g.exps) for k, g in enumerate(I.gens) if all(map(le, g.exps, b))]
    D = sum(bit for bit, _ in divisors)
    masks = [sum(bit for bit, g in divisors if g[i] < e) for i, e in enumerate(b) if e]
    return SimplicialComplex(D, masks)


def _tree_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Degree, then decreasing reverse lex: ascending in this key, the last
    generator is the least in revlex among those of the top degree."""
    return sum(exps), exps[::-1]


def _intersection(rest: list[tuple[int, ...]], m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """G((rest) ∩ (m)) = min {lcm(g, m)}, in ``_tree_key`` order."""
    kept: list[tuple[int, ...]] = []
    # a proper divisor has lower degree and comes first; equal ones are gone
    for q in sorted({tuple(map(max, g, m)) for g in rest}, key=_tree_key):
        if not any(all(map(le, k, q)) for k in kept):
            kept.append(q)
    return kept


def _meets_next_degree(rest: list[tuple[int, ...]], m: tuple[int, ...]) -> int:
    """|S| when G((rest) ∩ (m)) = m * (x_j : j in S), for a nonempty
    ``rest``, else 0, decided on exponents without building the
    intersection.

    The lcms of degree deg m + 1 are the m * x_j for j in S, the
    variables in which some g exceeds m alone and by exactly one.  The
    intersection is generated in that degree exactly when each lcm(g, m)
    is a multiple of some m * x_j, j in S, that is when each g has
    g_j > m_j for some j in S.  A g dividing m exceeds it nowhere and
    fails, as its lcm m has degree deg m."""
    linear, over = 0, []  # S as a bitmask; the variables where each other g exceeds m
    for g in rest:
        up = excess = 0
        for j, a in enumerate(g):
            x = a - m[j]
            if x > 0:
                up |= 1 << j
                excess += x
        if excess == 1:
            linear |= up
        else:
            over.append(up)
    return linear.bit_count() if all(up & linear for up in over) else 0


def _mayer_vietoris_tree(
    I: MonomialIdeal, budget: int, strand: int | None = None, top: int | None = None
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The nodes (position, multidegree, r) of the Mayer-Vietoris tree of
    I, depth first: J at shift s, G(J) in ``_tree_key`` order, gives the
    node (s, m) for its last generator m, then J' = J without m at s and
    J' ∩ (m) at s + 1.  Each new multidegree counts against ``budget``.
    With ``strand`` d, the subtree under an on-strand node (s, m),
    deg m = s + d, whose intersection is m * (x_j : j in S) is not
    walked, and that intersection is never built: r = |S| is read off
    the exponents (``_meets_next_degree``).  Every other node has r = 0.
    With ``top``, no intersection past that position is built.
    """
    made: set[tuple[int, ...]] = set()
    stack = [(0, sorted((g.exps for g in I.gens), key=_tree_key))]
    while stack:
        s, gens = stack.pop()
        m = gens.pop()
        if m not in made:
            made.add(m)
            if len(made) > budget:
                raise ResourceLimitExceeded(f"Mayer-Vietoris tree exceeds budget of {budget} multidegrees")
        below = bool(gens) and (top is None or s < top)
        on_strand = below and strand is not None and sum(m) == s + strand
        r = _meets_next_degree(gens, m) if on_strand else 0
        yield s, m, r
        if below and not r:
            stack.append((s + 1, _intersection(gens, m)))
        if gens:
            stack.append((s, gens))


def _tree_betti(I: MonomialIdeal, char: int, budget: int) -> BettiTable:
    """The Betti table of I from its Mayer-Vietoris tree: node counts at
    each b whose nodes lie in no two adjacent positions, K^b elsewhere."""
    nodes: dict[tuple[int, ...], Counter] = {}
    for s, b, _ in _mayer_vietoris_tree(I, budget):
        nodes.setdefault(b, Counter())[s] += 1
    entries: Counter = Counter()
    for b, at in nodes.items():
        if any(s + 1 in at for s in at):
            homology = upper_koszul_complex(I, b).reduced_homology_ranks(char)
            at = {dim + 1: h for dim, h in homology.items()}
        for i, count in at.items():
            entries[i, sum(b)] += count
    return BettiTable(dict(entries))


def betti_table(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_NODE_BUDGET
) -> BettiTable:
    """The exact Betti table of I over a field of the given characteristic.

    A single-degree I is first walked with its on-strand Koszul subtrees
    skipped.  A node (s, m) with r > 0 and the subtree skipped under it
    are the Koszul complex on r variables shifted by m, so together they
    add C(r, k) at position s + k.  While every node is on the strand no
    node can cancel another, so a walk that stays there gives the table
    over every field.  At the first off-strand node the walk stops, and
    the whole tree decides, as it does for every mixed-degree ideal."""
    _require_proper(I, "Betti numbers")
    _validate_char(char)
    if is_single_degree(I):
        d, entries = I.gens[0].degree, Counter()
        for s, b, r in _mayer_vietoris_tree(I, budget, strand=d):
            if sum(b) != s + d:
                break
            for k in range(r + 1):
                entries[s + k, s + k + d] += math.comb(r, k)
        else:
            return BettiTable(dict(entries))
    return _tree_betti(I, char, budget)


def _linear_strand(I: MonomialIdeal, char: int, budget: int, top: int | None = None) -> bool:
    """beta_{i,j} = 0 for j != i + d at every position i (up to ``top``
    only, when given) of the single-degree I, d its degree.  Walks the
    tree without the Koszul subtrees on the strand, each recognized on
    exponents with no intersection built, and computes the homology of
    K^b once at each multidegree b of an off-strand node, stopping at the
    first off the strand."""
    d, checked = I.gens[0].degree, set()
    for s, b, _ in _mayer_vietoris_tree(I, budget, strand=d, top=top):
        if sum(b) != s + d and b not in checked:
            checked.add(b)
            homology = upper_koszul_complex(I, b).reduced_homology_ranks(char)
            if any(sum(b) != dim + 1 + d for dim in homology if top is None or dim < top):
                return False
    return True


def has_linear_resolution(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """Single degree d and beta_{i,j} = 0 whenever j != i + d."""
    _require_proper(I, "Betti numbers")
    _validate_char(char)
    return is_single_degree(I) and _linear_strand(I, char, budget)


def has_linear_relations(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """beta_{1,j} = 0 for j != d + 1, on the tree walked to position 1."""
    _require_proper(I, "Betti numbers")
    _validate_char(char)
    if not is_single_degree(I):
        raise ValueError("linear relations are defined for equigenerated ideals")
    return _linear_strand(I, char, budget, top=1)


def is_componentwise_linear(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """Every graded component has a linear resolution.

    Only the generator degrees are tested: at any other degree j,
    I_<j> = I_<j-1> * m, the truncation one degree up of an ideal that
    already has a linear resolution, which keeps it linear.
    """
    _require_proper(I, "Betti numbers")
    return all(has_linear_resolution(component(I, j), char, budget) for j in I.degrees())
