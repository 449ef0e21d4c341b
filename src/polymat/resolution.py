"""Exact graded Betti numbers of monomial ideals via simplicial homology.

For each multidegree b in the lcm lattice of the generators, the rank of
the (i-1)-st reduced homology of the upper Koszul complex

    K^b = { squarefree tau : x^b / x^tau lies in the ideal }

over the chosen prime field contributes to beta_{i, deg b}.  K^b is read
straight from the minimal generators: each generator g dividing x^b
gives the facet {i : g_i < b_i}.  A K^b whose maximal faces share a
vertex is a cone, has no reduced homology and is skipped; any other is
expanded once from its maximal faces.  Boundary ranks are exact:
fraction-free integer elimination in characteristic 0, modular
elimination at a prime.  ``has_linear_resolution`` and
``has_linear_relations`` stop at the first multidegree off their strand.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# simplicial complexes and reduced homology
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """An abstract simplicial complex, stored by its maximal faces.

    A complex with no faces at all is void; the complex whose only face
    is the empty set is allowed and has reduced homology of rank 1 in
    dimension -1.
    """

    __slots__ = ("maximal_faces",)

    def __init__(self, faces: "list[frozenset[int]] | set[frozenset[int]]"):
        faces = {frozenset(f) for f in faces}
        self.maximal_faces = [f for f in faces if not any(f < g for g in faces)]

    @property
    def is_void(self) -> bool:
        return not self.maximal_faces

    @property
    def is_cone(self) -> bool:
        """Some vertex lies in every maximal face, so the complex is a
        cone over it and has no reduced homology."""
        if not self.maximal_faces:
            return False
        return bool(frozenset.intersection(*self.maximal_faces))

    def faces(self) -> dict[int, list[tuple[int, ...]]]:
        """Every face as a sorted tuple, grouped by dimension and sorted;
        the empty face has dimension -1."""
        by_dim: dict[int, set[tuple[int, ...]]] = {}
        for f in self.maximal_faces:
            vertices = sorted(f)
            for k in range(len(vertices) + 1):
                by_dim.setdefault(k - 1, set()).update(itertools.combinations(vertices, k))
        return {k: sorted(fs) for k, fs in by_dim.items()}

    def reduced_homology_ranks(self, char: int = 0) -> dict[int, int]:
        """Ranks of the reduced homology groups, keyed by dimension.

        Dimensions run from -1 (the empty face) upward; the void complex
        returns an empty mapping.  The rank in dimension k is
        c_k - r_k - r_{k+1} (faces minus the ranks of the boundary maps
        out of and into dimension k).  The image of d_{k+1} lies in the
        kernel of d_k, so a negative value means a wrong rank and raises.
        """
        _validate_char(char)
        if self.is_void:
            return {}
        by_dim = self.faces()
        maxdim = max(by_dim)
        ranks = {k: matrix_rank(_boundary_matrix(by_dim, k), char) for k in range(maxdim + 1)}
        homology = {
            k: len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(-1, maxdim + 1)
        }
        if any(h < 0 for h in homology.values()):
            raise AssertionError(f"negative homology rank {homology}: a boundary rank is wrong")
        return {k: h for k, h in homology.items() if h}


def _boundary_matrix(by_dim: dict[int, list[tuple[int, ...]]], k: int) -> list[list[int]]:
    """The boundary map from dimension-k faces to dimension-(k-1) faces."""
    rows_faces = by_dim.get(k - 1, [])
    cols_faces = by_dim.get(k, [])
    index = {f: r for r, f in enumerate(rows_faces)}
    matrix = [[0] * len(cols_faces) for _ in rows_faces]
    for c, face in enumerate(cols_faces):
        for t in range(len(face)):
            sub = face[:t] + face[t + 1:]
            matrix[index[sub]][c] = -1 if t % 2 else 1
    return matrix


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
        return [
            {"i": i, "j": j, "rank": r}
            for (i, j), r in sorted(self.entries.items())
        ]

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


def upper_koszul_complex(I: MonomialIdeal, b: tuple[int, ...]) -> SimplicialComplex:
    """The complex of squarefree tau inside supp(b) with x^b / x^tau in I.

    Read from G(I): a generator g divides x^b / x^tau exactly when g
    divides x^b and tau avoids every i with g_i = b_i, so the generators
    dividing x^b give the facets {i : g_i < b_i}.  Vertices are
    relabelled 0..k-1 along the support of b; only the face
    combinatorics matter for homology.
    """
    supp = [i for i, e in enumerate(b) if e > 0]
    facets = []
    for g in I.gens:
        exps = g.exps
        if all(x <= y for x, y in zip(exps, b)):
            facets.append(frozenset(k for k, i in enumerate(supp) if exps[i] < b[i]))
    return SimplicialComplex(facets)


def _lattice_homology(
    I: MonomialIdeal, char: int, budget: int
) -> Iterator[tuple[int, dict[int, int]]]:
    """(deg b, reduced homology ranks of K^b) over the lcm lattice, lazily,
    skipping the cones, which have no homology."""
    _validate_char(char)
    for b in lcm_lattice(I, budget):
        complex_b = upper_koszul_complex(I, b)
        if not complex_b.is_cone:
            yield sum(b), complex_b.reduced_homology_ranks(char)


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
    return all(
        j == dim + 1 + d
        for j, homology in _lattice_homology(I, char, budget)
        for dim in homology
    )


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
    for j in I.degrees():
        if not has_linear_resolution(component(I, j), char, budget):
            return False
    return True
