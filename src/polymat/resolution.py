"""Exact graded Betti numbers of monomial ideals via simplicial homology.

For each multidegree b in the lcm lattice of the generators, the rank of
the (i-1)-st reduced homology of the upper Koszul complex

    K^b = { squarefree tau : x^b / x^tau lies in the ideal }

over the chosen prime field contributes to beta_{i, deg b}.  K^b is read
straight from the minimal generators: each generator g dividing x^b
gives the facet {i : g_i < b_i}.  A K^b whose maximal faces share a
vertex is a cone, has no reduced homology and is skipped.  Ranks come
from boundary-matrix ranks computed exactly: fraction-free integer
elimination in characteristic 0, modular elimination at a prime.
``has_linear_resolution`` stops at the first multidegree with homology
off the linear strand.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from .ideal import (
    MonomialIdeal,
    ResourceLimitExceeded,
    UnitIdealError,
    ZeroIdealError,
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
    """An abstract simplicial complex on vertices 0..nverts-1.

    Stored by its maximal faces; the full (subset-closed) face list is
    produced on demand.  A complex with no faces at all is void; the
    complex whose only face is the empty set is allowed and has reduced
    homology of rank 1 in dimension -1.
    """

    __slots__ = ("nverts", "maximal_faces", "_faces")

    def __init__(self, nverts: int, faces: "list[frozenset[int]] | set[frozenset[int]]"):
        self.nverts = nverts
        faces = {frozenset(f) for f in faces}
        maximal = [
            f for f in faces if not any(f < g for g in faces)
        ]
        self.maximal_faces = tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))
        self._faces = None

    def all_faces(self) -> set[frozenset[int]]:
        """Subset closure of the maximal faces (includes the empty face)."""
        if self._faces is None:
            closed: set[frozenset[int]] = set()
            for f in self.maximal_faces:
                if f in closed:
                    continue
                elems = sorted(f)
                # all subsets of f
                for mask in range(1 << len(elems)):
                    closed.add(frozenset(elems[k] for k in range(len(elems)) if mask >> k & 1))
            self._faces = closed
        return self._faces

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

    def _faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for f in self.all_faces():
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
        for fs in by_dim.values():
            fs.sort()
        return by_dim

    def boundary_matrix(self, k: int, by_dim=None) -> list[list[int]]:
        """The boundary map from dimension-k faces to dimension-(k-1) faces."""
        if by_dim is None:
            by_dim = self._faces_by_dim()
        rows_faces = by_dim.get(k - 1, [])
        cols_faces = by_dim.get(k, [])
        index = {f: r for r, f in enumerate(rows_faces)}
        matrix = [[0] * len(cols_faces) for _ in rows_faces]
        for c, face in enumerate(cols_faces):
            for t in range(len(face)):
                sub = face[:t] + face[t + 1:]
                matrix[index[sub]][c] = -1 if t % 2 else 1
        return matrix

    def reduced_homology_ranks(self, char: int = 0) -> dict[int, int]:
        """Ranks of the reduced homology groups, keyed by dimension.

        Dimensions run from -1 (the empty face) upward; the void complex
        returns an empty mapping.  An Euler-characteristic consistency
        check guards every computation.
        """
        _validate_char(char)
        if self.is_void:
            return {}
        by_dim = self._faces_by_dim()
        maxdim = max(by_dim)
        counts = {k: len(by_dim.get(k, ())) for k in range(-1, maxdim + 1)}
        ranks = {k: 0 for k in range(-1, maxdim + 2)}
        for k in range(0, maxdim + 1):
            ranks[k] = matrix_rank(self.boundary_matrix(k, by_dim), char)
        homology = {
            k: counts[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(-1, maxdim + 1)
        }
        euler_faces = sum((-1) ** k * c for k, c in counts.items())
        euler_hom = sum((-1) ** k * h for k, h in homology.items())
        if euler_faces != euler_hom:
            raise AssertionError("Euler characteristic mismatch in homology computation")
        return {k: h for k, h in homology.items() if h}


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} of an ideal (beta_0 counts generators)."""

    entries: dict[tuple[int, int], int]
    gendegrees: Counter = field(default_factory=Counter)

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def regularity(self) -> int:
        return max(j - i for (i, j) in self.entries)

    @property
    def max_index(self) -> int:
        return max(i for (i, _) in self.entries)

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
    """All joins (componentwise max) of nonempty generator subsets.

    Raises ResourceLimitExceeded when the closure grows past the budget,
    so a scan can never silently stall on a blown-up lattice.
    """
    gens = [g.exps for g in I.gens]
    lattice: set[tuple[int, ...]] = set(gens)
    frontier = list(lattice)
    while frontier:
        new: list[tuple[int, ...]] = []
        for b in frontier:
            for g in gens:
                j = tuple(max(x, y) for x, y in zip(b, g))
                if j not in lattice:
                    lattice.add(j)
                    new.append(j)
                    if len(lattice) > budget:
                        raise ResourceLimitExceeded(
                            f"lcm lattice exceeds budget of {budget} multidegrees"
                        )
        frontier = new
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
    return SimplicialComplex(len(supp), facets)


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
    _require_proper(I)
    entries: dict[tuple[int, int], int] = {}
    for j, homology in _lattice_homology(I, char, budget):
        for dim, h in homology.items():
            key = (dim + 1, j)
            entries[key] = entries.get(key, 0) + h
    return BettiTable(entries, Counter(g.degree for g in I.gens))


def has_linear_resolution(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """Single degree d and beta_{i,j} = 0 whenever j != i + d.

    Stops at the first multidegree with homology off that strand.
    """
    _require_proper(I)
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
    """First syzygies all linear: beta_{1,j} = 0 for j != d + 1."""
    _require_proper(I)
    if not is_single_degree(I):
        raise ValueError("linear relations are defined for equigenerated ideals")
    d = I.gens[0].degree
    table = betti_table(I, char, budget)
    return all(j == d + 1 for (i, j) in table.entries if i == 1)


def is_componentwise_linear(
    I: MonomialIdeal, char: int = 0, budget: int = DEFAULT_LATTICE_BUDGET
) -> bool:
    """Every component in the generator-degree range has a linear resolution."""
    _require_proper(I)
    for j in range(I.min_degree, I.max_degree + 1):
        if not has_linear_resolution(component(I, j), char, budget):
            return False
    return True


def _require_proper(I: MonomialIdeal) -> None:
    if I.is_zero:
        raise ZeroIdealError("Betti numbers undefined for the zero ideal")
    if I.is_unit:
        raise UnitIdealError("Betti numbers undefined for the unit ideal")
