"""Exact arithmetic for monomials and monomial ideals.

A monomial is an exponent vector over a fixed number of variables; an
ideal is stored by its unique minimal generating set, kept in canonical
order (total degree, then lexicographic on exponent vectors), so that
structural equality coincides with equality of ideals.  All values are
immutable after construction and every operation is a pure function.

Variable indices in the public API are 1-based (x1..xn), matching the
text grammar ``x1*x3^2, x2^2``.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter, le
from typing import Iterable, Iterator, Sequence


class ResourceLimitExceeded(Exception):
    """A configured enumeration budget was hit; no answer was produced."""


# most monomials power and component may enumerate, counted before they start
DEFAULT_MONOMIAL_BUDGET = 200_000


def _check_enumeration(what: str, count: int, unit: str = "monomials") -> None:
    if count > DEFAULT_MONOMIAL_BUDGET:
        raise ResourceLimitExceeded(f"{what} would enumerate {count} > {DEFAULT_MONOMIAL_BUDGET} {unit}")


class ZeroIdealError(ValueError):
    """The operation is undefined for the zero ideal."""


class UnitIdealError(ValueError):
    """The operation is undefined for the unit ideal."""


class IdealSyntaxError(ValueError):
    """Malformed ideal text; ``position`` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Monomial:
    """A monomial x1^e1 * ... * xn^en, held as the tuple (e1, ..., en)."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps: Iterable[int]):
        exps = tuple(exps)
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
        self.exps = exps
        self.degree = sum(exps)

    @classmethod
    def _raw(cls, exps: tuple[int, ...], degree: int) -> "Monomial":
        """Trusted constructor: exps must be a tuple of non-negative ints
        summing to degree."""
        self = object.__new__(cls)
        self.exps = exps
        self.degree = degree
        return self

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def deg_var(self, i: int) -> int:
        """Exponent of x_i (1-based)."""
        return self.exps[i - 1]

    @property
    def support(self) -> frozenset[int]:
        """1-based indices of the variables that occur."""
        return frozenset(i + 1 for i, e in enumerate(self.exps) if e)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self.exps, other.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(a, b) for a, b in zip(self.exps, other.exps))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(min(a, b) for a, b in zip(self.exps, other.exps))

    def _key(self) -> tuple[int, tuple[int, ...]]:
        return (self.degree, self.exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __lt__(self, other: "Monomial") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Monomial") -> bool:
        return self._key() <= other._key()

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r}, nvars={self.nvars})"


def _variable_indices(C: Iterable[int], nvars: int) -> frozenset[int]:
    """The 1-based variable indices in C, each checked against 1..nvars."""
    members = frozenset(int(i) for i in C)
    bad = [i for i in members if not 1 <= i <= nvars]
    if bad:
        raise ValueError(f"variable indices {sorted(bad)} out of range 1..{nvars}")
    return members


def _minimal_sorted(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal elements, deduplicated, in canonical order."""
    distinct = sorted(set(monomials), key=Monomial._key)
    kept: list[Monomial] = []
    # a proper divisor of m has lower degree, so m is tested only against
    # the kept monomials of lower degree; they come first in this order
    lower: list[Monomial] = []
    degree = None
    for m in distinct:
        if m.degree != degree:
            degree = m.degree
            lower = kept[:]
        if not any(k.divides(m) for k in lower):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal, represented by its minimal generating set G(I).

    ``gens`` is an antichain under divisibility, sorted canonically; the
    zero ideal has no generators and the unit ideal has the single
    generator 1.
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens: Iterable[Monomial] = ()):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        gens = tuple(gens)
        for g in gens:
            if g.nvars != nvars:
                raise ValueError(f"generator {g!r} has {g.nvars} variables, expected {nvars}")
        self.nvars = nvars
        self.gens = _minimal_sorted(gens)

    @classmethod
    def _raw(cls, nvars: int, gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """Trusted constructor: gens must already be canonical and minimal."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.gens = gens
        return self

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].degree == 0

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        """Monomial membership: m lies in the ideal."""
        return any(g.divides(m) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True when other is a subideal of self."""
        return all(self.contains(g) for g in other.gens)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({g.degree for g in self.gens}))

    @property
    def min_degree(self) -> int | None:
        return self.gens[0].degree if self.gens else None

    @property
    def max_degree(self) -> int | None:
        return self.gens[-1].degree if self.gens else None

    def lcm_gens(self) -> Monomial | None:
        """Componentwise max of the generators; None for the zero ideal."""
        if not self.gens:
            return None
        exps = [0] * self.nvars
        for g in self.gens:
            for i, e in enumerate(g.exps):
                if e > exps[i]:
                    exps[i] = e
        return Monomial(exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.gens))

    def __str__(self) -> str:
        return ", ".join(str(g) for g in self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal({str(self)!r}, nvars={self.nvars})"


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def parse_generators(text: str, nvars: int) -> list[Monomial]:
    """Parse ideal text into monomials, preserving the written order.

    Grammar: ideal := gen (',' gen)* ; gen := '1' | term ('*' term)* ;
    term := 'x' INT ('^' INT)?.  Whitespace is insignificant; the empty
    string denotes no generators (the zero ideal).
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise IdealSyntaxError("expected an integer", start)
        return int(text[start:pos])

    def parse_gen() -> Monomial:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "1":
            pos += 1
            return Monomial((0,) * nvars)
        exps = [0] * nvars
        while True:
            skip_ws()
            if pos >= n or text[pos] != "x":
                raise IdealSyntaxError("expected a term 'x<index>'", pos)
            pos += 1
            at = pos
            idx = read_int()
            if not 1 <= idx <= nvars:
                raise IdealSyntaxError(f"variable index {idx} out of range 1..{nvars}", at)
            exp = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                at = pos
                exp = read_int()
                if exp < 1:
                    raise IdealSyntaxError("exponent must be positive", at)
            exps[idx - 1] += exp
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            return Monomial(exps)

    skip_ws()
    if pos == n:
        return []
    gens = [parse_gen()]
    while True:
        skip_ws()
        if pos == n:
            return gens
        if text[pos] != ",":
            raise IdealSyntaxError("expected ',' between generators", pos)
        pos += 1
        gens.append(parse_gen())


def parse_monomial(text: str, nvars: int) -> Monomial:
    gens = parse_generators(text, nvars)
    if len(gens) != 1:
        raise IdealSyntaxError("expected exactly one monomial", 0)
    return gens[0]


def parse_ideal(text: str, nvars: int) -> MonomialIdeal:
    """Parse and minimalize; the canonical ideal generated by the input."""
    return MonomialIdeal(nvars, parse_generators(text, nvars))


# ---------------------------------------------------------------------------
# ideal operations
# ---------------------------------------------------------------------------

_canonical = attrgetter("degree", "exps")


def _colon_step(gens: tuple[Monomial, ...], i: int, k: int) -> tuple[Monomial, ...]:
    """G(I : x_(i+1)^k) from G(I) = gens, for k >= 1, in canonical order.

    Every generator g with x_(i+1) loses min(g_i, k) factors of it.  Those
    keeping some x_(i+1) (g_i > k) stay minimal, since g' | h' would give
    g | h.  Only a generator that lost all of it (0 < g_i <= k) can divide
    another, and only one left without x_(i+1): an untouched generator
    or, when k >= 2, another one that lost all of it.  A proper divisor
    has lower degree, which is compared first.  With k = 1 the lowered
    generators are an antichain and only the untouched ones are tested.
    """
    moved: list[Monomial] = []  # the generators with x_(i+1), lowered
    cleared: list[Monomial] = []  # those of them left without x_(i+1)
    rest: list[Monomial] = []  # the generators without x_(i+1)
    for g in gens:
        e = g.exps[i]
        if not e:
            rest.append(g)
            continue
        cut = min(e, k)
        m = Monomial._raw(g.exps[:i] + (e - cut,) + g.exps[i + 1:], g.degree - cut)
        moved.append(m)
        if e <= k:
            cleared.append(m)
    if not moved:
        return gens

    def covered(t: Monomial) -> bool:
        return any(d.degree < t.degree and d.divides(t) for d in cleared)

    if k > 1:
        moved = [m for m in moved if m.exps[i] or not covered(m)]
    if cleared:
        rest = [g for g in rest if not covered(g)]
    out = moved + rest
    out.sort(key=_canonical)  # two sorted runs when k = 1
    return tuple(out)


def colon(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The colon ideal I : u, one variable at a time: I : x_i^(u_i) for
    each variable of u in turn, each an exponent-tuple step
    (``_colon_step``) with no re-validation and no full minimalization.
    An exponent above the lcm's removes x_i from every generator, as the
    lcm's own exponent does."""
    if u.nvars != I.nvars:
        raise ValueError("nvars mismatch between ideal and monomial")
    gens = I.gens
    for i, k in enumerate(u.exps):
        if k:
            gens = _colon_step(gens, i, k)
    return MonomialIdeal._raw(I.nvars, gens)


def saturate(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The saturation I : u^infinity, as the one colon I : u^k with k the
    largest ceil(L_i / u_i) over supp u, L the exponents of lcm(G(I)).
    Then k * u_i >= L_i on supp u, and a colon by more of x_i than L_i
    equals the colon by x_i^(L_i), so I : u^j is the same for all j >= k."""
    top = I.lcm_gens()
    k = max((-(-L // e) for L, e in zip(top.exps, u.exps) if e), default=0) if top else 0
    return colon(I, Monomial._raw(tuple(k * e for e in u.exps), k * u.degree))


def localize(I: MonomialIdeal, C: Iterable[int]) -> MonomialIdeal:
    """Monomial localization: substitute x_i -> 1 for every i in C.

    Equals the saturation of I at the product of the variables in C.
    The number of variables is preserved; the variables in C simply no
    longer occur.
    """
    zeroed = frozenset(i - 1 for i in _variable_indices(C, I.nvars))
    gens = (
        Monomial(0 if i in zeroed else e for i, e in enumerate(g.exps))
        for g in I.gens
    )
    return MonomialIdeal._raw(I.nvars, _minimal_sorted(gens))


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_pair(I, J)
    return MonomialIdeal._raw(I.nvars, _minimal_sorted(I.gens + J.gens))


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_pair(I, J)
    return MonomialIdeal._raw(
        I.nvars, _minimal_sorted(g * h for g in I.gens for h in J.gens)
    )


def ideal_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_pair(I, J)
    return MonomialIdeal._raw(
        I.nvars, _minimal_sorted(g.lcm(h) for g in I.gens for h in J.gens)
    )


_COMBINE = {"sum": ideal_sum, "product": ideal_product, "intersect": ideal_intersection}


def combine(op: str, I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    try:
        f = _COMBINE[op]
    except KeyError:
        raise ValueError(f"unknown combine op {op!r}; expected sum, product or intersect")
    return f(I, J)


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th power of I (k >= 1), folded from its C(|G(I)| + k - 1, k) generator products."""
    if k < 1:
        raise ValueError("power requires k >= 1")
    _check_enumeration("power", math.comb(len(I.gens) + k - 1, k))
    result = I
    for _ in range(k - 1):
        result = ideal_product(result, I)
    return result


def _component_size(I: MonomialIdeal, j: int) -> int:
    """How many monomials ``component(I, j)`` enumerates: g * w for each
    generator g of degree at most j and each w of degree j - deg g."""
    n = I.nvars
    return sum(math.comb(j - g.degree + n - 1, n - 1) for g in I.gens if g.degree <= j)


def component(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by all monomials of degree j lying in I."""
    if j < 0:
        raise ValueError("component degree must be non-negative")
    n = I.nvars
    _check_enumeration("component", _component_size(I, j))
    seen: set[tuple[int, ...]] = set()
    for g in I.gens:
        rest = j - g.degree
        if rest < 0:
            continue
        for w in capped_exponents(rest, (rest,) * n):
            seen.add(tuple(a + b for a, b in zip(g.exps, w)))
    gens = tuple(Monomial(e) for e in sorted(seen))
    return MonomialIdeal._raw(I.nvars, gens)


def is_single_degree(I: MonomialIdeal) -> bool:
    """True when all minimal generators share one total degree.

    The unit ideal qualifies (degree 0); the zero ideal is rejected.
    """
    if I.is_zero:
        raise ZeroIdealError("the zero ideal has no generator degrees")
    return I.gens[0].degree == I.gens[-1].degree


def colon_by_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal I : J for a monomial ideal J (intersection of colons)."""
    _check_pair(I, J)
    if J.is_zero:
        raise ZeroIdealError("colon by the zero ideal is the whole ring")
    result = colon(I, J.gens[0])
    for g in J.gens[1:]:
        result = ideal_intersection(result, colon(I, g))
    return result


def prime_ideal(nvars: int, C: Iterable[int]) -> MonomialIdeal:
    """The monomial prime ideal generated by the variables in C (1-based)."""
    gens = (
        Monomial(tuple(1 if j == i - 1 else 0 for j in range(nvars)))
        for i in _variable_indices(C, nvars)
    )
    return MonomialIdeal._raw(nvars, _minimal_sorted(gens))


def maximal_ideal(nvars: int) -> MonomialIdeal:
    """The graded maximal ideal m = (x1, ..., xn)."""
    return prime_ideal(nvars, range(1, nvars + 1))


def _check_pair(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.nvars != J.nvars:
        raise ValueError("nvars mismatch between ideals")


def _require_proper(I: MonomialIdeal, what: str) -> None:
    """Reject the zero and the unit ideal: ``what`` is undefined for them."""
    if I.is_zero:
        raise ZeroIdealError(f"{what} undefined for the zero ideal")
    if I.is_unit:
        raise UnitIdealError(f"{what} undefined for the unit ideal")


# ---------------------------------------------------------------------------
# generator-mask index
# ---------------------------------------------------------------------------

def _masks(seq: Sequence[Monomial]) -> list[dict[int, int]]:
    """``gt[i][t]``: the positions k of ``seq`` with seq[k]_i > t, as an int
    bitmask, for every exponent t of x_(i+1) in ``seq`` and every t - 1
    and t + 1, so ``gt[i][t - 1]`` holds the positions with exponent at
    least t.

    The keys are the exponents that occur, so the build is O(N*n) with a
    sort of each column's distinct exponents, whatever their size.
    """
    gt = []
    for col in zip(*(g.exps for g in seq)):
        at: dict[int, int] = {}
        for k, e in enumerate(col):
            at[e] = at.get(e, 0) | 1 << k
        above: dict[int, int] = {}
        higher = 0  # the positions with exponent above e
        for e in sorted(at, reverse=True):
            # when e + 1 occurs it is already set; otherwise the positions
            # above e + 1 are those above e
            above.setdefault(e + 1, higher)
            above[e] = higher
            higher |= at[e]
            above[e - 1] = higher  # the positions with exponent at least e
        gt.append(above)
    return gt


# the last ideal whose generator masks were asked for, and those masks
_indexed: tuple[MonomialIdeal | None, list[dict[int, int]]] = (None, [])


def _ideal_masks(I: MonomialIdeal) -> list[dict[int, int]]:
    """``_masks(I.gens)``, built once for the last ideal asked for.

    The exchange scan of ``polymatroid`` and the upper Koszul complexes of
    ``resolution`` both read G(I) through these masks, and the lab asks
    both of each ideal in turn, so one slot serves them.  K^b is built
    only at the multidegrees that the Mayer-Vietoris tree leaves open
    (nodes of one multidegree in adjacent positions, or off the strand
    of a linearity test), so a linear ideal's test may read no masks at
    all.  The slot is
    matched by identity and holds a reference to its ideal, so a slot
    hit is always the same immutable ideal; an equal ideal built
    elsewhere builds its own masks.
    """
    global _indexed
    if _indexed[0] is not I:
        _indexed = (I, _masks(I.gens))
    return _indexed[1]


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

def capped_exponents(d: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of total degree d with e_i <= caps[i], lex ascending."""
    n = len(caps)
    # room[i]: the most degree that positions i.. can still take
    room = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if not n or not 0 <= d <= room[0]:
        return
    if n == 1:
        yield (d,)
        return
    last = caps[-1]

    def rec(prefix: tuple[int, ...], remaining: int, pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n - 2:
            # the last two positions in one loop: the last takes the rest
            for e in range(max(0, remaining - last), min(caps[pos], remaining) + 1):
                yield prefix + (e, remaining - e)
            return
        for e in range(max(0, remaining - room[pos + 1]), min(caps[pos], remaining) + 1):
            yield from rec(prefix + (e,), remaining - e, pos + 1)

    try:
        yield from rec((), d, 0)
    finally:
        del rec  # rec's closure holds rec: clear the cycle when done or closed


def monomials_of_degree(nvars: int, d: int) -> Iterator[Monomial]:
    """All monomials of total degree d, in canonical (lex ascending) order."""
    return (Monomial(e) for e in capped_exponents(d, (d,) * nvars))


def colons(I: MonomialIdeal) -> Iterator[tuple[Monomial, MonomialIdeal]]:
    """(u, I : u) once for each distinct non-unit colon of I, at the first
    u giving it among the divisors of lcm(G(I)) in canonical order.

    Every colon ideal I : u equals I : gcd(u, lcm(G(I))), so these cover
    "all monomials u".  The divisors number prod(e_i + 1) over the
    exponents e_i of the lcm; that count is checked against
    DEFAULT_MONOMIAL_BUDGET before any colon is built.  A best-first walk
    pops the least u and, from the first u of each colon J, pushes J : x_i
    at u * x_i while u_i is below the lcm; (degree, lex) is a monomial
    order, so each colon first pops at its least u.
    """
    top = I.lcm_gens()
    if top is None:
        return
    _check_enumeration("colons", math.prod(e + 1 for e in top.exps), "divisors")
    n = I.nvars
    xs = [Monomial(tuple(int(k == i) for k in range(n))) for i in range(n)]
    heap, pushed, seen = [(0, (0,) * n, I)], {(0,) * n}, set()
    while heap:
        d, exps, J = heapq.heappop(heap)
        if J.is_unit or J in seen:
            continue  # the unit ideal's colons are all the unit ideal
        seen.add(J)
        yield Monomial(exps), J
        for i, cap in enumerate(top.exps):
            v = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
            if exps[i] < cap and v not in pushed:
                pushed.add(v)
                heapq.heappush(heap, (d + 1, v, colon(J, xs[i])))
