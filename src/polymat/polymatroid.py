"""Exchange-property predicates and Veronese-type constructions.

All exchange predicates run one scanner, one pass per minimal generator
u over int bitmasks of G(I): the candidates v of a step are one mask,
and each move x_j * (u / x_i) that lies in I clears one mask from them.
Membership of a move is read off the same masks, as divisibility by
some generator, in one or in several degrees, so no monomial or
exponent tuple is built.  False verdicts carry a witness that can be
re-checked by brute force; steps follow the canonical generator order,
so witnesses are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .ideal import (
    DEFAULT_MONOMIAL_BUDGET,
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    _check_enumeration,
    _component_size,
    _masks,
    _require_proper,
    capped_exponents,
    component,
    is_single_degree,
)

VERDICT_VIOLATED = "violated"


@dataclass(frozen=True)
class VeroneseParams:
    """Degree d plus per-variable exponent caps a_1..a_n.

    Describes the ideal generated by all monomials of degree d whose
    i-th exponent is at most caps[i-1].  Caps summing below d would give
    the zero ideal and are rejected.
    """

    d: int
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(int(a) for a in self.caps))
        if self.d < 1:
            raise ValueError("degree must be positive")
        if any(a < 0 for a in self.caps):
            raise ValueError("caps must be non-negative")
        if sum(self.caps) < self.d:
            raise ValueError("caps sum below the degree: the ideal would be zero")

    @property
    def nvars(self) -> int:
        return len(self.caps)


@dataclass(frozen=True)
class ExchangeWitness:
    """One exchange step, in the orientation 'u loses x_i'.

    Here deg_{x_i}(u) > deg_{x_i}(v); when the verdict is violated, no
    index j with deg_{x_j}(u) < deg_{x_j}(v) makes x_j * (u / x_i) land
    in the ideal (re-checkable by brute force over all j).  Indices are
    1-based.
    """

    u: Monomial
    v: Monomial
    i: int
    verdict: str
    j: int | None = None

    def to_json(self) -> dict:
        return {
            "u": str(self.u),
            "v": str(self.v),
            "i": self.i,
            "verdict": self.verdict,
            "j": self.j,
        }


def _exchange_violation(
    I: MonomialIdeal, every_j: bool = False, smaller_first: bool = False
) -> ExchangeWitness | None:
    """The first failing exchange step of I, or None.

    A step is (u, v, i): generators u != v with deg v <= deg u and
    v_i < u_i.  It passes when some j with v_j > u_j (every such j, when
    ``every_j``) puts x_j * u / x_i in I.  Steps are ordered by u, v and
    then i in canonical generator order, or by v first when
    ``smaller_first``.

    One pass per generator u, on the masks ``gt = ideal._masks(G(I))``,
    built once per call at the first u with a v to exchange with.  For
    each i with u_i > 0 the candidates v are ~gt[i][u_i - 1]
    (v_i < u_i), cut to the degrees up to deg u.  A move
    x_j * u / x_i that lies in I clears gt[j][u_j] (v_j > u_j) from them,
    and whatever no move clears fails.  G(I) is an antichain, so a
    generator g dividing the move is not u and does not divide u: it
    exceeds u in x_j alone, by one, and has g_i < u_i.  Those exceeding u
    in x_j alone by one are read off the masks once per u, and then a
    move costs one AND, in one degree or in several.
    """
    gens = I.gens
    upto: dict[int, int] = {}  # degree -> the positions of at most that degree
    for k, g in enumerate(gens):
        upto[g.degree] = (2 << k) - 1
    found = gt = None
    limit = -1  # with smaller_first, the v below the best one so far
    for k, u in enumerate(gens):
        window = upto[u.degree] & limit & ~(1 << k)
        if not window:
            continue  # no v to exchange with, and no masks needed for u
        if gt is None:
            gt = _masks(gens)
        cols = list(zip(gt, u.exps))
        once = twice = 0  # the generators exceeding u in some, in two variables
        for col, e in cols:
            above = col[e]
            twice |= once & above
            once |= above
        # (j, v_j > u_j, the generators exceeding u in x_j alone and by one),
        # for the j where some v in the window has v_j > u_j
        moves = [
            (j, col[e], col[e] & ~(twice | col[e + 1]))
            for j, (col, e) in enumerate(cols) if col[e] & window
        ]
        best = 0
        for i, (col, e) in enumerate(cols):
            if not e:
                continue
            at_least = col[e - 1]  # v_i >= u_i
            cand = window & ~at_least
            if not cand:
                continue
            if every_j:
                failed = 0
                for _, above, near in moves:
                    if not near & ~at_least:
                        failed |= cand & above
                cand = failed
            else:
                for _, above, near in moves:
                    if cand & above and near & ~at_least:
                        cand &= ~above
                        if not cand:
                            break
            low = cand & -cand
            if low and (not best or low < best):
                best, best_i, best_at_least = low, i, at_least
        if best:
            j = None
            if every_j:
                j = 1 + next(
                    j for j, above, near in moves if best & above and not near & ~best_at_least
                )
            found = ExchangeWitness(u, gens[best.bit_length() - 1], best_i + 1, VERDICT_VIOLATED, j)
            if not smaller_first:
                break
            limit = best - 1
    return found


def is_polymatroidal(I: MonomialIdeal) -> tuple[bool, ExchangeWitness | None]:
    """Single degree plus the exchange property over all generator pairs.

    Returns (True, None), or (False, witness) with the canonically first
    violating triple; the witness is None when the ideal is not even
    generated in a single degree.
    """
    _require_proper(I, "predicate")
    if not is_single_degree(I):
        return False, None
    witness = _exchange_violation(I)
    return witness is None, witness


def is_matroidal(I: MonomialIdeal) -> bool:
    """Squarefree and polymatroidal."""
    _require_proper(I, "predicate")
    return I.is_squarefree and is_polymatroidal(I)[0]


def has_strong_exchange(I: MonomialIdeal) -> tuple[bool, ExchangeWitness | None]:
    """The exchange condition for every admissible pair (i, j), not just some j."""
    _require_proper(I, "predicate")
    if not is_single_degree(I):
        return False, None
    witness = _exchange_violation(I, every_j=True)
    return witness is None, witness


def has_nonpure_exchange(I: MonomialIdeal) -> tuple[bool, ExchangeWitness | None]:
    """Exchange across degrees: the higher-degree generator loses a variable.

    For generators u, v with deg(u) <= deg(v) and deg_{x_i}(v) > deg_{x_i}(u),
    some j with deg_{x_j}(v) < deg_{x_j}(u) must put x_j * (v / x_i) in I.
    The witness keeps the 'modified monomial first' orientation, so its
    u field holds the higher-degree generator.
    """
    _require_proper(I, "predicate")
    witness = _exchange_violation(I, smaller_first=True)
    return witness is None, witness


def _veronese_exponents(params: VeroneseParams) -> list[tuple[int, ...]]:
    """The exponent vectors of G(veronese(params)), lex ascending.

    Raises ResourceLimitExceeded past DEFAULT_MONOMIAL_BUDGET vectors,
    after enumerating one more than the budget.
    """
    budget = DEFAULT_MONOMIAL_BUDGET
    exps = list(itertools.islice(capped_exponents(params.d, params.caps), budget + 1))
    if len(exps) > budget:
        raise ResourceLimitExceeded(f"veronese would enumerate more than {budget} monomials")
    return exps


def veronese(params: VeroneseParams) -> MonomialIdeal:
    """All degree-d monomials within the exponent caps (already minimal).

    Raises ResourceLimitExceeded past DEFAULT_MONOMIAL_BUDGET monomials.
    """
    return MonomialIdeal._raw(
        params.nvars, tuple(Monomial(e) for e in _veronese_exponents(params))
    )


def detect_veronese(I: MonomialIdeal) -> VeroneseParams | None:
    """Recover Veronese-type parameters, or None.

    Uses the tight caps a_i = max exponent of x_i over the generators and
    compares the reconstruction with G(I).  Both are in lex order, so at
    most |G(I)| + 1 capped exponent vectors are enumerated.
    """
    _require_proper(I, "predicate")
    if not is_single_degree(I):
        raise ValueError("Veronese detection requires a single generator degree")
    params = VeroneseParams(I.gens[0].degree, I.lcm_gens().exps)
    built = itertools.islice(capped_exponents(params.d, params.caps), len(I.gens) + 1)
    return params if list(built) == [g.exps for g in I.gens] else None


def is_componentwise_polymatroidal(I: MonomialIdeal) -> tuple[bool, int | None]:
    """Every graded component I_<j> is polymatroidal; (False, j) names the
    first that is not.

    Only the generator degrees are tested.  At any other degree j,
    I_<j> = I_<j-1> * m, a product of polymatroidal ideals once I_<j-1>
    is one, hence polymatroidal (Conca-Herzog 2003), so the first
    failing degree is always a generator degree.
    """
    _require_proper(I, "predicate")
    for j in I.degrees():
        if not is_polymatroidal(component(I, j))[0]:
            return False, j
    return True, None


def _veronese_components(I: MonomialIdeal) -> Iterator[tuple[int, VeroneseParams | None]]:
    """(j, Veronese-type parameters of I_<j> or None) for every j from the
    lowest to the highest generator degree.

    Every degree is visited: I_<j-1> * m need not be of Veronese type
    ((x1x2x3, x1x3^2, x2x3^2, x3^3) is, and its product with m lacks
    x1^2x2^2).  Each component's monomials are counted before it is
    built, and the walk raises ResourceLimitExceeded once their running
    total passes DEFAULT_MONOMIAL_BUDGET.
    """
    total = 0
    for j in range(I.min_degree, I.max_degree + 1):
        total += _component_size(I, j)
        _check_enumeration("the componentwise Veronese walk", total)
        yield j, detect_veronese(component(I, j))


def is_componentwise_veronese(I: MonomialIdeal) -> tuple[bool, int | None]:
    """Every graded component in the generator-degree range is of Veronese type."""
    _require_proper(I, "predicate")
    for j, params in _veronese_components(I):
        if params is None:
            return False, j
    return True, None
