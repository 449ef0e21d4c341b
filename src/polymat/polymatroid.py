"""Exchange-property predicates and Veronese-type constructions.

All exchange predicates run one scanner over pairs of minimal
generators.  A move x_j * (u / x_i) keeps the degree of u, so in an
ideal generated in a single degree it lies in I exactly when it is a
generator: membership is a lookup of its exponent tuple in the set of
generator exponents, and no monomial is built.  Only a mixed-degree
ideal (the non-pure exchange) falls back to divisibility against the
generators.  False verdicts carry a witness that can be re-checked by
brute force; pair iteration follows the canonical generator order, so
witnesses are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .ideal import (
    DEFAULT_MONOMIAL_BUDGET,
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    _check_enumeration,
    _component_size,
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


def _exchange_move(ue: tuple[int, ...], i0: int, j0: int) -> tuple[int, ...]:
    """Exponents of x_{j0+1} * (u / x_{i0+1}), 0-based positions."""
    e = list(ue)
    e[i0] -= 1
    e[j0] += 1
    return tuple(e)


def _exchange_violation(
    I: MonomialIdeal, pairs: Iterable[tuple[Monomial, Monomial]], every_j: bool
) -> ExchangeWitness | None:
    """The first failing exchange step over ``pairs``, in their order.

    For each pair (u, v) and each i with deg_{x_i}(u) > deg_{x_i}(v), the
    moves x_j * (u / x_i) with deg_{x_j}(u) < deg_{x_j}(v) are tried in
    increasing j; some move (every move, when ``every_j``) must lie in I.
    Membership is a lookup among the generator exponents when I has a
    single degree, and a divisibility scan otherwise.
    """
    if is_single_degree(I):
        member = {g.exps for g in I.gens}.__contains__
    else:
        def member(e: tuple[int, ...]) -> bool:
            return I.contains(Monomial(e))
    n = I.nvars
    for u, v in pairs:
        ue, ve = u.exps, v.exps
        gains = [j0 for j0 in range(n) if ue[j0] < ve[j0]]
        for i0 in range(n):
            if ue[i0] <= ve[i0]:
                continue
            if every_j:
                for j0 in gains:
                    if not member(_exchange_move(ue, i0, j0)):
                        return ExchangeWitness(u, v, i0 + 1, VERDICT_VIOLATED, j0 + 1)
            elif not any(member(_exchange_move(ue, i0, j0)) for j0 in gains):
                return ExchangeWitness(u, v, i0 + 1, VERDICT_VIOLATED)
    return None


def _distinct_pairs(I: MonomialIdeal) -> Iterator[tuple[Monomial, Monomial]]:
    return ((u, v) for u in I.gens for v in I.gens if u is not v)


def is_polymatroidal(I: MonomialIdeal) -> tuple[bool, ExchangeWitness | None]:
    """Single degree plus the exchange property over all generator pairs.

    Returns (True, None), or (False, witness) with the canonically first
    violating triple; the witness is None when the ideal is not even
    generated in a single degree.
    """
    _require_proper(I, "predicate")
    if not is_single_degree(I):
        return False, None
    witness = _exchange_violation(I, _distinct_pairs(I), every_j=False)
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
    witness = _exchange_violation(I, _distinct_pairs(I), every_j=True)
    return witness is None, witness


def has_nonpure_exchange(I: MonomialIdeal) -> tuple[bool, ExchangeWitness | None]:
    """Exchange across degrees: the higher-degree generator loses a variable.

    For generators u, v with deg(u) <= deg(v) and deg_{x_i}(v) > deg_{x_i}(u),
    some j with deg_{x_j}(v) < deg_{x_j}(u) must put x_j * (v / x_i) in I.
    The witness keeps the 'modified monomial first' orientation, so its
    u field holds the higher-degree generator.
    """
    _require_proper(I, "predicate")
    pairs = (
        (big, small)
        for small in I.gens
        for big in I.gens
        if small is not big and small.degree <= big.degree
    )
    witness = _exchange_violation(I, pairs, every_j=False)
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
