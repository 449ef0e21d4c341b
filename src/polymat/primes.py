"""Irreducible decomposition and associated primes of monomial ideals.

The decomposition intersects pure powers one generator at a time and
prunes only the components each generator adds: irreducible monomial
ideals are meet-prime, so the result is the unique irredundant set,
found by comparing pure powers without building or intersecting
ideals.  Associated primes are the radicals of those components, each
validated by an explicit witness monomial w with I : w = P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ideal import (
    Monomial,
    MonomialIdeal,
    _check_enumeration,
    _require_proper,
    colons,
    ideal_product,
    power,
    prime_ideal,
)

@dataclass(frozen=True)
class IrreducibleComponent:
    """An irreducible monomial ideal (x_i^{e_i} : i in the support).

    ``powers`` maps 1-based variable indices to positive exponents.
    """

    powers: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, mapping: dict[int, int]) -> "IrreducibleComponent":
        if not mapping:
            raise ValueError("an irreducible component needs at least one variable")
        if any(e < 1 for e in mapping.values()):
            raise ValueError("pure-power exponents must be positive")
        return cls(tuple(sorted(mapping.items())))

    @property
    def radical(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.powers)

    def as_ideal(self, nvars: int) -> MonomialIdeal:
        gens = []
        for i, e in self.powers:
            exps = [0] * nvars
            exps[i - 1] = e
            gens.append(Monomial(exps))
        return MonomialIdeal(nvars, gens)

    def to_json(self) -> dict:
        return {str(i): e for i, e in self.powers}


@dataclass(frozen=True)
class AssociatedPrimes:
    """Associated primes with their validating witnesses.

    ``witnesses[P]`` is a monomial w with colon(I, w) equal to the prime
    generated by the variables of P.
    """

    ass: tuple[frozenset[int], ...]
    minimal: tuple[frozenset[int], ...]
    height: int
    has_embedded: bool
    witnesses: dict[frozenset[int], Monomial]

    def to_json(self) -> dict:
        return {
            "ass": [sorted(p) for p in self.ass],
            "minimal": [sorted(p) for p in self.minimal],
            "height": self.height,
            "has_embedded": self.has_embedded,
            "witnesses": {
                ",".join(map(str, sorted(p))): str(w) for p, w in self.witnesses.items()
            },
        }


def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The irredundant set of irreducible components intersecting to I,
    in sorted order.

    A fold over G(I) in canonical order, from the zero ideal, the empty
    set of pure powers.  For each generator g, a component Q that holds g
    stays, and any other Q gives way to Q + (x_i^{g_i}) for each i in
    supp g: (Q_1 ∩ ... ∩ Q_r) + (g) = ∩ (Q_k + (g)) for monomial ideals,
    and Q + (uv) = (Q + (u)) ∩ (Q + (v)) for coprime u and v.  Irreducible
    ideals are meet-prime, so a component is redundant exactly when
    another lies inside it, and only the new ones need that test: if
    R = Q + (x_i^{g_i}) lay inside a kept K, Q would too, and the previous
    step was irredundant.  The new components are distinct, as R holds g
    through x_i alone and two Q differing only in x_i would be nested.
    Each step's C components, before pruning, give C*(C-1) pairs, checked
    against ``ideal.DEFAULT_MONOMIAL_BUDGET``.
    """
    _require_proper(I, "decomposition")
    # a component is its exponent vector, 0 where it has no pure power
    comps = [(0,) * I.nvars]
    for g in I.gens:
        kept, new = [], []
        for Q in comps:
            if any(0 < a <= b for a, b in zip(Q, g.exps)):
                kept.append(Q)
            else:
                new.extend(Q[:i] + (b,) + Q[i + 1:] for i, b in enumerate(g.exps) if b)
        comps = kept + new
        c = len(comps)
        _check_enumeration("irreducible decomposition", c * (c - 1), "component pairs")
        comps = kept + [R for R in new if not any(D is not R and _within(D, R) for D in comps)]
    powers = sorted(tuple((i + 1, a) for i, a in enumerate(Q) if a) for Q in comps)
    return tuple(IrreducibleComponent(p) for p in powers)


def _within(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """(x_i^{b_i}) lies in (x_i^{a_i}), as exponent vectors b and a with 0
    for no power: every power of the inner has a_i > 0 and a_i <= b_i."""
    return all(0 < a <= b for b, a in zip(inner, outer) if b)


def associated_primes(I: MonomialIdeal) -> AssociatedPrimes:
    """Associated primes of S/I, each validated by a witness monomial.

    Candidates are the radicals of the irredundant irreducible
    components; a witness with I : w = P is the first w that
    ``ideal.colons`` yields with that colon, so the search ranges over
    the divisors of lcm(G(I)) under its budget and stops at the last
    witness.  A candidate without a witness is reported as an error,
    never dropped silently.
    """
    _require_proper(I, "decomposition")
    candidates = sorted(
        {c.radical for c in irreducible_decomposition(I)},
        key=lambda p: (len(p), sorted(p)),
    )
    witnesses: dict[frozenset[int], Monomial] = {}
    remaining = set(candidates)
    for w, Q in colons(I):
        if all(g.degree == 1 for g in Q.gens):
            p = frozenset(g.exps.index(1) + 1 for g in Q.gens)
            if p in remaining:
                witnesses[p] = w
                remaining.discard(p)
                if not remaining:
                    break  # scanning on would build colons nobody needs
    if remaining:
        raise AssertionError(
            "no witness found for candidate primes "
            + "; ".join("{" + ",".join(map(str, sorted(p))) + "}" for p in remaining)
        )

    ass = tuple(candidates)
    minimal = tuple(
        p for p in ass if not any(q < p for q in ass)
    )
    return AssociatedPrimes(
        ass=ass,
        minimal=minimal,
        height=min(len(p) for p in minimal),
        has_embedded=len(minimal) != len(ass),
        witnesses=witnesses,
    )


def transversal(
    nvars: int,
    primes: list[Iterable[int]],
    exponents: list[int],
) -> MonomialIdeal:
    """The product P_1^{a_1} ... P_r^{a_r} of monomial prime ideals, each
    prime given by its 1-based variable indices."""
    if len(primes) != len(exponents):
        raise ValueError("primes and exponents differ in length")
    if any(a < 1 for a in exponents):
        raise ValueError("exponents must be positive")
    result = MonomialIdeal(nvars, [Monomial((0,) * nvars)])  # unit
    for P, a in zip(primes, exponents):
        result = ideal_product(result, power(prime_ideal(nvars, P), a))
    return result
