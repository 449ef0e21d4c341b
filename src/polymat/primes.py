"""Irreducible decomposition and associated primes of monomial ideals.

The decomposition splits any generator that is not a pure power, then
keeps the inclusion-minimal components: irreducible monomial ideals are
meet-prime, so that is the unique irredundant set, found by comparing
pure powers without intersecting ideals.  Associated primes are the
radicals of those components, each validated by an explicit witness
monomial w with I : w = P.
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


def _split_once(I: MonomialIdeal) -> tuple[MonomialIdeal, MonomialIdeal] | None:
    """Split on a generator with at least two variables; None if all are
    pure powers."""
    for g in I.gens:
        supp = [i for i, e in enumerate(g.exps) if e]
        if len(supp) >= 2:
            i = supp[0]
            left = Monomial(tuple(e if k == i else 0 for k, e in enumerate(g.exps)))
            right = Monomial(tuple(0 if k == i else e for k, e in enumerate(g.exps)))
            others = tuple(h for h in I.gens if h is not g)
            return (
                MonomialIdeal(I.nvars, others + (left,)),
                MonomialIdeal(I.nvars, others + (right,)),
            )
    return None


def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The irredundant set of irreducible components intersecting to I.

    These are the inclusion-minimal split components, in sorted order.
    Irreducible ideals are meet-prime: if J1 and J2 meet inside
    Q = (x_i^{a_i} : i in A) while u in J1 and v in J2 lie outside Q,
    then lcm(u, v) lies in Q, so max(u_i, v_i) >= a_i for some i in A and
    u or v lies in Q after all.  Hence J1 or J2 lies in Q, and the other
    components meet inside Q_k exactly when one of them lies in Q_k.
    The ideals the split visits, and the C*(C-1) pairs the pruning
    compares among C components, are counted as they accrue against
    ``ideal.DEFAULT_MONOMIAL_BUDGET``.
    """
    _require_proper(I, "decomposition")

    components: set[IrreducibleComponent] = set()
    seen: set[MonomialIdeal] = set()
    stack = [I]
    while stack:
        J = stack.pop()
        if J in seen:
            continue
        seen.add(J)
        _check_enumeration("irreducible decomposition", len(seen), "split ideals")
        split = _split_once(J)
        if split is None:
            components.add(
                IrreducibleComponent.of(
                    {i + 1: e for g in J.gens for i, e in enumerate(g.exps) if e}
                )
            )
            c = len(components)
            _check_enumeration("irreducible decomposition", c * (c - 1), "component pairs")
        else:
            stack.extend(split)

    comps = sorted(components, key=lambda c: c.powers)
    return tuple(c for c in comps if not any(d is not c and _within(d, c) for d in comps))


def _within(inner: IrreducibleComponent, outer: IrreducibleComponent) -> bool:
    """(x_i^{b_i} : i in B) lies in (x_i^{a_i} : i in A): B in A, a_i <= b_i."""
    a = dict(outer.powers)
    return all(i in a and a[i] <= b for i, b in inner.powers)


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
