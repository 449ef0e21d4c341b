"""Linear-quotients certificates: checking, searching, and construction.

A certificate records an ordered sequence of generators, appended after
an optional base ideal, such that at every step the colon of the
predecessors by the next generator is generated by variables.  The
certificate re-verifies from its own data.

One step test serves checking, searching and verification, and it works
on exponents without building the colon.  The colon (g_1, ..., g_N) : v
is generated by the quotients g_k / gcd(g_k, v), whose supports are
{i : g_i > v_i}.  Let S be the variables that occur as a quotient of
degree 1.  The colon is generated by variables exactly when every
quotient's support meets S, and then S is its variable set.  A quotient
equal to 1 (g_k divides v) meets nothing and fails the step; no
predecessors give the zero colon and the empty step.

The test runs on int bitmasks over the positions of the whole sequence
(``ideal._masks``), built once per sequence in O(N*n), whatever the size
of the exponents:
``gt[i][t]`` holds the positions k with g_k,i > t, for each exponent t
of x_(i+1) that occurs in the sequence and for t - 1 and t + 1; the
key t - 1 holds the positions with exponent at least t.  With P the
mask of the predecessors, A_i = gt[i][v_i] & P holds those whose quotient
involves x_i.  The step fails when the A_i do not cover P (some
predecessor divides v).  A predecessor lies in exactly one A_i and
outside gt[i][v_i + 1] exactly when its quotient is x_i, so S is read off
from the bits of A_i & ~gt[i][v_i + 1] that lie in no other A_j, and the
step is linear exactly when the A_i over S cover P.
That is O(n) int operations per step, whatever the number of
predecessors.  The same masks first check that the sequence is a
minimal generating set: g_j divides g_k exactly when position j lies in
no gt[i][g_k,i].  A proper divisor has lower degree, so after a set of
exponent tuples rejects equal members, each position is checked only
against the positions of lower degree, and a sequence of one degree (a
Veronese extension, a revlex order) runs no such check.  A fixed order
has one step path, ``check_lq_order``, which ``verify()``, ``revlex_lq``
and the Veronese constructions all call; ``find_lq_order`` searches on
the same checked masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ideal import (
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    ZeroIdealError,
    _masks,
    _require_proper,
    is_single_degree,
)
from .polymatroid import VeroneseParams, _veronese_components, _veronese_exponents

DEFAULT_SEARCH_CAP = 20


@dataclass(frozen=True)
class LinearQuotientsCertificate:
    """Witness that ``base`` extends by linear quotients along ``appended``.

    ``steps[k]`` is the set of variable indices (1-based) generating the
    colon of (base + appended[:k]) by appended[k]; the first step over a
    zero base has an empty set (the colon is the zero ideal).
    """

    base: MonomialIdeal
    appended: tuple[Monomial, ...]
    steps: tuple[frozenset[int], ...]

    def verify(self) -> bool:
        """Re-check the sequence from scratch and compare the steps.

        A sequence that is not a minimal generating set over the base,
        or mixes numbers of variables, fails rather than raises.
        """
        try:
            cert, _ = check_lq_order(self.base, self.appended)
        except ValueError:
            return False
        return cert is not None and cert.steps == tuple(self.steps)

    def to_json(self) -> dict:
        return {
            "base": str(self.base),
            "order": [str(v) for v in self.appended],
            "steps": [sorted(s) for s in self.steps],
        }


def _mask_step(
    gt: list[dict[int, int]] | None, ve: tuple[int, ...], preds: int
) -> frozenset[int] | None:
    """The variables (1-based) generating the colon of the positions in
    ``preds`` by the sequence member with exponents ``ve``, or None when
    that colon is not generated by variables."""
    if not preds:
        return frozenset()  # no predecessors: the zero colon
    above = [col[e] & preds for col, e in zip(gt, ve)]
    once = twice = 0
    for a in above:
        twice |= once & a
        once |= a
    step = []
    covered = 0
    for i, (a, col, e) in enumerate(zip(above, gt, ve)):
        if a & ~(col[e + 1] | twice):
            step.append(i + 1)
            covered |= a
    if covered != preds:
        return None  # a quotient's support misses S or is empty (g_k divides v)
    return frozenset(step)


def _minimal_masks(base: MonomialIdeal, seq: tuple[Monomial, ...]) -> list[dict[int, int]] | None:
    """The masks of ``seq`` (base plus order), after checking that its
    members have the base's nvars and that none divides another.

    A member divides another of its own degree only when the two are
    equal, so one set of exponent tuples rejects repeats.  A proper
    divisor has lower degree, so each position g_k is then checked only
    against the positions of lower degree: g_j divides g_k exactly when
    j lies in no ``gt[i][g_k,i]``.  A sequence of one degree runs no
    such check, and one of at most one member builds no masks.
    """
    n = base.nvars
    if any(len(g.exps) != n for g in seq):
        raise ValueError("nvars mismatch in generator sequence")
    if len(seq) < 2:
        return None
    if len({g.exps for g in seq}) != len(seq):
        raise ValueError("base plus order is not a minimal generating set")
    gt = _masks(seq)
    at: dict[int, int] = {}  # degree -> the positions of that degree
    for k, g in enumerate(seq):
        at[g.degree] = at.get(g.degree, 0) | 1 << k
    if len(at) > 1:
        lower: dict[int, int] = {}  # degree -> the positions of lower degree
        below = 0
        for deg in sorted(at):
            lower[deg] = below
            below |= at[deg]
        for g in seq:
            need = lower[g.degree]
            if not need:
                continue
            cover = 0
            for col, e in zip(gt, g.exps):
                cover |= col[e]
            if need & ~cover:
                raise ValueError("base plus order is not a minimal generating set")
    return gt


def check_lq_order(
    base: MonomialIdeal, order: Sequence[Monomial]
) -> tuple[LinearQuotientsCertificate | None, int | None]:
    """Verify a proposed order; returns (certificate, None) on success,
    (None, first failing position) otherwise."""
    order = tuple(order)
    gt = _minimal_masks(base, base.gens + order)
    nb = len(base.gens)
    steps: list[frozenset[int]] = []
    for pos, v in enumerate(order):
        step = _mask_step(gt, v.exps, (1 << (nb + pos)) - 1)
        if step is None:
            return None, pos
        steps.append(step)
    return LinearQuotientsCertificate(base, order, tuple(steps)), None


def find_lq_order(
    base: MonomialIdeal,
    gens: Iterable[Monomial],
    max_gens: int = DEFAULT_SEARCH_CAP,
) -> LinearQuotientsCertificate | None:
    """Exhaustive search for a linear-quotients order of ``gens`` after ``base``.

    Whether a generator can come next depends only on the set of already
    placed generators, so the search walks subsets depth-first with a
    memo of dead subsets; the first success in canonical candidate order
    is returned, making the result deterministic.  Subsets are int
    bitmasks over the candidates, and each step is one mask step over the
    masks of base plus candidates, built once: O(n) int operations per
    tried candidate.
    """
    pool = sorted(set(gens), key=Monomial._key)
    if len(pool) > max_gens:
        raise ResourceLimitExceeded(
            f"{len(pool)} generators exceed the search cap of {max_gens}"
        )
    gt = _minimal_masks(base, base.gens + tuple(pool))
    nb = len(base.gens)
    base_mask = (1 << nb) - 1
    everything = (1 << len(pool)) - 1
    dead: set[int] = set()
    order: list[Monomial] = []
    steps: list[frozenset[int]] = []

    def extend(placed: int) -> bool:
        if placed == everything:
            return True
        if placed in dead:
            return False
        preds = base_mask | placed << nb
        for idx, v in enumerate(pool):
            if placed >> idx & 1:
                continue
            step = _mask_step(gt, v.exps, preds)
            if step is None:
                continue
            order.append(v)
            steps.append(step)
            if extend(placed | 1 << idx):
                return True
            order.pop()
            steps.pop()
        dead.add(placed)
        return False

    try:
        found = extend(0)
    finally:
        del extend  # extend's closure holds extend: clear the cycle
    return LinearQuotientsCertificate(base, tuple(order), tuple(steps)) if found else None


# ---------------------------------------------------------------------------
# reverse-lexicographic order
# ---------------------------------------------------------------------------

def revlex_order(gens: Iterable[Monomial], increasing: bool = False) -> list[Monomial]:
    """Generators sorted for processing: decreasing revlex by default.

    u > v in revlex exactly when the reversed exponents of u come first in
    lex order, so ascending reversed exponents is decreasing revlex.
    """
    return sorted(gens, key=lambda m: m.exps[::-1], reverse=increasing)


def revlex_lq(
    I: MonomialIdeal, increasing: bool = False
) -> LinearQuotientsCertificate | None:
    """Check linear quotients along the reverse-lexicographic generator order.

    The default processes generators in decreasing revlex order, which
    gives every polymatroidal ideal linear quotients (Herzog-Takayama).
    The increasing flag serves ``lq revlex --increasing`` and condition
    cor12.c of ``verify_squarefree``, which accepts either convention: a
    non-polymatroidal ideal can have linear quotients only in increasing
    order, as x1*x4, x2*x3, x2*x4, x3*x4 does.
    """
    if I.is_zero:
        raise ZeroIdealError("no generators to order")
    if not is_single_degree(I):
        raise ValueError("revlex linear quotients require a single generator degree")
    cert, _ = check_lq_order(MonomialIdeal._raw(I.nvars, ()), revlex_order(I.gens, increasing))
    return cert


# ---------------------------------------------------------------------------
# extension by linear quotients between Veronese-type ideals
# ---------------------------------------------------------------------------

def extend_lq_veronese(
    p: VeroneseParams, q: VeroneseParams
) -> LinearQuotientsCertificate:
    """Extend I*m by linear quotients to J, for Veronese I of degree d and
    Veronese J of degree d+1 with I*m contained in J.

    The generators of J outside G(I*m) are appended in the order of a
    two-stage construction, written as one sort key.  Stage 1 adds those
    with every u_i <= a_i + 1 (the caps of I raised by one), keyed on
    (0, the number of i with u_i = a_i + 1, that raised part, u).  Stage 2
    raises the caps to those of J one at a time, in variable order, and
    appends each batch.  A u with some u_i > a_i + 1 enters at the raise
    of cap s to u_s, for the last such s, because the earlier caps are
    then those of J and the later ones still a + 1; it keys on
    (1, s, u_s, u).  Parts and u sort lex-descending.  The order is
    verified step by step; a failure would falsify the construction.

    The generator sets are built on exponent tuples:
    G(I*m) = {a + e_i : a in G(I)}, all of degree d+1 and so already
    minimal, and G(J) is the capped exponent vectors of q.  Monomials are
    built once, for the base in lex order and for the appended order.
    """
    n = p.nvars
    if q.nvars != n:
        raise ValueError("parameter pair must agree on the number of variables")
    if q.d != p.d + 1:
        raise ValueError("target degree must be the source degree plus one")

    im_exps = {
        a[:i] + (a[i] + 1,) + a[i + 1:] for a in _veronese_exponents(p) for i in range(n)
    }
    j_exps = set(_veronese_exponents(q))
    # both ideals are generated in degree d+1, so containment is inclusion
    # of the generator sets
    if not im_exps <= j_exps:
        raise ValueError("precondition violated: I*m is not contained in J")

    raised = tuple(a + 1 for a in p.caps)

    def key(u: tuple[int, ...]):
        desc = tuple(-e for e in u)
        above = [i for i, (e, c) in enumerate(zip(u, raised)) if e > c]
        if above:
            return (1, above[-1], u[above[-1]], desc)
        at_cap = [e == c for e, c in zip(u, raised)]
        part = tuple(-e if hit else 0 for e, hit in zip(u, at_cap))
        return (0, sum(at_cap), part, desc)

    # lex order is the canonical order within one degree
    Im = MonomialIdeal._raw(n, tuple(Monomial(a) for a in sorted(im_exps)))
    appended = [Monomial(u) for u in sorted(j_exps - im_exps, key=key)]
    cert, failed_at = check_lq_order(Im, appended)
    if cert is None:
        raise AssertionError(
            f"extension order failed verification at position {failed_at}; "
            "this would falsify the extension theorem"
        )
    return cert


def componentwise_veronese_lq(I: MonomialIdeal) -> LinearQuotientsCertificate | None:
    """A linear-quotients certificate for a componentwise Veronese ideal.

    Chains the Veronese extension across the component degrees: the
    lowest component is of Veronese type, hence polymatroidal, so
    decreasing reverse lex gives it linear quotients (Herzog-Takayama),
    and each following stage appends the extension's new generators,
    which are exactly the minimal generators of the next degree.  Returns
    None when some component is not of Veronese type.
    """
    _require_proper(I, "componentwise chaining")
    params: dict[int, VeroneseParams] = {}
    for j, pj in _veronese_components(I):
        if pj is None:
            return None
        params[j] = pj

    order = revlex_order(g for g in I.gens if g.degree == I.min_degree)
    for j in range(I.min_degree, I.max_degree):
        order.extend(extend_lq_veronese(params[j], params[j + 1]).appended)

    cert, failed_at = check_lq_order(MonomialIdeal._raw(I.nvars, ()), order)
    if cert is None:
        raise AssertionError(
            f"chained componentwise order failed at position {failed_at}"
        )
    return cert
