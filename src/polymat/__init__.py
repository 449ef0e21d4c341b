"""Exact computations with monomial ideals: exchange properties, Betti
tables, linear quotients, primes, and a conjecture-verification lab."""

__version__ = "0.1.0"

from .ideal import (
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    ResourceLimitExceeded,
    UnitIdealError,
    ZeroIdealError,
    colon,
    colon_by_ideal,
    colons,
    combine,
    component,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_single_degree,
    localize,
    maximal_ideal,
    monomials_of_degree,
    parse_generators,
    parse_ideal,
    parse_monomial,
    power,
    prime_ideal,
    saturate,
)
