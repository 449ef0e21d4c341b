"""Command-line front end.

Every verb maps to one library operation or harness.  Output is plain
text by default or a single JSON object with --json.  Exit codes:
0 = predicate true / operation succeeded, 1 = predicate false,
2 = usage or parse error, 3 = resource budget exceeded,
4 = theorem violation detected by a harness.

The parser alone decides: each leaf command (a verb, or a verb and its
mode) declares the options it reads, with their defaults, and names its
handler, which returns (JSON payload, text lines, exit code) for ``run``
to print.  It is built on the first ``run`` and kept for the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .ideal import (
    IdealSyntaxError,
    ResourceLimitExceeded,
    _variable_indices,
    colon,
    combine,
    component,
    is_single_degree,
    localize,
    parse_generators,
    parse_ideal,
    parse_monomial,
    power,
    saturate,
)
from .lab import DEFAULT_ENUM_BUDGET, IdealSpace, example_suite, scan_conjecture, verify_equivalences
from .polymatroid import (
    VeroneseParams,
    has_nonpure_exchange,
    has_strong_exchange,
    is_componentwise_polymatroidal,
    is_componentwise_veronese,
    is_matroidal,
    is_polymatroidal,
)
from .primes import associated_primes, irreducible_decomposition
from .quotients import DEFAULT_SEARCH_CAP, check_lq_order, extend_lq_veronese, find_lq_order, revlex_lq
from .resolution import (
    DEFAULT_LATTICE_BUDGET,
    _certificate_betti,
    betti_table,
    has_linear_relations,
    has_linear_resolution,
    is_componentwise_linear,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VIOLATION = 4


def _parse_params(text: str) -> VeroneseParams:
    """Veronese parameters as 'd:a1,a2,...'."""
    try:
        head, tail = text.split(":", 1)
        d = int(head)
        caps = tuple(int(x) for x in tail.split(","))
    except ValueError as exc:
        raise IdealSyntaxError(f"bad Veronese parameters {text!r}: {exc}", 0)
    return VeroneseParams(d, caps)


def _ideal(args):
    return parse_ideal(args.ideal, args.nvars)


# --- check: property -> (I, args) -> (verdict, witness JSON, extra payload)

def _exchange(predicate):
    """A predicate returning (ok, ExchangeWitness or None)."""
    def check(I, args):
        ok, witness = predicate(I)
        return ok, witness.to_json() if witness else None, {}
    return check


def _by_degree(predicate):
    """A predicate returning (ok, first failing degree or None)."""
    def check(I, args):
        ok, j = predicate(I)
        return ok, None, {"failing_degree": j}
    return check


def _plain(predicate):
    return lambda I, args: (predicate(I), None, {})


def _homological(predicate):
    return lambda I, args: (predicate(I, args.char, args.budget), None, {})


def _certified(predicate):
    """True on a linear-quotients certificate, which implies a linear
    resolution; otherwise the predicate decides."""
    def check(I, args):
        ok = _certificate_betti(I, args.char, args.budget) is not None
        return ok or predicate(I, args.char, args.budget), None, {}
    return check


# property -> (its leaf reads --char and --budget, check)
CHECKS = {
    "polymatroidal": (False, _exchange(is_polymatroidal)),
    "matroidal": (False, _plain(is_matroidal)),
    "strong-exchange": (False, _exchange(has_strong_exchange)),
    "nonpure-exchange": (False, _exchange(has_nonpure_exchange)),
    "cw-polymatroidal": (False, _by_degree(is_componentwise_polymatroidal)),
    "cw-veronese": (False, _by_degree(is_componentwise_veronese)),
    "single-degree": (False, _plain(is_single_degree)),
    "linear-resolution": (True, _certified(has_linear_resolution)),
    "linear-relations": (True, _certified(has_linear_relations)),
    "cw-linear": (True, _homological(is_componentwise_linear)),
}


def _check(check):
    def handler(args):
        ok, witness, extra = check(_ideal(args), args)
        lines = [f"{args.property}: {str(ok).lower()}"]
        if witness and not ok:
            line = f"witness: u={witness['u']} v={witness['v']} i={witness['i']}"
            if witness["j"] is not None:
                line += f" j={witness['j']}"
            lines.append(line)
        if extra.get("failing_degree") is not None:
            lines.append(f"failing degree: {extra['failing_degree']}")
        payload = {"property": args.property, "result": ok, "witness": witness, **extra}
        return payload, lines, EXIT_TRUE if ok else EXIT_FALSE
    return handler


# --- the other leaves ------------------------------------------------------

def _ideal_result(operation):
    """The handler of a verb that prints the one ideal ``operation(I, args)``."""
    def handler(args):
        result = str(operation(_ideal(args), args))
        return {"ideal": result}, [result], EXIT_TRUE
    return handler


def _localize(args):
    I = _ideal(args)
    if args.ones is not None:
        C = [int(x) for x in args.ones.split(",") if x]
    else:
        keep = _variable_indices((int(x) for x in args.prime.split(",") if x), args.nvars)
        C = [i for i in range(1, args.nvars + 1) if i not in keep]
    result = str(localize(I, C))
    return {"ideal": result, "ones": sorted(C)}, [result], EXIT_TRUE


def _betti(args):
    table = betti_table(_ideal(args), args.char, args.budget)
    lines = [str(table), f"regularity {table.regularity}"]
    return {"betti": table.to_json(), "regularity": table.regularity}, lines, EXIT_TRUE


def _primes(ps) -> str:
    return "; ".join("{" + ",".join(map(str, p)) + "}" for p in ps)


def _ass(args):
    data = associated_primes(_ideal(args)).to_json()
    lines = [
        "associated primes: " + _primes(data["ass"]),
        "minimal primes:    " + _primes(data["minimal"]),
        f"height {data['height']}, embedded primes: {str(data['has_embedded']).lower()}",
    ]
    return data, lines, EXIT_TRUE


def _irrdecomp(args):
    comps = irreducible_decomposition(_ideal(args))
    line = " ∩ ".join(
        "(" + ", ".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in c.powers) + ")" for c in comps
    )
    return {"components": [c.to_json() for c in comps]}, [line], EXIT_TRUE


def _certificate(cert, header: str):
    lines = [header, *(f"  {v}  colon vars {sorted(step)}" for v, step in zip(cert.appended, cert.steps))]
    return {"certificate": cert.to_json()}, lines, EXIT_TRUE


def _lq_result(cert, failure: dict, line: str):
    """An lq mode's certificate, or when there is none the failure's payload and line."""
    if cert is None:
        return {"certificate": None, **failure}, [line], EXIT_FALSE
    return _certificate(cert, "linear quotients certificate:")


def _lq_check(args):
    base, order = parse_ideal(args.base, args.nvars), parse_generators(args.generators, args.nvars)
    cert, failed_at = check_lq_order(base, order)
    line = f"no linear quotients along the given order (fails at position {failed_at})"
    return _lq_result(cert, {"failed_at": failed_at}, line)


def _lq_find(args):
    base, gens = parse_ideal(args.base, args.nvars), parse_ideal(args.generators, args.nvars).gens
    return _lq_result(find_lq_order(base, gens, args.budget), {}, "no linear-quotients order exists")


def _lq_revlex(args):
    cert = revlex_lq(parse_ideal(args.generators, args.nvars), increasing=args.increasing)
    line = "reverse-lex order does not give linear quotients"
    return _lq_result(cert, {"increasing": args.increasing}, line)


def _extend_veronese(args):
    cert = extend_lq_veronese(_parse_params(args.from_params), _parse_params(args.to_params))
    return _certificate(cert, f"extension of {len(cert.appended)} generators verified")


def _equiv(args):
    record = verify_equivalences(_ideal(args), args.char)
    lines = [
        "conditions: " + " ".join(f"{k}={str(v).lower()}" for k, v in record.conditions.items()),
        f"violation: {str(record.violation).lower()}",
    ]
    return record.to_json(), lines, EXIT_VIOLATION if record.violation else EXIT_TRUE


def _scan(args):
    if args.samples is None:
        if args.seed is not None:
            raise ValueError("--seed is read only by a sampled scan, which --samples selects")
        sampling = {}
    else:
        sampling = {"mode": "sampled", "samples": args.samples, "seed": args.seed or 0}
    space = IdealSpace(args.nvars, args.maxdeg, args.maxgens, **sampling)
    report = scan_conjecture(space, args.char, args.budget)
    summary = report.summary
    lines = [
        f"scanned {summary['total']} ideals: {summary['agree']} agree, "
        f"{summary['reverse_candidates']} reverse candidates, "
        f"{summary['forward_violations']} forward violations, "
        f"{summary['skipped']} skipped"
    ]
    lines += [f"  {ce['status']}: {ce['ideal']}" for ce in summary["counterexamples"]]
    return report.to_json(), lines, EXIT_VIOLATION if summary["forward_violations"] else EXIT_TRUE


def _suite(args):
    report = example_suite(args.char)
    tag = {True: "experimental ", False: ""}
    lines = [f"{'pass' if it['passed'] else 'FAIL'} {tag[it['experimental']]}{it['name']}" for it in report.items]
    lines.append(f"{report.summary['passed']}/{report.summary['required']} required checks passed")
    return report.to_json(), lines, EXIT_TRUE if report.summary["all_passed"] else EXIT_VIOLATION


# --- the parser ------------------------------------------------------------

def _option(*names: str, **kw) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kw)
    return parent


def _budget(default: int, what: str) -> argparse.ArgumentParser:
    return _option("--budget", type=int, default=default, help=f"cap on {what} (default %(default)s)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    js = _option("--json", action="store_true", help="emit one JSON object")
    char = _option("--char", type=int, default=0, help="characteristic, 0 (default) or a prime below 2^64")
    nodes = _budget(
        DEFAULT_LATTICE_BUDGET,
        "tree nodes, one per multidegree; a linear-quotients certificate counts its generators",
    )
    base = _option("--base", default="", help="base ideal the generators extend (default zero)")
    increasing = _option("--increasing", action="store_true", help="process revlex increasing")
    nv = _option("-n", "--nvars", type=int, required=True, help="number of variables (x1..xn)")

    parser = argparse.ArgumentParser(
        prog="polymat",
        description="Exact computations with monomial ideals.",
    )
    parser.add_argument("--version", action="version", version=f"polymat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name, handler, options=(), *positionals):
        p = subparsers.add_parser(name, parents=[js, *options])
        p.set_defaults(handler=handler)
        for positional in positionals:
            p.add_argument(positional)
        return p

    properties = sub.add_parser("check", help="run a predicate on an ideal").add_subparsers(
        dest="property", required=True
    )
    for prop, (homological, check) in CHECKS.items():
        options = [char, nodes, nv] if homological else [nv]
        leaf(properties, prop, _check(check), options, "ideal")

    for verb, op in (("colon", colon), ("saturate", saturate)):
        by_monomial = _ideal_result(lambda I, a, op=op: op(I, parse_monomial(a.monomial, a.nvars)))
        leaf(sub, verb, by_monomial, [nv], "ideal", "monomial")

    group = leaf(sub, "localize", _localize, [nv], "ideal").add_mutually_exclusive_group(required=True)
    group.add_argument("--ones", help="comma list of variables substituted by 1")
    group.add_argument("--prime", help="comma list of the prime's variables (complement kept)")

    p = leaf(sub, "combine", _ideal_result(lambda I, a: combine(a.op, I, parse_ideal(a.other, a.nvars))), [nv])
    p.add_argument("op", choices=["sum", "product", "intersect"])
    p.add_argument("ideal")
    p.add_argument("other")

    p = leaf(sub, "power", _ideal_result(lambda I, a: power(I, a.k)), [nv], "ideal")
    p.add_argument("-k", type=int, required=True)
    p = leaf(sub, "component", _ideal_result(lambda I, a: component(I, a.j)), [nv], "ideal")
    p.add_argument("-j", type=int, required=True)

    for verb, handler, options in (
        ("betti", _betti, [char, nodes]),
        ("ass", _ass, []),
        ("irrdecomp", _irrdecomp, []),
        ("equiv", _equiv, [char]),
    ):
        leaf(sub, verb, handler, [*options, nv], "ideal")

    modes = sub.add_parser("lq").add_subparsers(dest="mode", required=True)
    for mode, handler, options in (
        ("check", _lq_check, [base]),
        ("find", _lq_find, [base, _budget(DEFAULT_SEARCH_CAP, "generators searched")]),
        ("revlex", _lq_revlex, [increasing]),
    ):
        p = leaf(modes, mode, handler, [*options, nv])
        p.add_argument("generators", help="ideal text; order is significant for 'check'")

    p = leaf(sub, "extend-veronese", _extend_veronese)
    p.add_argument("--from-params", required=True, metavar="D:A1,A2,...")
    p.add_argument("--to-params", required=True, metavar="D:B1,B2,...")

    p = leaf(sub, "scan", _scan, [char])
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.add_argument("--maxgens", type=int, required=True)
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ENUM_BUDGET,
        help="cap on enumerated subsets, or on samples x maxgens drawn generators (default %(default)s)",
    )
    p.add_argument("--samples", type=int, help="scan this many sampled ideals instead of all")
    p.add_argument("--seed", type=int, help="RNG seed of a sampled scan (default 0)")

    leaf(sub, "suite", _suite, [char])
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 on usage errors
        return int(exc.code or 0)

    try:
        payload, lines, code = args.handler(args)
    except IdealSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitExceeded as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps({"command": args.command, "exit_code": code, **payload}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
