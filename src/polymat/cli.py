"""Command-line front end.

Every verb maps to one library operation or harness.  Output is plain
text by default or a single JSON object with --json.  Exit codes:
0 = predicate true / operation succeeded, 1 = predicate false,
2 = usage or parse error, 3 = resource budget exceeded,
4 = theorem violation detected by a harness.

The parser alone scopes the options: each leaf command (a verb, or a verb
and its mode) declares the options it reads, with their defaults.  It is
built on the first ``run`` and kept for the process.
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
from .quotients import (
    DEFAULT_SEARCH_CAP,
    check_lq_order,
    extend_lq_veronese,
    find_lq_order,
    revlex_lq,
)
from .resolution import (
    DEFAULT_LATTICE_BUDGET,
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


def _emit(args, payload: dict, text_lines: list[str], code: int) -> int:
    if args.json:
        payload = {"command": args.command, "exit_code": code, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return code


def _option(*names: str, **kw) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kw)
    return parent


def _budget(default: int, what: str) -> argparse.ArgumentParser:
    return _option("--budget", type=int, default=default, help=f"cap on {what} (default %(default)s)")


HOMOLOGICAL = ("linear-resolution", "linear-relations", "cw-linear")
CHECK_PROPERTIES = (
    "polymatroidal", "matroidal", "strong-exchange", "nonpure-exchange",
    "cw-polymatroidal", "cw-veronese", "single-degree", *HOMOLOGICAL,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    js = _option("--json", action="store_true", help="emit one JSON object")
    char = _option("--char", type=int, default=0, help="characteristic, 0 (default) or a prime below 2^64")
    lattice = _budget(DEFAULT_LATTICE_BUDGET, "lattice points")
    base = _option("--base", default="", help="base ideal the generators extend (default zero)")
    increasing = _option("--increasing", action="store_true", help="process revlex increasing")
    nv = _option("-n", "--nvars", type=int, required=True, help="number of variables (x1..xn)")

    parser = argparse.ArgumentParser(
        prog="polymat",
        description="Exact computations with monomial ideals.",
    )
    parser.add_argument("--version", action="version", version=f"polymat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a predicate on an ideal")
    properties = check.add_subparsers(dest="property", required=True)
    for prop in CHECK_PROPERTIES:
        options = [char, lattice] if prop in HOMOLOGICAL else []
        properties.add_parser(prop, parents=[js, *options, nv]).add_argument("ideal")

    for verb in ("colon", "saturate"):
        p = sub.add_parser(verb, parents=[js, nv])
        p.add_argument("ideal")
        p.add_argument("monomial")

    p = sub.add_parser("localize", parents=[js, nv])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ones", help="comma list of variables substituted by 1")
    group.add_argument("--prime", help="comma list of the prime's variables (complement kept)")
    p.add_argument("ideal")

    p = sub.add_parser("combine", parents=[js, nv])
    p.add_argument("op", choices=["sum", "product", "intersect"])
    p.add_argument("ideal")
    p.add_argument("other")

    p = sub.add_parser("power", parents=[js, nv])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("ideal")

    p = sub.add_parser("component", parents=[js, nv])
    p.add_argument("-j", type=int, required=True)
    p.add_argument("ideal")

    for verb, options in (("betti", [char, lattice]), ("ass", []), ("irrdecomp", []), ("equiv", [char])):
        p = sub.add_parser(verb, parents=[js, *options, nv])
        p.add_argument("ideal")

    modes = sub.add_parser("lq").add_subparsers(dest="mode", required=True)
    for mode, options in (
        ("check", [base]),
        ("find", [base, _budget(DEFAULT_SEARCH_CAP, "generators searched")]),
        ("revlex", [increasing]),
    ):
        p = modes.add_parser(mode, parents=[js, *options, nv])
        p.add_argument("generators", help="ideal text; order is significant for 'check'")

    p = sub.add_parser("extend-veronese", parents=[js])
    p.add_argument("--from-params", required=True, metavar="D:A1,A2,...")
    p.add_argument("--to-params", required=True, metavar="D:B1,B2,...")

    p = sub.add_parser("scan", parents=[js, char])
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.add_argument("--maxgens", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--budget", type=int, default=DEFAULT_ENUM_BUDGET, help="cap on enumerated subsets (default %(default)s)"
    )
    group.add_argument("--samples", type=int, help="scan this many sampled ideals instead of all")
    p.add_argument("--seed", type=int, help="RNG seed of a sampled scan (default 0)")

    sub.add_parser("suite", parents=[js, char])
    return parser


def _predicate(args) -> int:
    I = parse_ideal(args.ideal, args.nvars)
    witness: dict | None = None
    detail: dict = {}
    prop = args.property
    if prop == "polymatroidal":
        ok, wit = is_polymatroidal(I)
        witness = wit.to_json() if wit else None
    elif prop == "matroidal":
        ok = is_matroidal(I)
    elif prop == "strong-exchange":
        ok, wit = has_strong_exchange(I)
        witness = wit.to_json() if wit else None
    elif prop == "nonpure-exchange":
        ok, wit = has_nonpure_exchange(I)
        witness = wit.to_json() if wit else None
    elif prop == "cw-polymatroidal":
        ok, j = is_componentwise_polymatroidal(I)
        detail = {"failing_degree": j}
    elif prop == "cw-veronese":
        ok, j = is_componentwise_veronese(I)
        detail = {"failing_degree": j}
    elif prop == "single-degree":
        ok = is_single_degree(I)
    elif prop == "linear-resolution":
        ok = has_linear_resolution(I, args.char, args.budget)
    elif prop == "linear-relations":
        ok = has_linear_relations(I, args.char, args.budget)
    else:  # cw-linear
        ok = is_componentwise_linear(I, args.char, args.budget)

    code = EXIT_TRUE if ok else EXIT_FALSE
    lines = [f"{prop}: {str(ok).lower()}"]
    if witness and not ok:
        line = f"witness: u={witness['u']} v={witness['v']} i={witness['i']}"
        if witness["j"] is not None:
            line += f" j={witness['j']}"
        lines.append(line)
    if detail.get("failing_degree") is not None:
        lines.append(f"failing degree: {detail['failing_degree']}")
    return _emit(args, {"property": prop, "result": ok, "witness": witness, **detail}, lines, code)


def _run_lq(args) -> int:
    n = args.nvars
    if args.mode == "check":
        base, order = parse_ideal(args.base, n), parse_generators(args.generators, n)
        cert, failed_at = check_lq_order(base, order)
        if cert is None:
            return _emit(
                args,
                {"certificate": None, "failed_at": failed_at},
                [f"no linear quotients along the given order (fails at position {failed_at})"],
                EXIT_FALSE,
            )
    elif args.mode == "find":
        base, gens = parse_ideal(args.base, n), parse_ideal(args.generators, n).gens
        cert = find_lq_order(base, gens, args.budget)
        if cert is None:
            return _emit(
                args,
                {"certificate": None},
                ["no linear-quotients order exists"],
                EXIT_FALSE,
            )
    else:  # revlex
        I = parse_ideal(args.generators, n)
        cert = revlex_lq(I, increasing=args.increasing)
        if cert is None:
            return _emit(
                args,
                {"certificate": None, "increasing": args.increasing},
                ["reverse-lex order does not give linear quotients"],
                EXIT_FALSE,
            )
    lines = ["linear quotients certificate:"]
    for v, step in zip(cert.appended, cert.steps):
        lines.append(f"  {v}  colon vars {sorted(step)}")
    return _emit(args, {"certificate": cert.to_json()}, lines, EXIT_TRUE)


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 on usage errors
        return int(exc.code or 0)

    try:
        return _dispatch(args)
    except IdealSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitExceeded as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "check":
        return _predicate(args)

    if cmd in ("colon", "saturate"):
        I = parse_ideal(args.ideal, args.nvars)
        u = parse_monomial(args.monomial, args.nvars)
        result = colon(I, u) if cmd == "colon" else saturate(I, u)
        return _emit(args, {"ideal": str(result)}, [str(result)], EXIT_TRUE)

    if cmd == "localize":
        I = parse_ideal(args.ideal, args.nvars)
        if args.ones is not None:
            C = [int(x) for x in args.ones.split(",") if x]
        else:
            keep = _variable_indices((int(x) for x in args.prime.split(",") if x), args.nvars)
            C = [i for i in range(1, args.nvars + 1) if i not in keep]
        result = localize(I, C)
        return _emit(
            args, {"ideal": str(result), "ones": sorted(C)}, [str(result)], EXIT_TRUE
        )

    if cmd == "combine":
        I = parse_ideal(args.ideal, args.nvars)
        J = parse_ideal(args.other, args.nvars)
        result = combine(args.op, I, J)
        return _emit(args, {"ideal": str(result)}, [str(result)], EXIT_TRUE)

    if cmd == "power":
        result = power(parse_ideal(args.ideal, args.nvars), args.k)
        return _emit(args, {"ideal": str(result)}, [str(result)], EXIT_TRUE)

    if cmd == "component":
        result = component(parse_ideal(args.ideal, args.nvars), args.j)
        return _emit(args, {"ideal": str(result)}, [str(result)], EXIT_TRUE)

    if cmd == "betti":
        I = parse_ideal(args.ideal, args.nvars)
        table = betti_table(I, args.char, args.budget)
        lines = [str(table), f"regularity {table.regularity}"]
        return _emit(
            args,
            {"betti": table.to_json(), "regularity": table.regularity},
            lines,
            EXIT_TRUE,
        )

    if cmd == "ass":
        result = associated_primes(parse_ideal(args.ideal, args.nvars))
        data = result.to_json()
        lines = [
            "associated primes: " + "; ".join("{" + ",".join(map(str, p)) + "}" for p in data["ass"]),
            "minimal primes:    " + "; ".join("{" + ",".join(map(str, p)) + "}" for p in data["minimal"]),
            f"height {data['height']}, embedded primes: {str(data['has_embedded']).lower()}",
        ]
        return _emit(args, data, lines, EXIT_TRUE)

    if cmd == "irrdecomp":
        comps = irreducible_decomposition(parse_ideal(args.ideal, args.nvars))
        data = [c.to_json() for c in comps]
        lines = [
            " ∩ ".join(
                "(" + ", ".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in c.powers) + ")"
                for c in comps
            )
        ]
        return _emit(args, {"components": data}, lines, EXIT_TRUE)

    if cmd == "lq":
        return _run_lq(args)

    if cmd == "extend-veronese":
        p = _parse_params(args.from_params)
        q = _parse_params(args.to_params)
        cert = extend_lq_veronese(p, q)
        lines = [f"extension of {len(cert.appended)} generators verified"]
        for v, step in zip(cert.appended, cert.steps):
            lines.append(f"  {v}  colon vars {sorted(step)}")
        return _emit(args, {"certificate": cert.to_json()}, lines, EXIT_TRUE)

    if cmd == "equiv":
        record = verify_equivalences(parse_ideal(args.ideal, args.nvars), args.char)
        data = record.to_json()
        lines = [
            "conditions: " + " ".join(f"{k}={str(v).lower()}" for k, v in record.conditions.items()),
            f"violation: {str(record.violation).lower()}",
        ]
        code = EXIT_VIOLATION if record.violation else EXIT_TRUE
        return _emit(args, data, lines, code)

    if cmd == "scan":
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
        for ce in summary["counterexamples"]:
            lines.append(f"  {ce['status']}: {ce['ideal']}")
        code = EXIT_VIOLATION if summary["forward_violations"] else EXIT_TRUE
        return _emit(args, report.to_json(), lines, code)

    if cmd == "suite":
        report = example_suite(args.char)
        code = EXIT_TRUE if report.summary["all_passed"] else EXIT_VIOLATION
        lines = []
        for item in report.items:
            tag = "experimental " if item["experimental"] else ""
            status = "pass" if item["passed"] else "FAIL"
            lines.append(f"{status} {tag}{item['name']}")
        lines.append(
            f"{report.summary['passed']}/{report.summary['required']} required checks passed"
        )
        return _emit(args, report.to_json(), lines, code)

    raise AssertionError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
