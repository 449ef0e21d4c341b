"""Command-line front end.

Every verb maps to one library operation or harness.  Output is plain
text by default or a single JSON object with --json.  Exit codes:
0 = predicate true / operation succeeded, 1 = predicate false,
2 = usage or parse error, 3 = resource budget exceeded,
4 = theorem violation detected by a harness.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .ideal import (
    IdealSyntaxError,
    ResourceLimitExceeded,
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
from .lab import IdealSpace, example_suite, scan_conjecture, verify_equivalences
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
    check_lq_order,
    extend_lq_veronese,
    find_lq_order,
    revlex_lq,
)
from .resolution import (
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
    """Veronese parameters as 'd:a1,a2,...' (';' also accepted)."""
    sep = ":" if ":" in text else ";"
    try:
        head, tail = text.split(sep, 1)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--char", type=int, default=0, help="field characteristic (0 or a prime below 2^64)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed for sampled scans")
    common.add_argument("--budget", type=int, default=None, help="resource budget override")
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    nv = argparse.ArgumentParser(add_help=False)
    nv.add_argument("-n", "--nvars", type=int, required=True, help="number of variables (x1..xn)")

    parser = argparse.ArgumentParser(
        prog="polymat",
        description="Exact computations with monomial ideals.",
    )
    parser.add_argument("--version", action="version", version=f"polymat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, nv], help="run a predicate on an ideal")
    p.add_argument(
        "property",
        choices=[
            "polymatroidal",
            "matroidal",
            "strong-exchange",
            "nonpure-exchange",
            "cw-polymatroidal",
            "cw-veronese",
            "single-degree",
            "linear-resolution",
            "linear-relations",
            "cw-linear",
        ],
    )
    p.add_argument("ideal")

    for verb, extra in (("colon", "monomial"), ("saturate", "monomial")):
        p = sub.add_parser(verb, parents=[common, nv])
        p.add_argument("ideal")
        p.add_argument(extra)

    p = sub.add_parser("localize", parents=[common, nv])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ones", help="comma list of variables substituted by 1")
    group.add_argument("--prime", help="comma list of the prime's variables (complement kept)")
    p.add_argument("ideal")

    p = sub.add_parser("combine", parents=[common, nv])
    p.add_argument("op", choices=["sum", "product", "intersect"])
    p.add_argument("ideal")
    p.add_argument("other")

    p = sub.add_parser("power", parents=[common, nv])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("ideal")

    p = sub.add_parser("component", parents=[common, nv])
    p.add_argument("-j", type=int, required=True)
    p.add_argument("ideal")

    for verb in ("betti", "ass", "irrdecomp", "equiv"):
        p = sub.add_parser(verb, parents=[common, nv])
        p.add_argument("ideal")

    p = sub.add_parser("lq", parents=[common, nv])
    p.add_argument("mode", choices=["check", "find", "revlex"])
    p.add_argument("--base", default="", help="base ideal extended by the generators")
    p.add_argument("--increasing", action="store_true", help="process revlex increasing")
    p.add_argument("generators", help="ideal text; order is significant for 'check'")

    p = sub.add_parser("extend-veronese", parents=[common])
    p.add_argument("--from-params", required=True, metavar="D:A1,A2,...")
    p.add_argument("--to-params", required=True, metavar="D:B1,B2,...")

    p = sub.add_parser("scan", parents=[common])
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.add_argument("--maxgens", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, default=0)

    sub.add_parser("suite", parents=[common])
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
        ok = has_linear_resolution(I, args.char, **_budget_kw(args))
    elif prop == "linear-relations":
        ok = has_linear_relations(I, args.char, **_budget_kw(args))
    else:  # cw-linear
        ok = is_componentwise_linear(I, args.char, **_budget_kw(args))

    code = EXIT_TRUE if ok else EXIT_FALSE
    lines = [f"{prop}: {str(ok).lower()}"]
    if witness and not ok:
        lines.append(f"witness: u={witness['u']} v={witness['v']} i={witness['i']}")
    if detail.get("failing_degree") is not None:
        lines.append(f"failing degree: {detail['failing_degree']}")
    return _emit(args, {"property": prop, "result": ok, "witness": witness, **detail}, lines, code)


def _budget_kw(args) -> dict:
    return {"budget": args.budget} if args.budget else {}


def _run_lq(args) -> int:
    n = args.nvars
    base = parse_ideal(args.base, n)
    if args.mode == "check":
        order = parse_generators(args.generators, n)
        cert, failed_at = check_lq_order(base, order)
        if cert is None:
            return _emit(
                args,
                {"certificate": None, "failed_at": failed_at},
                [f"no linear quotients along the given order (fails at position {failed_at})"],
                EXIT_FALSE,
            )
    elif args.mode == "find":
        gens = parse_ideal(args.generators, n).gens
        kw = {"max_gens": args.budget} if args.budget else {}
        cert = find_lq_order(base, gens, **kw)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        u = parse_monomial(getattr(args, "monomial"), args.nvars)
        result = colon(I, u) if cmd == "colon" else saturate(I, u)
        return _emit(args, {"ideal": str(result)}, [str(result)], EXIT_TRUE)

    if cmd == "localize":
        I = parse_ideal(args.ideal, args.nvars)
        if args.ones is not None:
            C = [int(x) for x in args.ones.split(",") if x]
        else:
            keep = {int(x) for x in args.prime.split(",") if x}
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
        table = betti_table(I, args.char, **_budget_kw(args))
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
        space = IdealSpace(
            nvars=args.nvars,
            maxdeg=args.maxdeg,
            maxgens=args.maxgens,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
        )
        kw = {"enum_budget": args.budget} if args.budget else {}
        report = scan_conjecture(space, args.char, **kw)
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
        if args.json:
            print(json.dumps({"command": "scan", "exit_code": code, **report.to_json()}, sort_keys=True))
            return code
        for line in lines:
            print(line)
        return code

    if cmd == "suite":
        report = example_suite(args.char)
        code = EXIT_TRUE if report.summary["all_passed"] else EXIT_VIOLATION
        if args.json:
            print(json.dumps({"command": "suite", "exit_code": code, **report.to_json()}, sort_keys=True))
            return code
        for item in report.items:
            tag = "experimental " if item["experimental"] else ""
            status = "pass" if item["passed"] else "FAIL"
            print(f"{status:4s} {tag}{item['name']}")
        print(
            f"{report.summary['passed']}/{report.summary['required']} required checks passed"
        )
        return code

    raise AssertionError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
