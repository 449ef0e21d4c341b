"""The four workloads and their correctness checks.

Each workload turns ``--seed`` into plain data (exponent tuples, cap
vectors, command lines) in its constructor, and ``stream()`` yields an
endless closed-loop sequence of ``Call``s built from that data.  The
library only ever sees the generated inputs.  Reference values used by
the checks are computed here, independently of polymat, or come from
``query_reference.json`` (see ``record_reference.py``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

from harness import Call

HERE = Path(__file__).resolve().parent
QUERY_REFERENCE = HERE / "query_reference.json"


# ---------------------------------------------------------------------------
# independent enumerators (exponent tuples only, no polymat)
# ---------------------------------------------------------------------------

def monomials_up_to(n: int, maxdeg: int) -> list[tuple[int, ...]]:
    """Exponent vectors of degree 1..maxdeg, in (degree, lex) order."""
    out = [
        e
        for e in itertools.product(range(maxdeg + 1), repeat=n)
        if 1 <= sum(e) <= maxdeg
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def antichains(n: int, maxdeg: int, maxgens: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every divisibility antichain of 1..maxgens monomials of degree <= maxdeg."""
    pool = monomials_up_to(n, maxdeg)
    comparable = [
        {j for j, b in enumerate(pool) if j != i and (_divides(a, b) or _divides(b, a))}
        for i, a in enumerate(pool)
    ]

    def extend(chosen: tuple[int, ...], banned: frozenset[int], start: int):
        for k in range(start, len(pool)):
            if k in banned:
                continue
            picked = chosen + (k,)
            yield tuple(pool[i] for i in picked)
            if len(picked) < maxgens:
                yield from extend(picked, banned | comparable[k], k + 1)

    yield from extend((), frozenset(), 0)


@functools.lru_cache(maxsize=None)
def count_antichains(n: int, maxdeg: int, maxgens: int) -> int:
    return sum(1 for _ in antichains(n, maxdeg, maxgens))


def sample_gens(rng: random.Random, n: int, maxdeg: int, maxgens: int) -> list[tuple[int, ...]]:
    """Random generators drawn like the lab's sampled spaces."""
    gens = []
    for _ in range(rng.randint(1, maxgens)):
        exps = [0] * n
        for _ in range(rng.randint(1, maxdeg)):
            exps[rng.randrange(n)] += 1
        gens.append(tuple(exps))
    return gens


def capped_monomials(d: int, caps: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Degree-d exponent vectors with e_i <= caps[i]: G of a Veronese-type ideal."""
    if len(caps) == 1:
        return [(d,)] if d <= caps[0] else []
    out = []
    for e in range(min(d, caps[0]) + 1):
        out.extend((e,) + rest for rest in capped_monomials(d - e, caps[1:]))
    return out


def times_variables(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Generators of I*m for an ideal generated in one degree."""
    n = len(gens[0])
    return {tuple(e + (k == i) for k, e in enumerate(g)) for g in gens for i in range(n)}


def ideal_text(gens) -> str:
    terms = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(g) if e]
        terms.append("*".join(parts) or "1")
    return ", ".join(terms)


# ---------------------------------------------------------------------------
# scan: lab.scan_conjecture
# ---------------------------------------------------------------------------

# (nvars, maxdeg, maxgens).  The exhaustive space is kept to one call of
# about 2 s: a single call of (4, 3, 4), about 10 s on a 2-core Xeon, spans
# several swings of the machine's speed that no sample between calls can
# correct.
SCAN_EXHAUSTIVE = (4, 3, 3)
SCAN_SAMPLED = (5, 3, 5)
SCAN_CHUNK = 50  # ideals per sampled scan call


class Scan:
    """One exhaustive scan, then seeded sampled scans of SCAN_CHUNK ideals."""

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.seed = seed

    def stream(self) -> Iterator[Call]:
        IdealSpace = self.lib.lab.IdealSpace
        n, d, g = SCAN_EXHAUSTIVE
        yield self._call(IdealSpace(n, d, g), count_antichains(n, d, g))
        rng = random.Random(f"scan-{self.seed}")
        n, d, g = SCAN_SAMPLED
        while True:
            space = IdealSpace(
                n, d, g, mode="sampled", samples=SCAN_CHUNK, seed=rng.getrandbits(32)
            )
            yield self._call(space, SCAN_CHUNK)

    def _call(self, space, expected: int) -> Call:
        lab = self.lib.lab

        def check(report) -> int:
            s = report.summary
            if s["total"] != expected:
                return expected
            return s["forward_violations"] + s["reverse_candidates"] + s["skipped"]

        return Call(
            label=f"scan {space.to_json()}",
            n_items=expected,
            run=lambda: lab.scan_conjecture(space, 0),
            check=check,
        )


# ---------------------------------------------------------------------------
# equiv: lab.verify_equivalences
# ---------------------------------------------------------------------------

EQUIV_EXHAUSTIVE = (3, 3, 4)
EQUIV_SAMPLED = ((3, 3, 5), (4, 3, 5))  # the sampled spaces of the criterion-7 mix


class Equiv:
    """The exhaustive space in seeded order, each ideal followed by a
    sampled n=4 ideal; then sampled n=3 and n=4 ideals alternately."""

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.seed = seed
        self.exhaustive = list(antichains(*EQUIV_EXHAUSTIVE))
        random.Random(seed).shuffle(self.exhaustive)

    def stream(self) -> Iterator[Call]:
        rng = random.Random(f"equiv-{self.seed}")
        small, large = EQUIV_SAMPLED
        for gens in self.exhaustive:
            yield self._call(EQUIV_EXHAUSTIVE[0], gens)
            yield self._call(large[0], sample_gens(rng, *large))
        while True:
            yield self._call(small[0], sample_gens(rng, *small))
            yield self._call(large[0], sample_gens(rng, *large))

    def _call(self, n: int, gens) -> Call:
        ideal, lab = self.lib.ideal, self.lib.lab

        def run():
            I = ideal.MonomialIdeal(n, [ideal.Monomial(e) for e in gens])
            return lab.verify_equivalences(I, 0)

        return Call(
            label=f"equiv n={n} {ideal_text(gens)}",
            n_items=1,
            run=run,
            check=lambda record: int(record.violation),
        )


# ---------------------------------------------------------------------------
# veronese: quotients.extend_lq_veronese + verify
# ---------------------------------------------------------------------------

VERONESE_FAMILY = ((3, 2), (3, 3), (4, 2), (4, 3))  # (nvars, source degree)

# the componentwise-Veronese corpus of acceptance criterion 9
VERONESE_CORPUS = (
    ("x1, x2^3", 2),
    ("x1^2, x1*x2, x2^2, x1^3", 2),
    ("x1*x2, x1*x3, x2*x3, x1^3, x2^3, x3^3", 3),
    ("x1^3, x1^2*x2, x1*x2^2, x2^3", 2),
    ("x1, x2^2, x2*x3", 3),
)


def veronese_pairs(n: int, d: int) -> Iterator[tuple[int, tuple, tuple]]:
    """(d, caps of I, caps of J) for every admissible pair, as in criterion 9."""
    for caps_p in itertools.product(range(d + 2), repeat=n):
        if sum(caps_p) < d:
            continue
        lows = [min(a + 1, d + 1) for a in caps_p]
        for caps_q in itertools.product(*(range(lo, d + 2) for lo in lows)):
            yield d, caps_p, caps_q


def expected_appended(d: int, caps_p: tuple, caps_q: tuple) -> set[tuple[int, ...]]:
    """G(J) minus G(I*m)."""
    return set(capped_monomials(d + 1, caps_q)) - times_variables(capped_monomials(d, caps_p))


class Veronese:
    """The corpus once, then every criterion-9 pair with n=3..4, d=2..3
    in seeded order (repeating the shuffled pool if the run outlasts it)."""

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.pairs = [p for n, d in VERONESE_FAMILY for p in veronese_pairs(n, d)]
        random.Random(seed).shuffle(self.pairs)
        self.pool_passes = 0

    def stream(self) -> Iterator[Call]:
        for text, n in VERONESE_CORPUS:
            yield self._corpus_call(text, n)
        while True:
            self.pool_passes += 1
            for d, caps_p, caps_q in self.pairs:
                yield self._pair_call(d, caps_p, caps_q)

    def _pair_call(self, d: int, caps_p: tuple, caps_q: tuple) -> Call:
        lib = self.lib

        def run():
            p = lib.polymatroid.VeroneseParams(d, caps_p)
            q = lib.polymatroid.VeroneseParams(d + 1, caps_q)
            cert = lib.quotients.extend_lq_veronese(p, q)
            return cert, cert.verify()

        def check(result) -> int:
            cert, verified = result
            appended = [v.exps for v in cert.appended]
            ok = (
                verified
                and len(set(appended)) == len(appended)
                and set(appended) == expected_appended(d, caps_p, caps_q)
            )
            return 0 if ok else 1

        return Call(f"extend {d}:{caps_p} -> {d + 1}:{caps_q}", 1, run, check)

    def _corpus_call(self, text: str, n: int) -> Call:
        lib = self.lib

        def run():
            I = lib.ideal.parse_ideal(text, n)
            cert = lib.quotients.componentwise_veronese_lq(I)
            found = lib.quotients.find_lq_order(lib.ideal.MonomialIdeal(n), I.gens)
            return I, cert, cert is not None and cert.verify(), found

        def check(result) -> int:
            I, cert, verified, found = result
            ok = verified and set(cert.appended) == set(I.gens) and found is not None
            return 0 if ok else 1

        return Call(f"corpus {text}", 1, run, check)


# ---------------------------------------------------------------------------
# query: single-ideal commands through polymat.cli.run
# ---------------------------------------------------------------------------

# (family, parameters, prime for `betti --char`), in the order of a pass.
QUERY_TYPES = (
    ("power", (5, 3), 2),
    ("sqfree", (5, 2), 3),
    ("transversal", (6, ((1, 2, 3, 4), (3, 4, 5, 6)), (1, 2)), 5),
    ("veronese", (3, (2, 2, 1, 1)), 7),
    ("power", (4, 4), 3),
    ("veronese", (4, (3, 2, 2, 1)), 2),
    ("transversal", (6, ((1, 2, 3), (2, 4, 5), (5, 6)), (1, 1, 1)), 7),
    ("sqfree", (6, 3), 5),
    ("power", (6, 2), 7),
    ("veronese", (3, (2, 1, 1, 1, 1, 1)), 3),
    ("transversal", (4, ((1, 2, 3), (2, 3, 4)), (2, 2)), 2),
    ("power", (4, 2), 5),
    ("veronese", (4, (2, 2, 1, 1, 1, 1)), 11),
    ("transversal", (5, ((1, 2), (2, 3, 4), (1, 4, 5)), (1, 1, 1)), 3),
    ("sqfree", (7, 2), 2),
    ("veronese", (5, (3, 3, 2, 2)), 13),
)
QUERY_VARIANTS = 4  # relabelings per type whose ideal is not symmetric
QUERY_PER_PASS = 2  # relabelings of such a type in one pass
BETTI_ORACLE_MAX_GENS = 12


def _family_gens(family: str, params) -> list[tuple[int, ...]]:
    if family == "power":
        n, k = params
        return capped_monomials(k, (k,) * n)
    if family == "sqfree":
        n, d = params
        return capped_monomials(d, (1,) * n)
    if family == "veronese":
        d, caps = params
        return capped_monomials(d, caps)
    n, primes, exps = params  # transversal: product of P_i^{a_i}
    current = {(0,) * n}
    for prime, a in zip(primes, exps):
        for _ in range(a):
            current = {
                tuple(e + (k == i - 1) for k, e in enumerate(g)) for g in current for i in prime
            }
    return sorted(current)


def query_variants(index: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """(nvars, generators) of each relabeling of QUERY_TYPES[index]."""
    family, params, _ = QUERY_TYPES[index]
    base = _family_gens(family, params)
    n = len(base[0])
    rng = random.Random(f"query-variant-{index}")
    seen = {frozenset(base)}
    out = [(n, base)]
    for _ in range(200):
        if len(out) == QUERY_VARIANTS:
            break
        perm = list(range(n))
        rng.shuffle(perm)
        gens = [tuple(g[perm[k]] for k in range(n)) for g in base]
        if frozenset(gens) not in seen:
            seen.add(frozenset(gens))
            out.append((n, gens))
    return out


def query_commands(prime: int) -> list[list[str]]:
    return [
        ["betti"],
        ["betti", "--char", str(prime)],
        ["check", "linear-resolution"],
        ["check", "polymatroidal"],
        ["ass"],
        ["irrdecomp"],
        ["lq", "revlex"],
        ["equiv"],
    ]


def query_argv(command: list[str], n: int, gens) -> list[str]:
    return command + ["-n", str(n), "--json", ideal_text(gens)]


def output_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def run_cli(cli_run, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue()


@functools.lru_cache(maxsize=1)
def load_query_reference() -> dict:
    return json.loads(QUERY_REFERENCE.read_text())


class Query:
    """Passes over QUERY_TYPES running every command on each ideal; a pass
    holds each symmetric ideal once and QUERY_PER_PASS relabelings, in
    seeded order, of each other one.  Runs end at a pass boundary, so
    every run holds the same mix of commands and ideal sizes."""

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.variants = [query_variants(i) for i in range(len(QUERY_TYPES))]
        rng = random.Random(seed)
        self.order = []
        for vs in self.variants:
            order = list(range(len(vs)))
            rng.shuffle(order)
            self.order.append(order)
        self._oracle: dict = {}

    def stream(self) -> Iterator[Call]:
        for k in itertools.count():
            calls = []
            for j in range(QUERY_PER_PASS):
                for t, (_, _, prime) in enumerate(QUERY_TYPES):
                    order = self.order[t]
                    if j >= len(order):
                        continue  # a symmetric ideal has one form only
                    n, gens = self.variants[t][order[(QUERY_PER_PASS * k + j) % len(order)]]
                    for command in query_commands(prime):
                        calls.append(self._call(query_argv(command, n, gens), n, len(gens)))
            calls[-1].boundary = True
            yield from calls

    def _call(self, argv: list[str], n: int, ngens: int) -> Call:
        cli = self.lib.cli

        def check(result) -> int:
            code, stdout = result
            ref = load_query_reference().get(json.dumps(argv))
            ok = code == 0 and ref is not None and ref == {
                "exit": code,
                "sha256": output_digest(stdout),
            }
            if ok and argv[0] == "betti" and ngens <= BETTI_ORACLE_MAX_GENS:
                ok = self._betti_matches_oracle(argv, n, stdout)
            return 0 if ok else 1

        return Call(" ".join(argv), 1, lambda: run_cli(cli.run, argv), check, boundary=False)

    def _betti_matches_oracle(self, argv: list[str], n: int, stdout: str) -> bool:
        import oracles

        char = int(argv[argv.index("--char") + 1]) if "--char" in argv else 0
        table = {(e["i"], e["j"]): e["rank"] for e in json.loads(stdout)["betti"]}
        key = (argv[-1], char)
        if key not in self._oracle:
            self._oracle[key] = oracles.taylor_betti(self.lib.ideal.parse_ideal(argv[-1], n), char)
        return table == self._oracle[key]


WORKLOADS = {"scan": Scan, "equiv": Equiv, "veronese": Veronese, "query": Query}
