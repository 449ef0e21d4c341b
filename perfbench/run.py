"""polymat benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process, one thread, one client: every call starts after the previous
one has returned.  The loop runs until the summed time of the calls,
scaled to the reference speed (see harness.py), reaches ``--seconds``;
checks run between calls, outside that time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
untraced workload in a child process, then replays exactly the same calls
here with every public polymat function wrapped (see tracing.py), restores
the originals, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import MODULES  # noqa: E402

SETUP_REPS = 9
GOLDEN_LOCALIZE_REPS = 2001
GOLDEN_GATE_US = 1000.0  # acceptance criterion 1 allows 1 ms

# per-layer functions named in the benchmark definition
LAYER_FUNCTIONS = (
    "ideal.colon",
    "ideal.localize",
    "ideal.power",
    "ideal.component",
    "polymatroid.is_polymatroidal",
    "polymatroid.veronese",
    "polymatroid.detect_veronese",
    "resolution.has_linear_resolution",
    "resolution.betti_table",
    "resolution.lcm_lattice",
    "resolution.upper_koszul_complex",
    "resolution.SimplicialComplex.reduced_homology_ranks",
    "resolution.matrix_rank",
    "quotients.check_lq_order",
    "quotients.find_lq_order",
    "quotients.revlex_lq",
    "quotients.extend_lq_veronese",
    "quotients.LinearQuotientsCertificate.verify",
    "primes.irreducible_decomposition",
    "primes.associated_primes",
    "lab.space_ideals",
    "lab.verify_equivalences",
    "lab.scan_conjecture",
    "cli.run",
)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def load_library() -> SimpleNamespace:
    """Import polymat afresh (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "polymat" or n.startswith("polymat.")]:
        del sys.modules[name]
    importlib.import_module("polymat.cli")
    return SimpleNamespace(**{m: sys.modules[f"polymat.{m}"] for m in MODULES})


def setup(workload: str, seed: int):
    """Import polymat and build the workload's inputs SETUP_REPS times;
    returns the last library and workload, the median set-up time at the
    reference speed, and the raw wall times."""
    from workloads import WORKLOADS

    probe = harness.SpeedProbe()
    probe.sample()
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = load_library()
        wl = WORKLOADS[workload](lib, seed)
        times.append(time.perf_counter() - t0)
        probe.sample()
    sys.modules.pop("oracles", None)  # rebind the oracle to the live library
    scaled = [t * probe.scale(k) for k, t in enumerate(times)]
    return lib, wl, statistics.median(scaled), times


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict, meta: dict) -> None:
    for name, m in metrics.items():
        print(f"{meta['workload']:9s} {name:58s} {m['value']:.6g} {m['unit']}")
    for line in meta.get("errors", [])[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def run_untraced(args) -> int:
    lib, wl, setup_s, setup_times = setup(args.workload, args.seed)
    loop = harness.closed_loop(wl.stream(), args.seconds)
    peak_rss_mb = harness.peak_rss_mb()
    item_ms = loop.item_ms()
    pct, tail, beyond = harness.tail_percentile(item_ms)
    wall_ms = loop.item_ms(scaled=False)
    metrics = {
        "throughput_per_s": _metric(loop.attempted / sum(loop.scaled_call_s()), "1/s"),
        "item_p50_ms": _metric(harness.percentile(item_ms, 50.0), "ms"),
        "item_tail_ms": _metric(tail, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "success_frac": _metric(1.0 - loop.failed / loop.attempted, "frac"),
    }
    meta = _meta(args, loop, wl)
    meta.update(
        {
            "failed_frac": loop.failed / loop.attempted,
            "item_tail_percentile": pct,
            "item_tail_samples_beyond": beyond,
            "item_samples": len(item_ms),
            "setup_s_reps_wall": setup_times,
            "wall_throughput_per_s": loop.attempted / loop.busy_s,
            "wall_item_p50_ms": harness.percentile(wall_ms, 50.0),
            "wall_item_tail_ms": harness.percentile(wall_ms, pct),
        }
    )
    correct = loop.failed == 0
    print(f"{args.workload:9s} {'failed_frac (metadata)':58s} {meta['failed_frac']:.6g} frac")
    _print_result(correct, loop.attempted, loop.failed, metrics, meta)
    return 0 if correct else 1


def _meta(args, loop, wl) -> dict:
    meta = harness.run_metadata(ROOT)
    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "calls": loop.calls,
            "busy_s": loop.busy_s,
            "scaled_busy_s": sum(loop.scaled_call_s()),
            "speed_probes": len(loop.probe.samples),
            "reference_kernel_s": harness.REFERENCE_KERNEL_S,
            "errors": loop.errors,
        }
    )
    if hasattr(wl, "pool_passes"):
        meta["pool_passes"] = wl.pool_passes
    return meta


def _untraced_child(args) -> dict:
    """Run the same workload untraced in a child process; returns its
    metadata (calls made and their busy time)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced run exited {proc.returncode}")
    return json.loads(lines[-2])["meta"]


def _layer_hooks(tracer) -> None:
    seen: set[int] = set()

    def linear_resolution(t, args, kwargs, result):
        char = args[1] if len(args) > 1 else kwargs.get("char", 0)
        key = hash((args[0], char))
        if key in seen:
            t.count("resolution.has_linear_resolution.repeats")
        seen.add(key)

    def lattice(t, args, kwargs, result):
        t.count("resolution.lcm_lattice.points", len(result))

    def rank(t, args, kwargs, result):
        rows = args[0]
        t.count("resolution.matrix_rank.cells", len(rows) * (len(rows[0]) if rows else 0))

    def lq_order(t, args, kwargs, result):
        cert, failed_at = result
        t.count("quotients.check_lq_order.steps", len(cert.appended) if cert else failed_at + 1)

    def revlex(t, args, kwargs, result):
        t.count("quotients.revlex_lq.ok", result is not None)

    tracer.hooks.update(
        {
            "resolution.has_linear_resolution": linear_resolution,
            "resolution.lcm_lattice": lattice,
            "resolution.matrix_rank": rank,
            "quotients.check_lq_order": lq_order,
            "quotients.revlex_lq": revlex,
        }
    )


def golden_localize_us(lib) -> float:
    """Median wall time of localize on the criterion-1 input, untraced."""
    I = lib.ideal.parse_ideal("x1*x2*x3, x2*x3*x4, x3*x5*x6", 6)
    localize = lib.ideal.localize
    samples = []
    for _ in range(GOLDEN_LOCALIZE_REPS):
        t0 = time.perf_counter()
        localize(I, [4])
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def run_traced(args) -> int:
    from tracing import Tracer, leftover_wrappers

    baseline = _untraced_child(args)
    lib, wl, _, _ = setup(args.workload, args.seed)
    tracer = Tracer()
    _layer_hooks(tracer)
    traced_names = tracer.install()
    try:
        loop = harness.closed_loop(wl.stream(), args.seconds, max_calls=baseline["calls"])
    finally:
        tracer.uninstall()
    leftovers = leftover_wrappers()

    stats = tracer.stats
    counts = tracer.counts
    metrics: dict[str, dict] = {}
    absent = [f for f in LAYER_FUNCTIONS if f not in traced_names]
    for fn in LAYER_FUNCTIONS:
        calls, _, self_s, _ = stats.get(fn, (0, 0.0, 0.0, 0))
        metrics[f"{fn}.calls"] = _metric(calls, "count")
        metrics[f"{fn}.self_s"] = _metric(self_s, "s")

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    lin_calls = stats.get("resolution.has_linear_resolution", (0,))[0]
    revlex_calls = stats.get("quotients.revlex_lq", (0,))[0]
    enumerated = stats.get("lab.space_ideals", (0, 0, 0, 0))[3]
    golden_us = golden_localize_us(lib)
    covered = loop.attempted if args.workload == "scan" else 0
    metrics.update(
        {
            "ideal.capped_divisors.yielded": _metric(
                stats.get("ideal.capped_divisors", (0, 0, 0, 0))[3], "count"
            ),
            "ideal.localize.golden_p50_us": _metric(golden_us, "us"),
            "ideal.localize.golden_gate_frac": _metric(golden_us / GOLDEN_GATE_US, "frac"),
            "resolution.has_linear_resolution.repeat_frac": _metric(
                frac(counts.get("resolution.has_linear_resolution.repeats", 0), lin_calls), "frac"
            ),
            "resolution.lcm_lattice.points": _metric(
                counts.get("resolution.lcm_lattice.points", 0), "count"
            ),
            "resolution.matrix_rank.cells": _metric(
                counts.get("resolution.matrix_rank.cells", 0), "count"
            ),
            "quotients.check_lq_order.steps": _metric(
                counts.get("quotients.check_lq_order.steps", 0), "count"
            ),
            "quotients.revlex_lq.ok_frac": _metric(
                frac(counts.get("quotients.revlex_lq.ok", 0), revlex_calls), "frac"
            ),
            "lab.scan.covered_per_enumerated": _metric(frac(covered, enumerated), "ratio"),
        }
    )
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = _metric(
            sum(st[2] for name, st in stats.items() if name.startswith(mod + ".")), "s"
        )
    for mod in MODULES:
        metrics[f"{mod}.src_lines"] = _metric(
            harness.src_lines(ROOT / "src" / "polymat" / f"{mod}.py"), "lines"
        )
    traced_s = sum(loop.scaled_call_s())
    metrics["trace_overhead_frac"] = _metric(traced_s / baseline["scaled_busy_s"] - 1.0, "frac")
    metrics["failed_frac"] = _metric(frac(loop.failed, loop.attempted), "frac")

    meta = _meta(args, loop, wl)
    meta.update(
        {
            "untraced_scaled_busy_s": baseline["scaled_busy_s"],
            "absent_functions": absent,
            "wrappers_left": leftovers,
            "traced_functions": len(traced_names),
        }
    )
    if leftovers:
        meta["errors"].append(f"wrappers left installed: {leftovers}")
    correct = loop.failed == 0 and not leftovers and loop.calls == baseline["calls"]
    _print_result(correct, loop.attempted, loop.failed, metrics, meta)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if not lines:
            raise RuntimeError(f"workload {name} printed nothing (exit {proc.returncode})")
        results[name] = (proc.returncode, json.loads(lines[-1]))
    metrics = {
        f"{name}.{key}": value
        for name, (_, res) in results.items()
        for key, value in res["metrics"].items()
    }
    correct = all(code == 0 and res["correct"] for code, res in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(res["attempted"] for _, res in results.values()),
                "failed": sum(res["failed"] for _, res in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    choices = ["scan", "equiv", "veronese", "query", "all"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=choices)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "polymat" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        print(f"polymat sources not found under {ROOT}", file=sys.stderr)
        return 2
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
