"""Measurement primitives: the closed-loop timer, the machine-speed probe,
the tail-percentile rule, run metadata and source line counts.

Nothing here imports polymat, so the pieces can be tested on their own.
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

# Highest first; the tail is the first of these with >= TAIL_MIN_BEYOND
# samples ranked above it.  The ladder is coarse so that runs of one
# workload, whose sample counts differ a little, report the same one.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

MODULES = ("ideal", "polymatroid", "resolution", "quotients", "primes", "lab", "cli")

# The machine's speed at running Python swings by tens of percent within
# seconds when other work shares the cores.  A fixed reference kernel is
# timed every PROBE_EVERY_S of measured work; each call's time is scaled
# by the kernel times around it to a machine on which the kernel takes
# REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.015
PROBE_EVERY_S = 0.1


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like polymat's inner loops: tuple
    building, sorting and divisibility scans over exponent vectors."""
    pool = [e for e in itertools.product(range(7), repeat=4) if sum(e) == 7]
    pool += [(a + 1, b, c, d) for a, b, c, d in pool]
    kept: list[tuple[int, ...]] = []
    for m in sorted(set(pool), key=lambda e: (sum(e), e)):
        if not any(all(a <= b for a, b in zip(k, m)) for k in kept):
            kept.append(m)
    return len(kept)


class SpeedProbe:
    """Times the reference kernel on demand.  ``scale(i)`` converts wall
    time measured between samples i and i+1 into time at the reference
    speed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = self.clock()
        reference_kernel()
        self.samples.append(self.clock() - t0)

    def scale(self, i: int) -> float:
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[i : i + 2])


@dataclass
class Call:
    """One request of the closed loop.

    ``run`` does the timed work and returns its result; ``check`` is
    called on that result outside the timing and returns how many of the
    call's ``n_items`` items came out wrong.  The loop may stop only after
    a call marked ``boundary``, so a run holds whole units of work.
    """

    label: str
    n_items: int
    run: Callable[[], object]
    check: Callable[[object], int]
    boundary: bool = True


@dataclass
class LoopResult:
    """Per call: wall time, item count and the speed sample taken before it.

    Compact arrays, so that the bookkeeping of a long run barely moves the
    process's peak memory.
    """

    call_s: array = field(default_factory=lambda: array("d"))
    call_items: array = field(default_factory=lambda: array("q"))
    call_probe: array = field(default_factory=lambda: array("q"))
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def calls(self) -> int:
        return len(self.call_s)

    @property
    def attempted(self) -> int:
        return sum(self.call_items)

    @property
    def busy_s(self) -> float:
        return sum(self.call_s)

    def scaled_call_s(self) -> list[float]:
        return [dt * self.probe.scale(k) for dt, k in zip(self.call_s, self.call_probe)]

    def item_ms(self, scaled: bool = True) -> list[float]:
        times = self.scaled_call_s() if scaled else self.call_s
        return [dt * 1000.0 / n for dt, n in zip(times, self.call_items)]


def closed_loop(
    stream: Iterable[Call],
    seconds: float,
    max_calls: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> LoopResult:
    """Run calls one after another until their summed time, scaled to the
    reference speed by the latest speed sample, reaches ``seconds`` at a
    unit boundary (or, when ``max_calls`` is given, for exactly that many
    calls).

    Each call's time is one sample per item: the call's time divided by
    its item count.  Checks and speed samples run between calls and are
    not timed; a sample is taken every PROBE_EVERY_S of measured time and
    at both ends.
    """
    out = LoopResult(probe=SpeedProbe(clock))
    out.probe.sample()
    since_probe = 0.0
    scaled_busy = 0.0
    for call in stream:
        if max_calls is not None and out.calls >= max_calls:
            break
        t0 = clock()
        try:
            result = call.run()
        except Exception as exc:  # a raising item is a failed item, not a crash
            dt = clock() - t0
            bad = call.n_items
            out.errors.append(f"{call.label}: {type(exc).__name__}: {exc}")
        else:
            dt = clock() - t0
            bad = call.check(result)
            if bad:
                out.errors.append(f"{call.label}: {bad} item(s) failed the check")
        out.call_s.append(dt)
        out.call_items.append(call.n_items)
        out.call_probe.append(len(out.probe.samples) - 1)
        out.failed += min(bad, call.n_items)
        scaled_busy += dt * REFERENCE_KERNEL_S / out.probe.samples[-1]
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            out.probe.sample()
            since_probe = 0.0
        if max_calls is None and scaled_busy >= seconds and call.boundary:
            break
    if since_probe or len(out.probe.samples) == 1:
        out.probe.sample()
    return out


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(samples: list[float], p: float) -> float:
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples ranked above it.

    When even the median has fewer samples beyond it, the median is
    reported with its actual count beyond.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = n - _rank(p, n)
        if beyond >= TAIL_MIN_BEYOND or p == TAIL_PERCENTILES[-1]:
            return p, ordered[n - beyond - 1], beyond
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines(path: Path) -> int:
    """Non-blank lines that are not comments."""
    count = 0
    for line in path.read_text().splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            count += 1
    return count


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def run_metadata(root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }
