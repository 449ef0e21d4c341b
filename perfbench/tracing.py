"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every public function of the seven polymat
modules (and two methods) with a wrapper that opens a span around the
call; ``uninstall`` puts every original back.  A span's self time is its
duration minus the time of the spans it directly encloses.  Spans are
folded into per-name totals as they close, so memory stays flat however
many calls a run makes.

Functions that return an iterator (the enumeration helpers) get their
iterator wrapped too: each ``next`` is a span under the function's name,
so lazily produced work is charged to the function that produces it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections.abc import Iterator
from typing import Callable

from harness import MODULES

WRAPPED_MARK = "__perfbench_traced__"

# Methods traced in addition to the public module-level functions.
METHODS = (
    ("resolution", "SimplicialComplex", "reduced_homology_ranks"),
    ("quotients", "LinearQuotientsCertificate", "verify"),
)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # name -> [calls, total_s, self_s, yielded]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.hooks: dict[str, Callable] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _close(
        self, name: str, frame: list[float], dur: float, calls: int, yields: int
    ) -> None:
        self._stack.pop()
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += calls
        st[3] += yields
        st[1] += dur
        st[2] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, clock() - t0, 1, 0)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if isinstance(result, Iterator):
                return _TracedIterator(tracer, name, result)
            return result

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- install / uninstall ---------------------------------------------

    def install(self) -> list[str]:
        """Wrap the targets everywhere polymat refers to them; returns
        the traced names, e.g. ``ideal.colon``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _polymat_modules()
        targets: dict[int, tuple[str, object]] = {}
        for short in MODULES:
            mod = sys.modules[f"polymat.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self.wrap(name, obj) for key, (name, obj) in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        names = sorted(name for name, _ in targets.values())
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"polymat.{short}"], cls_name)
            orig = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig))
            names.append(name)
        return names

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)


class _TracedIterator:
    __slots__ = ("tracer", "name", "it")

    def __init__(self, tracer: Tracer, name: str, it: Iterator):
        self.tracer = tracer
        self.name = name
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer._open()
        t0 = tracer.clock()
        try:
            value = next(self.it)
        except BaseException:
            tracer._close(self.name, frame, tracer.clock() - t0, 0, 0)
            raise
        tracer._close(self.name, frame, tracer.clock() - t0, 0, 1)
        return value


def _polymat_modules() -> list[object]:
    return [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "polymat" or name.startswith("polymat."))
    ]


def leftover_wrappers() -> list[str]:
    """Every wrapper still reachable from a polymat module or class."""
    found = []
    for mod in _polymat_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, member in vars(obj).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
