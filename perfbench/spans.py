"""Call spans recorded from outside the program, and their self-time arithmetic.

The tracer wraps functions by rebinding module (or class) attributes, so the
program itself is never edited.  Every wrapped call is timed on one stack:
a call's self time is its duration minus the time its wrapped callees cover.
Low-frequency calls are kept as individual spans (id, name, start, end,
parent); high-frequency leaves are only aggregated as (calls, total, self)
per name, which keeps memory flat over thousands of calls per operation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals, clipped to the parent.  Raises ValueError on broken linkage
    (unknown parent, or a child that leaves its parent's interval)."""
    by_id = {sp.id: sp for sp in spans}
    children: dict[int, list[Span]] = {sp.id: [] for sp in spans}
    for sp in spans:
        if sp.parent is None:
            continue
        parent = by_id.get(sp.parent)
        if parent is None:
            raise ValueError(f"span {sp.id} ({sp.name}) names unknown parent {sp.parent}")
        if sp.start < parent.start or sp.end > parent.end:
            raise ValueError(f"span {sp.id} ({sp.name}) lies outside its parent {parent.id}")
        children[parent.id].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children[sp.id], key=lambda c: c.start):
            lo, hi = max(ch.start, cursor), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


class Tracer:
    """Span stack plus per-name (calls, total, self) and free-form counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, start, child_s, span_id or None]
        self._next_id = 0
        self._patches: list[tuple] = []

    def _enter(self, name: str, leaf: bool) -> None:
        sid = None
        if not leaf:
            sid = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, sid])

    def _exit(self) -> None:
        name, start, child_s, sid = self._stack.pop()
        end = self.clock()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        if sid is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append(Span(sid, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (one per operation)."""
        self._enter(name, False)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn, leaf: bool = False, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if observe is not None:
                try:
                    observe(tracer.counters, args, result)
                except Exception as exc:  # the boundary changed shape at this commit
                    if name not in tracer.absent:
                        tracer.absent.append(name)
                        print(f"perfbench: counting at {name} failed ({exc!r}); its metrics read absent", file=sys.stderr)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each target.  A target is (name, module, attr, leaf, observe);
        attr may be "Class.method".  A module function is rebound wherever a
        loaded uavplan module binds the same object, so `from .x import f`
        call sites are covered.  Names missing at this commit go to .absent."""
        for name, module, attr, leaf, observe in targets:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self._missing(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self._missing(name)
                    continue
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, leaf, observe))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self._missing(name)
                continue
            wrapper = self.wrap(name, orig, leaf, observe)
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "uavplan" or mname.startswith("uavplan.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def _missing(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)


def selfcheck() -> None:
    """Verify self time and parent linkage on a hand-built span tree, then
    drive a Tracer with a scripted clock through the same tree and require
    that its spans and per-name aggregates agree.  Raises AssertionError."""

    # op [0, 10]: a [1, 4] (with leaf x [2, 3]), b [5, 9] (with c [6, 8])
    tree = [
        Span(0, "op", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 5.0, 9.0, 0),
        Span(3, "c", 6.0, 8.0, 2),
    ]
    got = self_times(tree)
    want = {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    if got != want:
        raise AssertionError(f"self_times {got} != {want}")
    for bad in (
        [Span(0, "op", 0.0, 1.0, None), Span(1, "a", 0.5, 2.0, 0)],
        [Span(1, "a", 0.0, 1.0, 7)],
    ):
        try:
            self_times(bad)
        except ValueError:
            continue
        raise AssertionError("broken linkage went unnoticed")

    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("x", lambda: None, leaf=True)
    inner = tr.wrap("c", lambda: None)
    a = tr.wrap("a", lambda: leaf())
    b = tr.wrap("b", lambda: inner())
    with tr.span("op"):
        a()
        b()
    names = {s.id: s.name for s in tr.spans}
    linkage = [(s.name, s.start, s.end, names.get(s.parent)) for s in sorted(tr.spans, key=lambda s: s.start)]
    want_linkage = [("op", 0.0, 10.0, None), ("a", 1.0, 4.0, "op"), ("b", 5.0, 9.0, "op"), ("c", 6.0, 8.0, "b")]
    if linkage != want_linkage:
        raise AssertionError(f"tracer spans {linkage} != {want_linkage}")
    # the leaf x [2, 3] is aggregated, not a span, but still leaves a's self time
    want_stats = {"op": [1, 10.0, 3.0], "a": [1, 3.0, 2.0], "x": [1, 1.0, 1.0], "b": [1, 4.0, 2.0], "c": [1, 2.0, 2.0]}
    if tr.stats != want_stats:
        raise AssertionError(f"tracer aggregates {tr.stats} != {want_stats}")
    by_name = {s.name: s.id for s in tr.spans}
    span_self = self_times(tr.spans)
    for name in ("op", "b", "c"):
        if span_self[by_name[name]] != tr.stats[name][2]:
            raise AssertionError(f"span arithmetic and aggregate disagree on {name}")


if __name__ == "__main__":
    selfcheck()
    print("span arithmetic self-check passed")
