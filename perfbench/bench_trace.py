"""In-memory span tracing applied from outside the traced program.

A span records (name, start, end, parent span, operation id). Spans are
appended to flat arrays while the program runs and are only aggregated or
written out after the measured operations end. Functions are traced by
replacing them with a wrapper on their defining module or class and on every
module that imported the same function object, so a call made through any
imported name is seen.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

NO_PARENT = -1


class SpanStore:
    """Flat, append-only span storage with an open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [NO_PARENT]
        self.op_id = NO_PARENT
        # Counts and maxima recorded at the same boundaries as the spans.
        self.counters: dict[str, float] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if self.stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def nbytes(self) -> int:
        arrays = (self.name, self.parent, self.op, self.start, self.end)
        return sum(a.itemsize * len(a) for a in arrays)

    def save(self, path: str) -> None:
        """Write every span; only called once the measured operations end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


@dataclass(frozen=True)
class SpanTotals:
    """Per-name totals over a selection of spans."""

    calls: dict[str, int]
    self_s: dict[str, float]
    top_level_s: float  # summed duration of selected spans with no parent


def aggregate(store: SpanStore, op_scale: dict[int, float] | None = None) -> SpanTotals:
    """Self time per span name: duration minus the time covered by children.

    Children of one span are sequential (one thread), so the time they cover
    is the sum of their durations. ``op_scale`` selects the operations counted
    and multiplies each one's times by its factor; None counts every span
    unscaled.
    """
    if store.stack != [NO_PARENT]:
        raise RuntimeError("aggregate called with spans still open")
    n = len(store)
    start = np.frombuffer(store.start, dtype=np.float64)
    end = np.frombuffer(store.end, dtype=np.float64)
    parent = np.frombuffer(store.parent, dtype=np.int64)
    name = np.frombuffer(store.name, dtype=np.int32)
    op = np.frombuffer(store.op, dtype=np.int64)
    dur = end - start
    nested = parent != NO_PARENT
    child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    self_time = dur - child
    if op_scale is None:
        factor = np.ones(n)
    else:
        factor = np.zeros(n)
        for op_id, f in op_scale.items():
            factor[op == op_id] = f
    keep = factor > 0.0
    k = len(store.names)
    calls = np.bincount(name[keep], minlength=k)
    self_s = np.bincount(name[keep], weights=(self_time * factor)[keep], minlength=k)
    return SpanTotals(
        calls={nm: int(calls[i]) for i, nm in enumerate(store.names)},
        self_s={nm: float(self_s[i]) for i, nm in enumerate(store.names)},
        top_level_s=float((dur * factor)[keep & ~nested].sum()),
    )


# -- wrapping ------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One traced callable: ``owner.attr`` where owner is a module or class.

    ``after(store, args, result)`` records counts from a call that returned;
    a raised ``rejects`` exception is counted as ``<name>.rejected``.
    """

    name: str
    owner: Any
    attr: str
    after: Callable[[SpanStore, tuple, Any], None] | None = None
    rejects: tuple[type[BaseException], ...] = ()


def _wrap(store: SpanStore, span: Span, fn: Callable) -> Callable:
    name_id = store.intern(span.name)
    after = span.after
    rejects = span.rejects
    rejected_key = span.name + ".rejected"

    def traced(*args, **kwargs):
        i = store.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except rejects:
            store.count(rejected_key)
            raise
        finally:
            store.close(i)
        if after is not None:
            after(store, args, result)
        return result

    traced.__name__ = getattr(fn, "__name__", span.attr)
    traced.__qualname__ = getattr(fn, "__qualname__", span.attr)
    traced.__doc__ = getattr(fn, "__doc__", None)
    traced.__wrapped__ = fn
    return traced


_MISSING = object()


def install(store: SpanStore, spans: list[Span], module_prefix: str) -> Callable[[], None]:
    """Wrap every span target; returns a function that restores the originals.

    A function owned by a module is also replaced in every loaded module
    under ``module_prefix`` that holds the same object under any name.
    """
    undo: list[tuple[Any, str, Any]] = []
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == module_prefix or key.startswith(module_prefix + "."))
    ]
    try:
        for span in spans:
            if isinstance(span.owner, type):
                original = span.owner.__dict__.get(span.attr, _MISSING)
                fn = getattr(span.owner, span.attr)
                undo.append((span.owner, span.attr, original))
                setattr(span.owner, span.attr, _wrap(store, span, fn))
                continue
            fn = getattr(span.owner, span.attr)
            traced = _wrap(store, span, fn)
            holders = modules if span.owner in modules else [span.owner, *modules]
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, key, fn))
                        setattr(module, key, traced)
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    undo.clear()
