"""In-memory span recorder that times calls into the program from outside.

The benchmark never edits the program to trace it.  :meth:`SpanRecorder.patch`
replaces a public function or method *at the site where callers look it
up* (a module attribute or a class attribute) with a wrapper that records
one :class:`Span` per call: its name, start, end, parent span and run id.
Parents are tracked per thread, and every span inherits the run id of the
root span of its thread, so the spans of one SCF run or one service
request share an identifier.  Spans stay in memory and are written out
once, when the benchmark ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover (:func:`self_times`); a layer's self time is the
sum over its spans (:func:`layer_self_times`).  Span names are
``"<layer>.<what>"``, the layer being a ``repro`` package name.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Span:
    """One timed call."""

    name: str
    start: float
    end: float
    sid: int
    parent: int | None
    run: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans from wrapped calls while :attr:`enabled` is set.

    A disabled recorder's wrappers call straight through, so wrappers can
    be installed before worker processes fork (which then inherit them
    disabled) and switched on for the traced phase only.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent, run = stack[-1] if stack else (None, sid)
        stack.append((sid, run))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(name, start, end, sid, parent, run))

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Callable[[tuple, dict], None] | None = None,
        on_result: Callable[[object, tuple, dict, float], None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``on_call(args, kwargs)`` and ``on_result(result, args, kwargs,
        seconds)`` run outside the span while the recorder is enabled;
        they read counters at the same boundary.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            t0 = self.clock()
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs, self.clock() - t0)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (module or class) with a timed wrapper."""
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, **hooks))
        else:
            replacement = self.wrap(getattr(owner, attr), name, **hooks)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children[s.sid], s.start, s.end)
        for s in spans
    }


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.sid]
    return dict(out)


def total_time(spans: Sequence[Span], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s.duration for s in spans if s.name == name)


def count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)
