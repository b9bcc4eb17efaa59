"""In-memory spans, wrapper install/restore, and self-time arithmetic.

The benchmark records spans from its own files: it wraps the public
functions and methods of each ``repro`` layer with a timing wrapper,
keeps every span in memory, and writes them out when the run ends.  A
span is ``[name, start, end, parent, thread, request_id]``; ``parent``
is the index of the span that was open on the same thread when this one
began.  A span that begins on a thread with nothing open takes the span
the thread *adopted* (see :meth:`Recorder.adopt`): the probes make every
thread started inside a span adopt that span, so an executor's worker
threads nest under the call that started them.

Self time is a span's duration minus the union of its children's
intervals, so children that overlap each other (worker threads) are not
subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

NAME, START, END, PARENT, THREAD, RID = range(6)


class Recorder:
    """Thread-safe span and counter store for one process."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The innermost span open on this thread (or adopted by it)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def adopt(self, parent: Optional[int]) -> None:
        """Make ``parent`` the parent of this thread's outermost spans."""
        self._local.adopted = parent

    def begin(self, name: str, rid: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "adopted",
                                                 None)
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), rid]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, rid: Optional[str] = None):
        return _SpanContext(self, name, rid)

    def closed(self) -> List[list]:
        """Finished spans only (a span still open at export is dropped)."""
        return [s for s in self.spans if s[END] is not None]

    def export(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counters": dict(self.counters)}


class _SpanContext:
    __slots__ = ("recorder", "name", "rid", "index")

    def __init__(self, recorder: Recorder, name: str, rid: Optional[str]):
        self.recorder = recorder
        self.name = name
        self.rid = rid

    def __enter__(self) -> int:
        self.index = self.recorder.begin(self.name, self.rid)
        return self.index

    def __exit__(self, *exc_info) -> None:
        self.recorder.end(self.index)


def timed(recorder: Recorder, name: str, fn: Callable, *,
          rid: Optional[Callable[[], Optional[str]]] = None,
          on_result: Optional[Callable[[Any, tuple], None]] = None
          ) -> Callable:
    """``fn`` wrapped in a span named ``name``.

    ``rid`` supplies the request id to tag the span with; ``on_result``
    sees ``(result, args)`` after the call (for counts).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name, rid() if rid is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if on_result is not None:
            on_result(result, args)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


_MISSING = object()


class Patcher:
    """Installs wrappers on classes and modules, and restores them."""

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        old = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, old))

    def wrap_method(self, cls: type, attr: str,
                    make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` (a plain function defined on ``cls``)."""
        self.set(cls, attr, make(vars(cls)[attr]))

    def wrap_property(self, cls: type, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        prop = vars(cls)[attr]
        self.set(cls, attr, property(make(prop.fget), prop.fset,
                                     prop.fdel, prop.__doc__))

    def wrap_function(self, module_name: str, attr: str,
                      make: Callable[[Callable], Callable],
                      prefix: str = "repro") -> List[str]:
        """Wrap a module-level function in every module that binds it.

        ``from m import f`` copies the binding, so patching ``m.f`` alone
        misses callers that imported the name.  Every loaded module under
        ``prefix`` whose attribute ``attr`` is the original function gets
        the same wrapper.  Returns the patched module names.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        patched = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == prefix
                                      or name.startswith(prefix + ".")):
                continue
            if vars(module).get(attr) is original:
                self.set(module, attr, wrapper)
                patched.append(name)
        return patched

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------

def union_length(intervals: Iterable[Sequence[float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so a worker
    span that outlives the span that started its thread is not
    over-subtracted.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span[END] is not None:
            children.setdefault(parent, []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        if end is None:
            result.append(0.0)
            continue
        kids = [(max(a, start), min(b, end))
                for a, b in children.get(index, ())
                if min(b, end) > max(a, start)]
        result.append((end - start) - union_length(kids))
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil without float error
    return ordered[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
