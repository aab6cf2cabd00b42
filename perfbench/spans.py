"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: name, start, end (both
``time.perf_counter``, which is CLOCK_MONOTONIC and therefore comparable
across processes on Linux), parent span, the evaluator simulations
completed while it ran (``sims``) and the evaluator requests issued
(``requests``), plus an optional dict of attributes a specialised
wrapper attaches (batch rows, Newton iterations, phase seconds, ...).

Spans stay in memory while the workload runs and are written out as
JSON lines afterwards (:func:`write_dump`); every figure of the per-layer
table is computed from that dump (:func:`read_dump`).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

#: index of each field in a recorded span tuple
SPAN_FIELDS = ("span", "parent", "name", "start", "end", "sims",
               "requests", "attrs", "thread")


class Tracer:
    """Collects spans from wrapped functions while :attr:`enabled`."""

    def __init__(self):
        self.enabled = False
        self.spans: List[tuple] = []
        #: evaluator simulations / requests seen so far; advanced by the
        #: evaluator wrappers, read at span boundaries
        self.sims = 0
        self.requests = 0
        self._next_id = 0
        self._pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker: restart numbering in its own id range so
            # worker spans never collide with the parent's.
            self._pid = pid
            self._next_id = 0
            self.spans = []
        self._next_id += 1
        return pid * 1_000_000_000 + self._next_id

    def begin(self) -> tuple:
        """Open a span on this thread; returns the token :meth:`end`
        needs."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return (span_id, parent, self.sims, self.requests,
                time.perf_counter())

    def end(self, token: tuple, name: str,
            attrs: Optional[Dict] = None) -> None:
        end = time.perf_counter()
        span_id, parent, sims0, requests0, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end,
                           self.sims - sims0, self.requests - requests0,
                           attrs, threading.get_ident()))

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn``.  ``attrs(args, kwargs, result)``
        may return a dict stored with the span."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = tracer.begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(token, name, None if attrs is None
                           else attrs(args, kwargs, result))

        return stand_in(fn, traced)


def stand_in(original: Callable, wrapper: Callable) -> Callable:
    """Give ``wrapper`` the identity of ``original`` (name, qualified
    name and module, so pickling by reference still finds it) and
    remember the original."""
    functools.update_wrapper(wrapper, original)
    wrapper.__perfbench_original__ = original
    return wrapper



class Span:
    """A span the benchmark opens itself (the workload root, one client
    request); records nothing unless ``tracer`` is enabled."""

    def __init__(self, tracer: Optional[Tracer], name: str,
                 attrs: Optional[Dict] = None):
        self.tracer = tracer
        self.name = name
        self.attrs: Dict = dict(attrs or {})

    def __enter__(self) -> "Span":
        if self.tracer is not None and self.tracer.enabled:
            self.token = self.tracer.begin()
        else:
            self.tracer = None
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.end(self.token, self.name, self.attrs)


# -- dump ---------------------------------------------------------------------
def span_records(spans: Iterable[tuple], workload: str,
                 run_id: str) -> List[Dict]:
    """Spans as dump records (one dict per span)."""
    records = []
    for span in spans:
        record = dict(zip(SPAN_FIELDS, span))
        record["workload"] = workload
        record["run"] = run_id
        if record["attrs"] is None:
            del record["attrs"]
        records.append(record)
    return records


def write_dump(path: str, records: Iterable[Dict],
               mode: str = "w") -> None:
    with open(path, mode) as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")


def read_dump(path: str) -> List[Dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- self time ----------------------------------------------------------------
def covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(records: List[Dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[tuple]] = {}
    for record in records:
        children.setdefault(record["parent"], []).append(
            (record["start"], record["end"]))
    return {record["span"]: (record["end"] - record["start"])
            - covered(children.get(record["span"], []),
                      record["start"], record["end"])
            for record in records}
