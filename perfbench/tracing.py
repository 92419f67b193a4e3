"""Span tracing from outside the program.

The benchmark never edits the library.  It wraps public functions and
methods of each layer at run time (``Tracer.wrap``), keeps every span in
memory, and restores the originals when it is done.  A span records its
name, start, end, parent span and, for serve queries, the query id.

Hot visitor hooks and point-query kernels are called hundreds of
thousands of times per iteration, so ``hot=True`` wrappers only add to a
per-name time and call counter instead of recording one span per call.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    tid: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus hot-path counters; writes Chrome trace JSON."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: name -> seconds / calls for ``hot`` wrappers
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: parent for spans opened on a thread with an empty stack (the
        #: serve dispatch thread runs batches for the bench's load step)
        self.fallback_parent: int | None = None
        self.t0 = now()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self.fallback_parent

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[int]:
        span_id = next(self._ids)
        parent = self._parent()
        stack = self._stack()
        stack.append(span_id)
        start = now()
        try:
            yield span_id
        finally:
            end = now()
            stack.pop()
            self._append(Span(name, start, end, span_id, parent,
                              threading.get_ident(), args))

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, **args: Any) -> int:
        """Add a span whose interval was measured elsewhere."""
        span_id = next(self._ids)
        self._append(Span(name, start, end, span_id, parent,
                          threading.get_ident(), args))
        return span_id

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # -- wrapping -----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, *, hot: bool = False,
             observe: Callable[..., None] | None = None) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``observe(args, result)`` sees each call's positional arguments
        and return value (for counts such as frontier sizes).  Re-entrant
        calls of the same name are timed once, at the outermost call.
        """
        had = attr in vars(owner)
        original = getattr(owner, attr)
        local = self._local
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            active = getattr(local, "active", None)
            if active is None:
                active = local.active = set()
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            try:
                if hot:
                    t = now()
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        tracer.seconds[name] += now() - t
                        tracer.calls[name] += 1
                else:
                    with tracer.span(name):
                        result = original(*args, **kwargs)
            finally:
                active.discard(name)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -----------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, units: list[Span]) -> dict[str, float]:
        """Self time per span name, summed over spans inside ``units``.

        A span's self time is its duration minus the time its child spans
        cover.  Spans belong to a unit when their parent chain reaches it.
        """
        by_id = {s.span_id: s for s in self.spans}
        unit_ids = {u.span_id for u in units}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.dur
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            p: int | None = s.span_id
            while p is not None and p not in unit_ids:
                p = by_id[p].parent if p in by_id else None
            if p is not None:
                out[s.name] += s.dur - child_time[s.span_id]
        return dict(out)

    def to_chrome(self, meta: dict[str, Any]) -> dict[str, Any]:
        pid = os.getpid()
        tids: dict[int, int] = {}
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "perfbench"},
        }]
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.tid, len(tids))
            args = {"span_id": s.span_id, "parent": s.parent, **s.args}
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": (s.start - self.t0) * 1e6, "dur": s.dur * 1e6,
                "pid": pid, "tid": tid, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": meta}
