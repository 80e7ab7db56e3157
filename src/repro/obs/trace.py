"""Span tracing: nested wall-time measurements.

A :class:`Tracer` collects :class:`Span` records.  Spans nest through a
per-thread stack, so concurrent threads each build their own correct
parent chain while appending to one shared (lock-guarded) list::

    tracer = Tracer()
    with tracer.span("fra.reduce", scenario="2017_7"):
        for i in range(n):
            with tracer.span("fra.iteration", iteration=i) as s:
                ...
                s.attrs["n_removed"] = removed

The clock is injectable (``Tracer(clock=fake)``) so tests get
deterministic timings.  A run's spans end up aggregated in its ledger
record (:mod:`repro.obs.ledger`); :meth:`Span.to_dict` /
:meth:`Span.from_dict` carry them across process boundaries.

Module-level helpers maintain a *current* tracer so library code can be
instrumented without threading a tracer argument through every call:
``span("name")`` records into whatever tracer :func:`use_tracer` (or
:func:`set_current_tracer`) installed — by default a process-wide one.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "set_current_tracer",
    "use_tracer",
    "span",
    "event",
]


@dataclass
class Span:
    """One timed region. ``duration`` is in seconds of the tracer clock."""

    name: str
    start: float
    end: float = 0.0
    span_id: int = 0
    parent_id: int | None = None
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-time between enter and exit, in seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (what workers ship back)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=record["name"],
            start=float(record["start"]),
            end=float(record["end"]),
            span_id=int(record["span_id"]),
            parent_id=(None if record.get("parent_id") is None
                       else int(record["parent_id"])),
            thread=record.get("thread", ""),
            attrs=dict(record.get("attrs", {})),
        )


class Tracer:
    """Thread-safe span collector with an injectable clock.

    ``max_spans`` bounds memory: once exceeded, the oldest completed
    spans are dropped.  Pipeline runs use unbounded tracers (a run's
    span count is small and known); the ambient process-wide default is
    capped so long library sessions cannot grow without limit.
    """

    def __init__(self, clock=time.perf_counter, enabled: bool = True,
                 max_spans: int | None = None):
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be >= 1 (or None)")
        self._clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()
        self._next_id = 1

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a region; yields the (mutable) :class:`Span`.

        Completed spans are appended in *completion* order — a parent
        therefore appears after its children, matching how profile
        tools emit trace events.
        """
        if not self.enabled:
            yield Span(name=name, start=0.0, attrs=attrs)
            return
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        record = Span(
            name=name,
            start=self._clock(),
            span_id=span_id,
            parent_id=parent_id,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self._clock()
            with self._lock:
                self._spans.append(record)
                if (self.max_spans is not None
                        and len(self._spans) > self.max_spans):
                    del self._spans[:len(self._spans) - self.max_spans]

    def current_span_id(self) -> int | None:
        """Id of the innermost span open in this thread (None at top)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def event(self, name: str, **attrs) -> Span:
        """Record an instantaneous (zero-duration) span.

        Events mark moments rather than regions — a pool breakage, a
        quarantined cache entry — and ride the ordinary span stream, so
        worker merges and the run ledger need no new machinery to
        carry them.
        """
        if not self.enabled:
            return Span(name=name, start=0.0, attrs=attrs)
        now = self._clock()
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = Span(
            name=name,
            start=now,
            end=now,
            span_id=span_id,
            parent_id=stack[-1] if stack else None,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(record)
            if (self.max_spans is not None
                    and len(self._spans) > self.max_spans):
                del self._spans[:len(self._spans) - self.max_spans]
        return record

    def absorb(self, records, parent_id: int | None = None) -> None:
        """Merge completed spans from another tracer into this one.

        ``records`` are :class:`Span` objects or ``to_dict()`` payloads
        (what worker processes ship back).  Span ids are re-issued from
        this tracer's counter so they stay unique; parent links between
        the absorbed spans are preserved, and spans that were roots in
        the worker are re-parented under ``parent_id``.
        """
        spans = [
            record if isinstance(record, Span) else Span.from_dict(record)
            for record in records
        ]
        if not spans or not self.enabled:
            return
        with self._lock:
            mapping: dict[int, int] = {}
            for record in spans:
                mapping[record.span_id] = self._next_id
                self._next_id += 1
            for record in spans:
                record.span_id = mapping[record.span_id]
                record.parent_id = (
                    mapping.get(record.parent_id, parent_id)
                    if record.parent_id is not None else parent_id
                )
            self._spans.extend(spans)
            if (self.max_spans is not None
                    and len(self._spans) > self.max_spans):
                del self._spans[:len(self._spans) - self.max_spans]

    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """All completed spans so far (snapshot copy)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop every collected span (open spans are unaffected)."""
        with self._lock:
            self._spans.clear()


# ----------------------------------------------------------------------
# The process-wide "current" tracer.
#
# A plain module global (not a contextvar) on purpose: worker threads
# spawned mid-run must see the tracer the orchestrator installed.

_default_tracer = Tracer(max_spans=65536)
_current: Tracer = _default_tracer
_current_lock = threading.Lock()


def current_tracer() -> Tracer:
    """The tracer instrumented library code records into."""
    return _current


def set_current_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as current; returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Temporarily install ``tracer`` as the current tracer."""
    previous = set_current_tracer(tracer)
    try:
        yield tracer
    finally:
        set_current_tracer(previous)


@contextmanager
def span(name: str, **attrs):
    """``current_tracer().span(...)`` — the instrumentation entry point."""
    with _current.span(name, **attrs) as record:
        yield record


def event(name: str, **attrs) -> Span:
    """``current_tracer().event(...)`` — record an instantaneous mark."""
    return _current.event(name, **attrs)

