"""Run summaries: the per-run telemetry bundle and span aggregations.

:class:`RunSummary` is the per-run telemetry bundle the pipeline
attaches to ``ExperimentResults.run_summary``: the full span list and a
metrics snapshot, as plain data.  The module also hosts the pure span
aggregations behind the run ledger's records (:mod:`repro.obs.ledger`)
and the report footers —
:func:`aggregate_spans` (per-name stats with self-time) and
:func:`slowest_spans`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .profile import PROFILE_ATTRS
from .trace import Span

__all__ = [
    "RunSummary",
    "aggregate_spans",
    "slowest_spans",
    "format_memory",
    "format_runtime",
]


def format_runtime(seconds: float) -> str:
    """Human runtime: ``412ms`` / ``3.42s`` / ``48.1s`` / ``12m 05s``."""
    if seconds < 0:
        raise ValueError("runtime cannot be negative")
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 10.0:
        return f"{seconds:.2f}s"
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m {rest:02.0f}s"


def format_memory(kb: float | None) -> str:
    """Human memory size from KiB: ``512KB`` / ``1.5MB`` / ``2.1GB``."""
    if kb is None:
        return "-"
    if kb < 0:
        raise ValueError("memory size cannot be negative")
    if kb >= 1024 * 1024:
        return f"{kb / (1024 * 1024):.1f}GB"
    if kb >= 1024:
        return f"{kb / 1024:.1f}MB"
    return f"{kb:.0f}KB"


def aggregate_spans(spans: list[Span]) -> dict[str, dict]:
    """Per-name stats: count, total/self/mean/max seconds.

    *Self* time is a span's duration minus the union of its direct
    children's intervals, clipped to the span, so a parent stage is not
    double-counted against the work nested inside it; summing
    ``self_s`` over all names recovers total traced time for serial
    runs.  Children absorbed from parallel workers overlap each other
    in wall-clock; the union counts the time they cover once, so the
    parent keeps the time it spent outside them (pool build, dispatch,
    cache reads).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(
                (record.start, record.end)
            )
    stats: dict[str, dict] = {}
    for record in spans:
        entry = stats.setdefault(record.name, {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0,
        })
        entry["count"] += 1
        entry["total_s"] += record.duration
        # max(0, ...): rounding when children tile the span exactly.
        entry["self_s"] += max(0.0, record.duration - _covered(
            record.start, record.end, children.get(record.span_id, ())
        ))
        entry["max_s"] = max(entry["max_s"], record.duration)
        # Resource attrs (repro.obs.profile) appear only on the names
        # whose spans carry them; plain spans keep the wall-time keys.
        for attr in PROFILE_ATTRS:
            value = record.attrs.get(attr)
            if value is None:
                continue
            if attr in ("cpu_s", "gc_collections"):
                entry[attr] = entry.get(attr, 0) + value
            else:
                entry[attr] = max(entry.get(attr, 0.0), value)
    for entry in stats.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
        if "cpu_s" in entry:
            entry["cpu_s"] = round(entry["cpu_s"], 6)
    return dict(
        sorted(stats.items(), key=lambda kv: -kv[1]["total_s"])
    )


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` inside ``[start, end]``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def slowest_spans(spans: list[Span], n: int = 10) -> list[Span]:
    """The ``n`` longest individual spans, longest first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sorted(spans, key=lambda s: -s.duration)[:n]


@dataclass
class RunSummary:
    """Telemetry bundle for one experiment run: every span and the
    metrics snapshot.  Aggregate with :func:`aggregate_spans` or
    :func:`repro.obs.stage_rows`."""

    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
