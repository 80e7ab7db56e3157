"""Resource-measuring spans: CPU, max-RSS and GC per traced region.

:func:`profiled_span` is a drop-in replacement for
:func:`repro.obs.trace.span` that annotates the span's ``attrs`` with
resource measurements:

``cpu_s``
    Process CPU time (user + system) consumed inside the span, via
    ``resource.getrusage``.
``max_rss_kb``
    The process high-water RSS (``ru_maxrss``) at span exit, in KiB.
``gc_collections``
    Garbage-collector collection passes that ran inside the span.

Measuring costs one ``getrusage`` and one ``gc.get_stats`` at each end
of the span (a few microseconds), so the pipeline uses it only on its
coarse spans: the run root and one span per scenario.

The measurements ride ordinary span ``attrs``, so worker-process spans
merged back by :class:`repro.parallel.ParallelMap` carry them too, and
the run ledger's stage rows (``repro report --run``) show them as
``cpu`` / ``max-rss`` columns.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager

from .trace import span as _trace_span

try:  # POSIX only; elsewhere only the GC count is measured.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

__all__ = [
    "PROFILE_ATTRS",
    "profiled_span",
]

#: Attr keys a profiled span carries (render order for reports).
PROFILE_ATTRS = ("cpu_s", "max_rss_kb", "gc_collections")


def _rusage() -> tuple[float, float]:
    """(cpu_seconds, max_rss_kb) for the current process."""
    if _resource is None:  # pragma: no cover - non-POSIX platform
        return 0.0, 0.0
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    max_rss = float(usage.ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - macOS counts bytes
        max_rss /= 1024.0
    return usage.ru_utime + usage.ru_stime, max_rss


def _gc_collections() -> int:
    return sum(stat["collections"] for stat in gc.get_stats())


@contextmanager
def profiled_span(name: str, **attrs):
    """A traced region whose record also carries :data:`PROFILE_ATTRS`."""
    cpu_before, _ = _rusage()
    gc_before = _gc_collections()
    with _trace_span(name, **attrs) as record:
        try:
            yield record
        finally:
            cpu_after, max_rss = _rusage()
            record.attrs["cpu_s"] = round(cpu_after - cpu_before, 6)
            record.attrs["max_rss_kb"] = round(max_rss, 1)
            record.attrs["gc_collections"] = (
                _gc_collections() - gc_before
            )
