"""The run ledger: a durable, append-only JSONL record of every run.

The paper's headline claim rests on comparing many experiment runs;
:class:`RunLedger` is the persistent record that keeps those runs
comparable.  Every ``run_experiment``, chaos run, and benchmark appends
one :class:`RunRecord` — config fingerprint, cache lineage keys,
metrics snapshot, per-stage span aggregates (with the CPU and max-RSS
columns of :mod:`repro.obs.profile`), the slowest spans with their
attrs, host/env info and ``git describe`` — to one JSON-lines file.
The record is the one place a run explains itself: ``repro report
--run`` renders it.

Appends are durable and crash-tolerant: each record is a single
``write`` to an ``O_APPEND`` descriptor followed by ``fsync``, so a
killed run can at worst leave one torn trailing line, which readers
skip.  Two runs of the same configuration link naturally through their
``fingerprint`` and cache ``dataset_key`` fields — a warm re-run
(including one that resumes a killed run from its cache) addresses the
same artifacts as the cold run that produced them.

:func:`build_record` is the one place a finished run becomes a record,
and :meth:`RunLedger.try_append` the one append that logs a broken
ledger instead of failing the run.  Query and comparison helpers
(:meth:`RunLedger.query`, :meth:`RunLedger.latest`,
:func:`compare_records`) plus the renderers behind the ``repro report``
CLI command live here too.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..tables import format_table
from .log import get_logger
from .profile import PROFILE_ATTRS
from .summary import (
    aggregate_spans,
    format_memory,
    format_runtime,
    slowest_spans,
)

__all__ = [
    "RunLedger",
    "RunRecord",
    "build_record",
    "compare_records",
    "git_describe",
    "host_info",
    "render_compare",
    "render_history",
    "render_record",
    "slowest_rows",
    "stage_rows",
    "stage_table",
]

_log = get_logger("obs")

#: Stage-aggregate columns persisted per record (subset of
#: :func:`repro.obs.summary.aggregate_spans` output).
_STAGE_FIELDS = ("count", "total_s", "self_s", "max_s")


def host_info() -> dict:
    """Where a run executed: platform, python, CPU count, host, pid."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
    }


def git_describe(directory=None) -> str | None:
    """``git describe --always --dirty`` of the source tree, or None.

    Best-effort provenance: a missing git binary, a non-repo checkout,
    or any subprocess hiccup degrades to ``None`` rather than failing
    the run that asked to be recorded.
    """
    cwd = Path(directory) if directory is not None \
        else Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def stage_rows(spans) -> dict[str, dict]:
    """Per-span-name aggregates ready to persist in a ledger record.

    A projection of :func:`aggregate_spans`: the wall-time fields, plus
    the resource columns (summed ``cpu_s`` / ``gc_collections``, max
    ``max_rss_kb``) on the names whose spans carry them.
    """
    keep = _STAGE_FIELDS + PROFILE_ATTRS
    return {
        name: {key: entry[key] for key in keep if key in entry}
        for name, entry in aggregate_spans(spans).items()
    }


def slowest_rows(spans, n: int = 10) -> list[dict]:
    """The ``n`` longest spans (see :func:`slowest_spans`) as ledger
    rows: name, duration and attrs."""
    return [
        {"name": record.name, "duration_s": round(record.duration, 6),
         "attrs": dict(record.attrs)}
        for record in slowest_spans(spans, n)
    ]


@dataclass
class RunRecord:
    """One ledger line: everything needed to compare runs later."""

    kind: str
    """``"run"``, ``"update"``, ``"chaos"``, or ``"bench"``."""

    status: str = "ok"
    """``"ok"``, ``"partial"`` (some scenarios failed), or ``"failed"``."""

    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    started_at: str = ""
    """ISO-8601 UTC wall-clock time the run began."""

    duration_s: float = 0.0
    fingerprint: str | None = None
    """Config fingerprint — the same digest the cache layer uses, so
    records of identical configurations link across sessions."""

    seed: int | None = None
    labels: dict = field(default_factory=dict)
    """Free-form discriminators (preset, policy, bench name, ...)."""

    cache: dict = field(default_factory=dict)
    """Cache lineage: ``dataset_key`` and one ``period_digest_<period>``
    per period, plus the run's hit/miss/write counters.  Cold and warm
    runs of one config share the same keys — that is the cross-run
    link."""

    stages: dict = field(default_factory=dict)
    """Per-span-name aggregates (see :func:`stage_rows`)."""

    slowest: list = field(default_factory=list)
    """The run's slowest individual spans (see :func:`slowest_rows`)."""

    metrics: dict = field(default_factory=dict)
    """The run's :meth:`~repro.obs.MetricsRegistry.snapshot`."""

    host: dict = field(default_factory=dict)
    git: str | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (one ledger line)."""
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "status": self.status,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "labels": dict(self.labels),
            "cache": dict(self.cache),
            "stages": dict(self.stages),
            "slowest": list(self.slowest),
            "metrics": dict(self.metrics),
            "host": dict(self.host),
            "git": self.git,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`; tolerant of absent fields and
        of the retired ``resumed`` / ``checkpoint`` keys older lines
        carry."""
        return cls(
            kind=payload["kind"],
            status=payload.get("status", "ok"),
            run_id=payload.get("run_id", ""),
            started_at=payload.get("started_at", ""),
            duration_s=float(payload.get("duration_s", 0.0)),
            fingerprint=payload.get("fingerprint"),
            seed=payload.get("seed"),
            labels=dict(payload.get("labels", {})),
            cache=dict(payload.get("cache", {})),
            stages=dict(payload.get("stages", {})),
            slowest=list(payload.get("slowest", [])),
            metrics=dict(payload.get("metrics", {})),
            host=dict(payload.get("host", {})),
            git=payload.get("git"),
            extra=dict(payload.get("extra", {})),
        )

    @classmethod
    def started_now(cls, kind: str, **kwargs) -> "RunRecord":
        """A record stamped with the UTC wall-clock time the run began:
        now, less the ``duration_s`` it is given."""
        began = time.time() - kwargs.get("duration_s", 0.0)
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(began))
        return cls(kind=kind, started_at=stamp, **kwargs)


def build_record(kind: str, spans=(), metrics: dict | None = None, *,
                 status: str = "ok", duration_s: float = 0.0,
                 fingerprint: str | None = None, seed: int | None = None,
                 labels: dict | None = None, cache: dict | None = None,
                 extra: dict | None = None) -> RunRecord:
    """The ledger record of one finished run.

    ``spans`` become the per-stage aggregates and the slowest-span list,
    and the ``cache.*`` counters of the ``metrics`` snapshot become the
    record's cache counters (next to the lineage keys in ``cache``).
    The start time, host info and ``git describe`` are filled in here.
    Callers build a record only when a ledger asked for one, so runs
    without a ledger pay for none of it.
    """
    metrics = dict(metrics or {})
    cache_info = {
        name.split(".", 1)[1]: value
        for name, value in metrics.get("counters", {}).items()
        if name.startswith("cache.")
    }
    cache_info.update(cache or {})
    return RunRecord.started_now(
        kind,
        status=status,
        duration_s=round(duration_s, 6),
        fingerprint=fingerprint,
        seed=seed,
        labels=dict(labels or {}),
        cache=cache_info,
        stages=stage_rows(spans),
        slowest=slowest_rows(spans),
        metrics=metrics,
        host=host_info(),
        git=git_describe(),
        extra=dict(extra or {}),
    )


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` lines."""

    def __init__(self, path):
        self.path = Path(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r})"

    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record (single write + fsync).

        ``O_APPEND`` makes concurrent appenders interleave at line
        granularity; the fsync makes the record survive the process
        dying right after.  A kill *mid*-write can tear at most the
        final line, which :meth:`scan` skips.
        """
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # default=str: a span attr that JSON cannot encode is recorded
        # as its text rather than failing the finished run.
        line = json.dumps(record.to_dict(), sort_keys=True,
                          default=str) + "\n"
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        _log.debug("ledger.append", path=str(self.path),
                   run_id=record.run_id, kind=record.kind)
        return record

    def try_append(self, record: RunRecord) -> bool:
        """:meth:`append`, logging an ``OSError`` instead of raising it.

        The run being recorded has already finished; a broken ledger
        must not retroactively fail it.  Returns whether the record was
        written.
        """
        try:
            self.append(record)
        except OSError as exc:
            _log.warning("ledger.append_failed", path=str(self.path),
                         run_id=record.run_id, error=str(exc))
            return False
        return True

    # ------------------------------------------------------------------
    def scan(self) -> tuple[list[RunRecord], int]:
        """(records, skipped_lines) — tolerant of torn/corrupt lines."""
        records: list[RunRecord] = []
        skipped = 0
        try:
            handle = self.path.open()
        except FileNotFoundError:
            return [], 0
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    records.append(RunRecord.from_dict(payload))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    skipped += 1
        if skipped:
            _log.warning("ledger.skipped_lines", path=str(self.path),
                         skipped=skipped)
        return records, skipped

    def records(self) -> list[RunRecord]:
        """Every parseable record, oldest first."""
        return self.scan()[0]

    def __len__(self) -> int:
        return len(self.records())

    def query(self, kind: str | None = None,
              fingerprint: str | None = None,
              status: str | None = None,
              limit: int | None = None) -> list[RunRecord]:
        """Filtered records, oldest first; ``limit`` keeps the newest."""
        out = [
            record for record in self.records()
            if (kind is None or record.kind == kind)
            and (fingerprint is None or record.fingerprint == fingerprint)
            and (status is None or record.status == status)
        ]
        if limit is not None:
            if limit < 1:
                raise ValueError("limit must be >= 1 (or None)")
            out = out[-limit:]
        return out

    def latest(self, kind: str | None = None,
               fingerprint: str | None = None) -> RunRecord | None:
        """The newest matching record, or None."""
        matches = self.query(kind=kind, fingerprint=fingerprint)
        return matches[-1] if matches else None

    def get(self, run_id: str) -> RunRecord | None:
        """The record with ``run_id`` (prefix match), or None."""
        for record in self.records():
            if record.run_id == run_id \
                    or record.run_id.startswith(run_id):
                return record
        return None


# ----------------------------------------------------------------------
def compare_records(a: RunRecord, b: RunRecord) -> dict:
    """Stage-by-stage comparison of two runs (``b`` relative to ``a``).

    Returns ``{"duration": {...}, "stages": {name: {"a_s", "b_s",
    "ratio"}}}`` where ``ratio`` is ``b/a`` total seconds (``None``
    when the stage ran in only one record).  The cold-vs-warm cache
    demo and perf triage both read this.
    """
    stages: dict[str, dict] = {}
    names = list(dict.fromkeys([*a.stages, *b.stages]))
    for name in names:
        a_s = a.stages.get(name, {}).get("total_s")
        b_s = b.stages.get(name, {}).get("total_s")
        ratio = (b_s / a_s) if a_s and b_s is not None else None
        stages[name] = {
            "a_s": a_s,
            "b_s": b_s,
            "ratio": round(ratio, 4) if ratio is not None else None,
        }
    duration_ratio = (b.duration_s / a.duration_s
                      if a.duration_s else None)
    return {
        "duration": {
            "a_s": a.duration_s,
            "b_s": b.duration_s,
            "ratio": (round(duration_ratio, 4)
                      if duration_ratio is not None else None),
        },
        "stages": stages,
    }


# ----------------------------------------------------------------------
# Renderers for the ``repro report`` CLI command.
# ----------------------------------------------------------------------
def stage_table(stages: dict) -> tuple[tuple, list[tuple]]:
    """(headers, rows) of the per-stage table, longest total first.

    Columns: count, total/self/mean/max seconds, plus cpu/max-rss when
    the rows carry them (:func:`stage_rows`).  :func:`render_record`
    lays it out for ``repro report --run``, and the run report
    (``repro.core.render_report``) as its telemetry table.
    """
    measured = any("cpu_s" in row for row in stages.values())
    headers = ("stage", "count", "total", "self", "mean", "max")
    if measured:
        headers += ("cpu", "max-rss")
    rows = []
    ordered = sorted(stages.items(),
                     key=lambda kv: -kv[1].get("total_s", 0.0))
    for name, row in ordered:
        count = row.get("count", 0)
        total = row.get("total_s", 0.0)
        cells = (
            name,
            str(count),
            format_runtime(total),
            format_runtime(row.get("self_s", 0.0)),
            format_runtime(total / count if count else 0.0),
            format_runtime(row.get("max_s", 0.0)),
        )
        if measured:
            cpu = row.get("cpu_s")
            cells += (
                format_runtime(cpu) if cpu is not None else "-",
                format_memory(row.get("max_rss_kb")),
            )
        rows.append(cells)
    return headers, rows


def render_history(records: list[RunRecord]) -> str:
    """The run-history table: one line per ledger record."""
    if not records:
        return "ledger is empty"
    headers = ("run", "kind", "status", "when", "duration",
               "label", "cache", "peak-rss")
    rows = []
    for record in records:
        label = " ".join(
            f"{k}={v}" for k, v in sorted(record.labels.items())
        ) or "-"
        hits = record.cache.get("hits")
        cache = (f"{hits} hits" if hits is not None else "-")
        rss = max(
            (row.get("max_rss_kb") for row in record.stages.values()
             if row.get("max_rss_kb") is not None),
            default=None,
        )
        rows.append((
            record.run_id[:8],
            record.kind,
            record.status,
            record.started_at or "-",
            format_runtime(record.duration_s),
            label,
            cache,
            format_memory(rss),
        ))
    return format_table(headers, rows)


def render_record(record: RunRecord) -> str:
    """One run's detail: header lines, the per-stage table (count,
    total/self/mean/max seconds, plus cpu/max-rss when the rows carry
    them), the slowest spans with their attrs, and the counters."""
    lines = [
        f"run {record.run_id}  kind={record.kind}  "
        f"status={record.status}  started={record.started_at or '-'}",
        f"duration {format_runtime(record.duration_s)}"
        + (f"  seed={record.seed}" if record.seed is not None else "")
        + (f"  git={record.git}" if record.git else ""),
    ]
    if record.fingerprint:
        lines.append(f"fingerprint {record.fingerprint}")
    if record.extra.get("parent"):
        # kind="update" records link to the cold run they extended
        # (repro update); compare the two ids to see the chain.
        parent_id = record.extra.get("parent_run_id") or "-"
        lines.append(
            f"parent {parent_id}  fingerprint {record.extra['parent']}"
        )
    if record.cache:
        parts = [f"{k}={v}" for k, v in sorted(record.cache.items())]
        lines.append("cache " + " ".join(parts))
    if record.stages:
        lines.append("")
        lines.append(format_table(*stage_table(record.stages)))
    if record.slowest:
        lines.append("")
        lines.append(f"slowest {len(record.slowest)} spans:")
        for row in record.slowest:
            attrs = " ".join(
                f"{k}={v}" for k, v in row.get("attrs", {}).items()
            )
            lines.append(
                f"  {format_runtime(row['duration_s']):>8}  {row['name']}"
                + (f" {attrs}" if attrs else "")
            )
    counters = record.metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {int(counters[name])}")
    return "\n".join(lines)


def render_compare(a: RunRecord, b: RunRecord) -> str:
    """Rendered :func:`compare_records` table (``b`` relative to ``a``)."""
    comparison = compare_records(a, b)
    duration = comparison["duration"]
    lines = [
        f"comparing {a.run_id[:8]} ({a.kind}, {a.started_at or '-'}) "
        f"→ {b.run_id[:8]} ({b.kind}, {b.started_at or '-'})",
        f"duration {format_runtime(duration['a_s'])} → "
        f"{format_runtime(duration['b_s'])}"
        + (f"  ({duration['ratio']:.2f}x)"
           if duration["ratio"] is not None else ""),
        "",
    ]
    headers = ("stage", "a", "b", "ratio")
    rows = []
    for name, row in comparison["stages"].items():
        rows.append((
            name,
            format_runtime(row["a_s"]) if row["a_s"] is not None else "-",
            format_runtime(row["b_s"]) if row["b_s"] is not None else "-",
            f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-",
        ))
    lines.append(format_table(headers, rows))
    return "\n".join(lines)
