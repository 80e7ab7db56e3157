"""Perf-regression gate: compare fresh BENCH files against baselines.

Every benchmark script writes a ``BENCH_<name>.json`` artefact in the
unified shape ``{"schema": 1, <meta...>, "benchmarks": {bench: {metric:
value}}}`` (see ``benchmarks/_emit.py``).  This module is the reading
half: load those artefacts, pair a fresh results directory with the
committed baselines, and classify each metric delta as *gating* or
*informational* — the logic behind ``repro bench check`` and the CI
perf-regression job.

Gate semantics, chosen so the gate is host-portable:

* ``speedup_*`` metrics are algorithmic **ratios** (hist vs exact,
  warm vs cold, ...) and gate: a fresh value below
  ``baseline * (1 - tolerance)`` fails.
* Boolean invariants (``identical``, ``deterministic``) gate on any
  ``True -> False`` regression, tolerance-free.
* Absolute timings (``seconds``, ``*_s``) and other numerics are
  **informational** — reported, never failing, because wall-clock
  depends on the host.
* A benchmark or gating metric present in the baseline but missing
  from the fresh results fails (silent coverage loss); BENCH files
  present on only one side are skipped with a note.
* A benchmark or metric present only in the fresh results is
  informational, whatever its name: it has no baseline to gate on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BenchDelta",
    "check_bench_dirs",
    "compare_benchmarks",
    "load_bench",
    "load_bench_dir",
    "render_bench_check",
]

#: Default relative slack for gating ratio metrics.
DEFAULT_TOLERANCE = 0.25


def load_bench(path) -> dict:
    """Parse and validate one ``BENCH_*.json`` artefact."""
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ValueError(
            f"{path}: not a BENCH artefact (no 'benchmarks' key)"
        )
    if payload.get("schema") != 1:
        raise ValueError(
            f"{path}: unsupported BENCH schema {payload.get('schema')!r}"
        )
    return payload


def load_bench_dir(directory) -> dict[str, dict]:
    """``{suite: payload}`` for every BENCH_*.json under ``directory``.

    The suite name is the filename middle: ``BENCH_kernels.json`` →
    ``kernels``.
    """
    directory = Path(directory)
    out: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        suite = path.stem[len("BENCH_"):]
        out[suite] = load_bench(path)
    return out


def _is_gating_ratio(metric: str) -> bool:
    return metric.startswith("speedup")


def _is_timing(metric: str) -> bool:
    return metric == "seconds" or metric.endswith("_s")


@dataclass
class BenchDelta:
    """One compared metric (or structural problem) and its verdict."""

    suite: str
    benchmark: str
    metric: str
    baseline: object = None
    fresh: object = None
    status: str = "info"
    """``"ok"`` (gated, passed), ``"fail"`` (gated, regressed),
    ``"info"`` (reported only), or ``"missing"`` (coverage loss —
    also failing)."""

    note: str = ""

    @property
    def gating(self) -> bool:
        """Whether this delta can fail the check."""
        return self.status in ("ok", "fail", "missing")

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "missing")


def compare_benchmarks(baseline: dict, fresh: dict, suite: str = "",
                       ratio_tolerance: float = DEFAULT_TOLERANCE,
                       ) -> list[BenchDelta]:
    """Classify every baseline metric of one suite against fresh results.

    ``baseline`` and ``fresh`` are the ``"benchmarks"`` tables of two
    BENCH payloads.  Fresh-only benchmarks and fresh-only metrics of a
    shared benchmark are reported as informational (new coverage never
    fails the gate).
    """
    if not 0.0 <= ratio_tolerance < 1.0:
        raise ValueError("ratio_tolerance must be in [0, 1)")
    deltas: list[BenchDelta] = []
    for bench, base_metrics in baseline.items():
        fresh_metrics = fresh.get(bench)
        if fresh_metrics is None:
            deltas.append(BenchDelta(
                suite=suite, benchmark=bench, metric="*",
                status="missing",
                note="benchmark missing from fresh results",
            ))
            continue
        for metric, base_value in base_metrics.items():
            fresh_value = fresh_metrics.get(metric)
            delta = BenchDelta(
                suite=suite, benchmark=bench, metric=metric,
                baseline=base_value, fresh=fresh_value,
            )
            if isinstance(base_value, bool):
                if fresh_value is None:
                    delta.status = "missing"
                    delta.note = "invariant missing from fresh results"
                elif base_value and not fresh_value:
                    delta.status = "fail"
                    delta.note = "invariant regressed True -> False"
                else:
                    delta.status = "ok"
            elif _is_gating_ratio(metric):
                if fresh_value is None:
                    delta.status = "missing"
                    delta.note = "gating ratio missing from fresh results"
                else:
                    floor = base_value * (1.0 - ratio_tolerance)
                    if float(fresh_value) < floor:
                        delta.status = "fail"
                        delta.note = (
                            f"below baseline*{1 - ratio_tolerance:.2f}"
                            f"={floor:.3f}"
                        )
                    else:
                        delta.status = "ok"
            else:
                delta.status = "info"
                if _is_timing(metric):
                    delta.note = "wall-clock, host-dependent"
            deltas.append(delta)
        for metric, fresh_value in fresh_metrics.items():
            if metric not in base_metrics:
                deltas.append(BenchDelta(
                    suite=suite, benchmark=bench, metric=metric,
                    fresh=fresh_value, status="info",
                    note="new metric (no baseline)",
                ))
    for bench, fresh_metrics in fresh.items():
        if bench not in baseline:
            deltas.append(BenchDelta(
                suite=suite, benchmark=bench, metric="*",
                fresh="present", status="info",
                note="new benchmark (no baseline)",
            ))
    return deltas


def check_bench_dirs(fresh_dir, baseline_dir,
                     ratio_tolerance: float = DEFAULT_TOLERANCE,
                     ) -> tuple[list[BenchDelta], bool]:
    """Compare every suite present in **both** directories.

    Returns ``(deltas, ok)``; ``ok`` is False when any gated metric
    failed.  Suites present on only one side are recorded as
    informational notes — CI runs a subset of the committed suites, so
    an absent fresh file must not fail the gate, but it should be
    visible.
    """
    baseline_suites = load_bench_dir(baseline_dir)
    fresh_suites = load_bench_dir(fresh_dir)
    if not baseline_suites:
        raise ValueError(f"no BENCH_*.json files in {baseline_dir}")
    deltas: list[BenchDelta] = []
    for suite, base_payload in baseline_suites.items():
        fresh_payload = fresh_suites.get(suite)
        if fresh_payload is None:
            deltas.append(BenchDelta(
                suite=suite, benchmark="*", metric="*", status="info",
                note="suite not run (no fresh BENCH file)",
            ))
            continue
        deltas.extend(compare_benchmarks(
            base_payload["benchmarks"], fresh_payload["benchmarks"],
            suite=suite, ratio_tolerance=ratio_tolerance,
        ))
    for suite in fresh_suites:
        if suite not in baseline_suites:
            deltas.append(BenchDelta(
                suite=suite, benchmark="*", metric="*", status="info",
                note="new suite (no committed baseline)",
            ))
    ok = not any(delta.failed for delta in deltas)
    return deltas, ok


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_bench_check(deltas: list[BenchDelta],
                       verbose: bool = False) -> str:
    """Human summary of a check: failures first, then gated passes.

    Informational rows are counted but only listed with ``verbose``.
    """
    failures = [d for d in deltas if d.failed]
    passes = [d for d in deltas if d.gating and not d.failed]
    infos = [d for d in deltas if not d.gating]
    lines: list[str] = []
    for delta in failures:
        lines.append(
            f"FAIL  {delta.suite}/{delta.benchmark}.{delta.metric}  "
            f"baseline={_fmt(delta.baseline)} fresh={_fmt(delta.fresh)}"
            + (f"  ({delta.note})" if delta.note else "")
        )
    for delta in passes:
        lines.append(
            f"ok    {delta.suite}/{delta.benchmark}.{delta.metric}  "
            f"baseline={_fmt(delta.baseline)} fresh={_fmt(delta.fresh)}"
        )
    if verbose:
        for delta in infos:
            lines.append(
                f"info  {delta.suite}/{delta.benchmark}.{delta.metric}  "
                f"baseline={_fmt(delta.baseline)} "
                f"fresh={_fmt(delta.fresh)}"
                + (f"  ({delta.note})" if delta.note else "")
            )
    lines.append(
        f"bench check: {len(passes)} gated ok, {len(failures)} failed, "
        f"{len(infos)} informational"
    )
    lines.append("RESULT: " + ("FAIL" if failures else "PASS"))
    return "\n".join(lines)
