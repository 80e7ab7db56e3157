"""Shared BENCH artefact writer: one schema for every bench script.

Every benchmark harness in this directory emits its machine-readable
results through :func:`write_bench`, which enforces the unified shape
the perf-regression gate (``repro bench check``, :mod:`repro.obs.bench`)
parses::

    {
      "schema": 1,
      <free-form meta: cpu_count, n_jobs, note, ...>,
      "benchmarks": {<bench name>: {<metric>: <value>, ...}, ...}
    }

Metric-name conventions the gate relies on: ``speedup_*`` values are
host-portable ratios and **gate** against baselines; booleans
(``identical``, ``deterministic``) gate on True→False regressions;
``seconds`` / ``*_s`` are host-dependent wall-clock and informational.

The output directory is ``benchmarks/results/`` (the committed
baselines) unless ``REPRO_BENCH_DIR`` points elsewhere — CI sets it to
a scratch directory so fresh results never clobber the baselines they
are compared against.  When ``REPRO_LEDGER`` is set, each write also
appends a ``kind="bench"`` record to that run ledger.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

SCHEMA = 1
ENV_BENCH_DIR = "REPRO_BENCH_DIR"


def results_dir() -> Path:
    """Where BENCH artefacts land: ``$REPRO_BENCH_DIR`` or the
    committed ``benchmarks/results/`` baseline directory."""
    env = os.environ.get(ENV_BENCH_DIR, "").strip()
    if env:
        return Path(env)
    return Path(__file__).parent / "results"


def write_bench(name: str, benchmarks: dict, note: str | None = None,
                **meta) -> Path:
    """Write ``BENCH_<name>.json`` in the unified schema; returns the path.

    ``benchmarks`` maps bench name → metric dict; ``meta`` lands at the
    top level next to ``schema`` (``cpu_count``, ``n_jobs``, ...).
    """
    if not benchmarks:
        raise ValueError("refusing to write an empty BENCH artefact")
    payload: dict = {"schema": SCHEMA, **meta}
    if note is not None:
        payload["note"] = note
    payload["benchmarks"] = benchmarks
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    _ledger_append(name, benchmarks)
    return path


def _ledger_append(name: str, benchmarks: dict) -> None:
    """Append a ``kind="bench"`` ledger record when ``REPRO_LEDGER`` is
    set; best-effort (an unwritable ledger never fails a bench run)."""
    ledger_path = os.environ.get("REPRO_LEDGER", "").strip()
    if not ledger_path:
        return
    from repro.obs import RunLedger, build_record

    RunLedger(ledger_path).try_append(build_record(
        "bench", labels={"suite": name}, extra={"benchmarks": benchmarks},
    ))
