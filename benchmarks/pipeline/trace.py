"""Out-of-program span tracing for the pipeline benchmark.

:func:`install` wraps public entry points of ``repro`` from the outside:
each function is rebound in every ``repro.*`` module that holds it (so
``from .fra import fra_reduce`` aliases are caught too) and each method
is replaced on its class.  Every call then appends one JSON line —
``name``, ``start``, ``end``, ``id``, ``parent``, ``pid`` — to
``spans-<pid>.jsonl`` in the trace directory.

Pool workers are forked, so they inherit the wrappers and the caller's
open-span stack: a worker's outermost spans name the parent-process span
that was open when the pool forked (the scenario fan-out's
``parallel.map``).  Each record is written with one unbuffered
``os.write`` because forked workers leave through ``os._exit`` and never
run ``atexit`` hooks.  Times come from ``time.monotonic``, which is one
system-wide clock on Linux, so spans from different processes line up.

:func:`layer_metrics` turns the span files plus the program's own
counters into the benchmark's per-layer metrics.  A span's self time is
its duration minus the union of its children's intervals, children from
any process included.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Span name -> wrapped entry point (``module:function`` or
#: ``module:Class.method``).  ``ml.tree.fit`` spans are renamed per
#: kernel (``ml.tree.fit_exact`` / ``ml.tree.fit_hist``) at call time.
TARGETS = (
    ("pipeline.run", "repro.core.pipeline:run_experiment"),
    ("incremental.update", "repro.incremental.update:update_experiment"),
    ("synth.generate", "repro.synth.dataset:generate_raw_dataset"),
    ("synth.extend", "repro.synth.extend:extend_raw_dataset"),
    ("core.scenarios", "repro.core.scenarios:build_all_scenarios"),
    ("core.scenarios.digest", "repro.core.scenarios:period_digests"),
    ("core.selection", "repro.core.selection:select_final_features"),
    ("core.selection.shap", "repro.core.selection:shap_ranking"),
    ("core.fra", "repro.core.fra:fra_reduce"),
    ("core.horizons", "repro.core.horizons:rf_feature_importance"),
    ("core.improvement", "repro.core.improvement:scenario_improvements"),
    ("core.improvement.evaluate",
     "repro.core.improvement:evaluate_feature_set"),
    ("ml.tree.fit", "repro.ml.tree:DecisionTreeRegressor.fit"),
    ("ml.tree.bin", "repro.ml.tree:bin_features"),
    ("ml.forest.fit", "repro.ml.forest:RandomForestRegressor.fit"),
    ("ml.boosting.fit", "repro.ml.boosting:GradientBoostingRegressor.fit"),
    ("ml.compiled.compile", "repro.ml.compiled:compile_ensemble"),
    ("ml.compiled.predict", "repro.ml.compiled:CompiledEnsemble.predict"),
    ("ml.compiled.predict",
     "repro.ml.compiled:CompiledEnsemble.predict_binned"),
    ("ml.compiled.predict", "repro.ml.compiled:CompiledEnsemble.predict_many"),
    ("ml.compiled.predict",
     "repro.ml.compiled:PermutationScorer.predict_feature"),
    ("ml.importance.pfi", "repro.ml.importance:permutation_importance"),
    ("ml.shap", "repro.ml.shap:shap_importance"),
    ("ml.model_selection.grid", "repro.ml.model_selection:GridSearchCV.fit"),
    ("cache.get", "repro.cache.store:CacheStore.get"),
    ("cache.put", "repro.cache.store:CacheStore.put"),
    ("parallel.lease", "repro.parallel.pool:WorkerPool.lease"),
    ("parallel.share", "repro.parallel.shm:SharedDataset.share"),
    ("parallel.map", "repro.parallel.executor:ParallelMap.map"),
    ("parallel.graph", "repro.parallel.graph:TaskGraph.run"),
)

#: Program counters (``results.run_summary.metrics["counters"]``) that
#: are reported as-is.
COUNTER_METRICS = {
    "ml.tree.fits_exact": "ml.tree_fit.exact",
    "ml.tree.fits_hist": "ml.tree_fit.hist",
    "ml.compiled.compiles": "predict.compile_builds",
    "ml.compiled.predict_rows": "predict.compiled_rows",
    "parallel.pool_builds": "parallel.pool_builds",
    "parallel.shm_bytes": "parallel.shm_bytes",
    "parallel.bytes_shipped": "parallel.bytes_shipped",
    "parallel.worker_crashes": "parallel.worker_crashes",
    "parallel.retries": "parallel.retries",
    "parallel.timeouts": "parallel.timeouts",
    "parallel.serial_fallbacks": "parallel.serial_fallbacks",
    "cache.bytes_written": "cache.bytes_written",
    "cache.corrupt": "cache.corrupt",
}


class SpanWriter:
    """Times wrapped calls and appends one JSON line per finished span."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self._pid = None
        self._fd = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open(self) -> int:
        pid = os.getpid()
        if pid != self._pid:  # first span, or first span in a forked worker
            self._pid = pid
            self._ids = itertools.count(1)
            self._fd = os.open(self.directory / f"spans-{pid}.jsonl",
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        return self._fd

    def call(self, name: str, fn, args, kwargs):
        fd = self._open()
        span_id = f"{self._pid}.{next(self._ids)}"
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            os.write(fd, (json.dumps({
                "name": name, "start": start, "end": end, "id": span_id,
                "parent": parent, "pid": self._pid,
            }) + "\n").encode())


def _wrap(writer: SpanWriter, name: str, fn):
    if name == "ml.tree.fit":
        @functools.wraps(fn)
        def traced_fit(self, *args, **kwargs):
            return writer.call(f"ml.tree.fit_{self.splitter}", fn,
                               (self, *args), kwargs)
        return traced_fit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return writer.call(name, fn, args, kwargs)
    return traced


def install(directory, targets=TARGETS):
    """Wrap every target; returns a zero-argument function that undoes it.

    A function target is rebound under every name that holds it in any
    loaded ``repro`` module; modules imported later pick the wrapper up
    from the defining module.
    """
    writer = SpanWriter(directory)
    undo = []
    for name, target in targets:
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            setattr(owner, method, _wrap(writer, name, original))
            undo.append((owner, method, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(writer, name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    undo.append((loaded, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return uninstall


# ----------------------------------------------------------------------
# Analysis


def load_spans(directory) -> list[dict]:
    """Every span record written under ``directory``, in start order."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    spans.sort(key=lambda s: s["start"])
    return spans


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(spans, start, end):
    return [(max(s["start"], start), min(s["end"], end)) for s in spans
            if s["end"] > start and s["start"] < end]


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return {
        span["id"]: (span["end"] - span["start"]) - union_length(
            _clipped(children.get(span["id"], []), span["start"],
                     span["end"]))
        for span in spans
    }


def _dissolve_serial_maps(spans) -> list[dict]:
    """Drop ``parallel.map`` spans that ran inline.

    A map that never fanned out (no child span in another process) is
    part of its caller's work, e.g. a grid search's fold loop, so its
    children are re-parented to the map's own parent.
    """
    by_id = {span["id"]: span for span in spans}
    fanned = {span["parent"] for span in spans
              if span["parent"] in by_id
              and by_id[span["parent"]]["pid"] != span["pid"]}
    inline = {span["id"]: span["parent"] for span in spans
              if span["name"] == "parallel.map" and span["id"] not in fanned}
    out = []
    for span in spans:
        if span["id"] in inline:
            continue
        parent = span["parent"]
        while parent in inline:
            parent = inline[parent]
        out.append({**span, "parent": parent})
    return out


def layer_metrics(spans, counters: dict, overhead_pct: float
                  ) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    spans = _dissolve_serial_maps(spans)
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(selfs[s["id"]] for n in names for s in by_name.get(n, ()))

    def total_s(name):
        per_pid: dict[int, list] = {}
        for s in by_name.get(name, ()):
            per_pid.setdefault(s["pid"], []).append((s["start"], s["end"]))
        return sum(union_length(iv) for iv in per_pid.values())

    root_pid = spans[0]["pid"] if spans else None
    intervals: dict[int, list] = {}
    for s in spans:
        intervals.setdefault(s["pid"], []).append((s["start"], s["end"]))
    covered = {pid: union_length(iv) for pid, iv in intervals.items()}
    work_s = sum(covered.values())

    def share(*names):
        return sum(map(total_s, names)) / work_s if work_s else 0.0

    run_s = sum(s["end"] - s["start"] for s in by_name.get("pipeline.run", ()))
    graph_in_runs = [s for s in by_name.get("parallel.graph", ())
                     if s["pid"] == root_pid]
    unattributed = self_s("pipeline.run") + sum(
        selfs[s["id"]] for s in graph_in_runs)

    by_id = {s["id"]: s for s in spans}

    def under(span, ancestor):
        parent = span["parent"]
        while parent in by_id:
            if by_id[parent]["name"] == ancestor:
                return True
            parent = by_id[parent]["parent"]
        return False

    grid_fits = sum(
        1 for name in ("ml.forest.fit", "ml.boosting.fit")
        for s in by_name.get(name, ())
        if under(s, "ml.model_selection.grid"))

    maps = by_name.get("parallel.map", ())
    workers = [pid for pid in covered if pid != root_pid]
    map_wall = sum(m["end"] - m["start"] for m in maps)
    busy = sum(covered[pid] for pid in workers)
    tail = 0.0
    for m in maps:
        last_ends = {}
        for s in spans:
            if s["pid"] != m["pid"] and m["start"] <= s["start"] < m["end"]:
                last_ends[s["pid"]] = max(last_ends.get(s["pid"], 0.0),
                                          s["end"])
        if last_ends:
            tail += m["end"] - min(last_ends.values())

    ensemble_fits = calls("ml.forest.fit") + calls("ml.boosting.fit")
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    out = {
        "core.scenarios.self_s": self_s("core.scenarios"),
        "core.scenarios.digest_s": total_s("core.scenarios.digest"),
        "core.fra.calls": calls("core.fra"),
        "core.fra.self_s": self_s("core.fra"),
        "core.fra.share": share("core.fra"),
        "core.selection.self_s": self_s("core.selection"),
        "core.selection.shap_self_s": self_s("core.selection.shap"),
        "core.selection.shap_share": share("core.selection.shap"),
        "core.horizons.self_s": self_s("core.horizons"),
        "core.horizons.share": share("core.horizons"),
        "core.improvement.evaluations": calls("core.improvement.evaluate"),
        "core.improvement.self_s": self_s("core.improvement",
                                          "core.improvement.evaluate"),
        "core.improvement.share": share("core.improvement"),
        "pipeline.unattributed_share": unattributed / run_s if run_s else 0.0,
        "ml.tree.fit_exact_s": total_s("ml.tree.fit_exact"),
        "ml.tree.fit_hist_s": total_s("ml.tree.fit_hist"),
        "ml.tree.fit_share": share("ml.tree.fit_exact", "ml.tree.fit_hist"),
        "ml.tree.bin_calls": calls("ml.tree.bin"),
        "ml.tree.bin_s": total_s("ml.tree.bin"),
        "ml.tree.bin_share": share("ml.tree.bin"),
        "ml.tree.bins_per_fit": (calls("ml.tree.bin") / ensemble_fits
                                 if ensemble_fits else 0.0),
        "ml.forest.fits": calls("ml.forest.fit"),
        "ml.forest.self_s": self_s("ml.forest.fit"),
        "ml.forest.share": share("ml.forest.fit"),
        "ml.boosting.fits": calls("ml.boosting.fit"),
        "ml.boosting.self_s": self_s("ml.boosting.fit"),
        "ml.boosting.share": share("ml.boosting.fit"),
        "ml.compiled.compile_s": total_s("ml.compiled.compile"),
        "ml.compiled.predict_s": total_s("ml.compiled.predict"),
        "ml.compiled.predict_share": share("ml.compiled.predict"),
        "ml.importance.pfi_calls": calls("ml.importance.pfi"),
        "ml.importance.pfi_self_s": self_s("ml.importance.pfi"),
        "ml.importance.pfi_share": share("ml.importance.pfi"),
        "ml.shap.calls": calls("ml.shap"),
        "ml.shap.self_s": self_s("ml.shap"),
        "ml.model_selection.grid_fits": grid_fits,
        "ml.model_selection.self_s": self_s("ml.model_selection.grid"),
        "parallel.lease_s": total_s("parallel.lease"),
        "parallel.share_s": total_s("parallel.share"),
        "parallel.map_wall_s": map_wall,
        "parallel.worker_busy_s": busy,
        "parallel.fanout_efficiency": (busy / (map_wall * len(workers))
                                       if map_wall and workers else 0.0),
        "parallel.tail_s": tail,
        "parallel.tail_share": tail / map_wall if map_wall else 0.0,
        "parallel.graph_self_s": self_s("parallel.graph"),
        "cache.gets": calls("cache.get"),
        "cache.get_s": total_s("cache.get"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.puts": calls("cache.put"),
        "cache.put_s": total_s("cache.put"),
        "synth.generate_s": total_s("synth.generate"),
        "synth.extend_s": total_s("synth.extend"),
        "incremental.self_s": self_s("incremental.update"),
        "trace.overhead_pct": overhead_pct,
    }
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0)
    return out
