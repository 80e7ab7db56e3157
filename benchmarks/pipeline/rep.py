"""One measured process of the pipeline benchmark.

``run.py`` starts this script once per repetition, one at a time, so
every measurement sees what a user of ``repro run`` sees: a fresh
interpreter, a cold import and the process's own peak RSS.  It takes a
JSON spec and writes one JSON result::

    python rep.py '<spec json>' <result path>

Spec keys: ``op`` (``study`` | ``prime`` | ``chain`` | ``setup``),
``seed``, ``splitter``, ``n_jobs``, ``scale``, ``t0`` (the parent's
``time.monotonic()`` just before it started this process),
``cache_dir`` and ``trace_dir`` (or null; a relative path is inside the
process's working directory), and for ``chain`` the ``updates`` /
``warm`` counts.  The parent checks the output digests.

``setup_s`` runs from ``t0`` to just before the first timed call, so it
covers interpreter start, import and config construction; a ``setup``
process stops there.  Only public APIs are called: ``run_experiment``
and ``update_experiment``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

#: The benchmark's study is ``ExperimentConfig.fast`` with two counts
#: cut, so that a cold exact-kernel run takes 26-38 s instead of
#: 45-50 s on a 2-core host.  The simulation, the four scenarios and
#: every model size stay as in ``fast``: cutting sizes instead would
#: inflate per-fit fixed costs such as binning and PFI set-up, and so
#: change which layers dominate (``fidelity.py`` measures this).
#:
#: * FRA runs exactly ``FRA_ITERATIONS`` iterations per scenario.  The
#:   preset stops at 40 surviving features, which took 6 to 24
#:   iterations per scenario over seeds 1-10 (48 to 78 per study), so
#:   its work moved with the seed.
#: * Improvement grid searches use ``CV_FOLDS`` folds instead of 3,
#:   which cuts improvement work about as much as the FRA pin cuts FRA.
FRA_ITERATIONS = 6
CV_FOLDS = 2

#: ``bench`` is the benchmark's study, ``preset`` the unmodified
#: ``ExperimentConfig.fast`` that ``fidelity.py`` compares it with, and
#: ``tiny`` the harness tests' smoke size.
SCALES = ("bench", "preset", "tiny")


def n_scenarios(scale: str) -> int:
    return 2 if scale == "tiny" else 4


def study_config(seed: int, splitter: str, n_jobs: int, scale: str):
    """The study every ``study_*`` workload runs: 2 periods x 2 windows."""
    from repro import ExperimentConfig

    config = replace(ExperimentConfig.fast(seed), splitter=splitter,
                     n_jobs=n_jobs)
    if scale == "preset":
        return config
    config = replace(
        config,
        fra=replace(config.fra, target_size=1,
                    max_iterations=FRA_ITERATIONS),
        improvement_rf=replace(config.improvement_rf, cv_folds=CV_FOLDS),
        improvement_gb=replace(config.improvement_gb, cv_folds=CV_FOLDS),
    )
    return _tiny(config) if scale == "tiny" else config


def _tiny(config):
    """One window, a shorter simulation, one FRA iteration, 2 trees."""
    two = {"n_estimators": 2}
    return replace(
        config,
        simulation=replace(config.simulation, end="2019-12-31"),
        windows=(7,),
        fra=replace(config.fra, max_iterations=1,
                    rf_params={**config.fra.rf_params, **two, "max_depth": 4},
                    gb_params={**config.fra.gb_params, **two}),
        shap=replace(config.shap, gb_params={**config.shap.gb_params, **two}),
        improvement_rf=replace(config.improvement_rf, param_grid={
            "n_estimators": [2], "max_depth": [4], "max_features": ["sqrt"]}),
        improvement_gb=replace(config.improvement_gb, param_grid={
            "n_estimators": [2], "max_depth": [3]}),
        rf_importance_params={**config.rf_importance_params, **two,
                              "max_depth": 4},
    )


def daily_config(seed: int, n_jobs: int, scale: str):
    """The study on the default-length simulation (ends 2023-06-30, the
    last day of both periods), so a 1-day extension touches no period
    and every scenario is served from the cache."""
    from repro import SimulationConfig

    return replace(study_config(seed, "hist", n_jobs, scale),
                   simulation=SimulationConfig(seed=seed))


def results_digest(results) -> str:
    """sha256 over Table 1 sizes, final feature lists, RF importances and
    every diverse/category MSE (floats as ``float.hex``)."""
    doc = {
        "table1": sorted(results.table1_vector_sizes().items()),
        "features": sorted(
            (key, list(art.selection.final_features))
            for key, art in results.artifacts.items()),
        "importance": sorted(
            (key, sorted((name, float(value).hex())
                         for name, value in art.rf_importance.items()))
            for key, art in results.artifacts.items()),
        "improvement": sorted(
            (model, imp.period, imp.window, float(imp.diverse_mse).hex(),
             sorted((str(cat.value), float(mse).hex())
                    for cat, mse in imp.category_mse.items()))
            for model in ("rf", "gb")
            for imp in getattr(results, f"improvements_{model}")),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _reap_workers() -> None:
    """Wait for pool workers, so their CPU and RSS reach RUSAGE_CHILDREN."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _run_op(results, wall_s: float, cpu_s: float, kind: str) -> dict:
    counters = results.run_summary.metrics.get("counters", {})
    errors = [str(failure) for failure in results.failures.values()]
    return {
        "kind": kind, "wall_s": wall_s, "cpu_s": cpu_s,
        "scenarios": len(results.artifacts) + len(results.failures),
        "failed_scenarios": len(results.failures),
        "digest": results_digest(results),
        "cache_misses": int(counters.get("cache.misses", 0)),
        "errors": errors,
    }


def _add_counters(total: dict, results) -> None:
    for name, value in results.run_summary.metrics.get("counters",
                                                       {}).items():
        total[name] = total.get(name, 0) + value


def run(spec: dict) -> dict:
    import numpy

    import repro.core.pipeline as pipeline
    import repro.incremental.update as incremental
    from repro.obs import git_describe

    if spec["trace_dir"]:
        import trace  # this directory's trace.py: the script dir is on sys.path
        trace.install(spec["trace_dir"])
    seed, scale, cache_dir = spec["seed"], spec["scale"], spec["cache_dir"]
    op = spec["op"]
    if op == "study":
        config = study_config(seed, spec["splitter"], spec["n_jobs"], scale)
    else:
        config = daily_config(seed, spec["n_jobs"], scale)
    counters: dict = {}
    ops = []
    # Peak RSS through the first operation: what one `repro run` or one
    # `repro update` process holds.  Later chained updates only add
    # allocator fragmentation, which varies with the seed.
    peak_rss_mb = []
    setup_s = time.monotonic() - spec["t0"]

    def timed(kind, call):
        # Each operation starts from a collected heap, as in a fresh
        # process; otherwise cyclic garbage from earlier operations
        # lands in later ones' pause times.
        gc.collect()
        cpu0, start = _cpu_s(), time.perf_counter()
        out = call()
        wall = time.perf_counter() - start
        _reap_workers()
        cpu = _cpu_s() - cpu0
        if not peak_rss_mb:
            peak_rss_mb.append(_peak_rss_mb())
        results = out.results if kind == "update" else out
        ops.append(_run_op(results, wall, cpu, kind))
        _add_counters(counters, results)
        return out

    def rerun():
        return pipeline.run_experiment(config, cache_dir=cache_dir)

    if op in ("study", "prime"):
        timed("run", rerun)
    elif op == "chain":
        current, raw = config, None
        every = max(1, spec["updates"] // max(1, spec["warm"]))
        for i in range(spec["updates"]):
            update = timed("update", lambda: incremental.update_experiment(
                current, days=1, raw=raw, cache_dir=cache_dir))
            if not update.dataset_reused:
                ops[-1]["errors"].append("parent dataset was not reused")
            if update.scenarios_cached != update.scenarios_total:
                ops[-1]["errors"].append(
                    f"{update.scenarios_cached}/{update.scenarios_total} "
                    "scenarios served from the cache")
            current, raw = update.config, update.results.raw
            if i % every == every - 1 and i // every < spec["warm"]:
                timed("warm", rerun)
    return {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb[0] if peak_rss_mb else _peak_rss_mb(),
        "counters": counters,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "git": git_describe()},
    }


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    Path(sys.argv[2]).write_text(json.dumps(result))
