"""Content-addressed artifact caching for the experiment pipeline.

The paper's workload recomputes identical artifacts constantly: raw
synthetic datasets regenerate per process, engineered scenario frames
rebuild per run, and re-running a configuration repeats thousands of
deterministic model fits. This package memoises those artifacts on disk,
addressed by sha256 digests of *everything that determines them* —
config fingerprints (:func:`config_fingerprint`, which folds fault
plans and degradation policies into the address so chaos runs never
alias clean runs), estimator parameters, and raw data bytes.

The cache is also the run's only persistence layer: every finished
scenario task is written as it completes, so a killed run resumes by
rerunning it with the same ``cache_dir`` — finished scenarios are read
back, only the rest are computed.

Layout:

* :mod:`~repro.cache.codec` — the self-verifying artifact frame (magic
  + schema version + payload sha256) every store entry is written in;
  distinguishes :class:`CorruptArtifact` (damaged
  bytes → quarantine) from :class:`StaleArtifact` (intact bytes, old
  schema → plain miss).
* :mod:`~repro.cache.store` — :class:`CacheStore`, the atomic on-disk
  pickle store with hit/miss/corrupt/bytes counters in the metrics
  registry plus ``stats``/``verify``/``gc``/``clear`` maintenance
  (surfaced as the ``repro cache`` CLI).
* :mod:`~repro.cache.keys` — config fingerprints and key builders
  (dataset, scenario frames, per-scenario task results, fitted models).
* :mod:`~repro.cache.context` — :func:`use_cache` / :func:`current_cache`
  scoped store access, so deep layers need no signature changes.
* :mod:`~repro.cache.fit` — :func:`fit_cached`, memoised ``fit`` through
  :mod:`repro.ml.persistence` (bit-identical round-trip).
* :mod:`~repro.cache.compiled` — :func:`compile_cached`, memoised
  flat-array predict compilation (:mod:`repro.ml.compiled`), addressed
  by the fitted tree structure itself.

Wired into ``run_experiment(cache_dir=...)`` and the CLI via
``repro run --cache-dir / --no-cache`` (see :mod:`repro.core.pipeline`).
Everything degrades to plain computation when no store is installed.
"""

from .codec import (
    CorruptArtifact,
    StaleArtifact,
    dump_artifact,
    load_artifact,
    quarantine_entry,
)
from .compiled import compile_cached
from .context import current_cache, use_cache
from .fit import fit_cached
from .keys import (
    array_digest,
    compiled_key,
    config_fingerprint,
    dataset_key,
    fingerprint_parts,
    frame_digest,
    model_fit_key,
    range_digest,
    scenarios_key,
    task_key,
)
from .store import CacheStore

__all__ = [
    "CacheStore",
    "CorruptArtifact",
    "StaleArtifact",
    "array_digest",
    "compile_cached",
    "compiled_key",
    "config_fingerprint",
    "current_cache",
    "dataset_key",
    "dump_artifact",
    "fingerprint_parts",
    "fit_cached",
    "frame_digest",
    "load_artifact",
    "model_fit_key",
    "quarantine_entry",
    "range_digest",
    "scenarios_key",
    "task_key",
    "use_cache",
]
