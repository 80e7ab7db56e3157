"""Content-addressed artifact caching for the experiment pipeline.

The paper's unit of work is one (period, window) scenario, and so is
this cache's unit of reuse. Re-running a configuration would otherwise
regenerate the raw synthetic dataset, rebuild every engineered scenario
frame and repeat every scenario's deterministic selection and model
fits. This package memoises two kinds of artifact on disk: the raw
dataset and each scenario's whole task result (what the task computed,
not the scenario matrices it fitted on, which are rebuilt from the
dataset in milliseconds).
Each is addressed by a sha256 digest of *everything that determines
it*: config fingerprints (:func:`config_fingerprint`, which folds fault
plans and degradation policies into the address so chaos runs never
alias clean runs) and the bytes of the data the artifact can see.

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
  (dataset, per-scenario task results).

Wired into ``run_experiment(cache_dir=...)`` and the CLI via
``repro run --cache-dir / --no-cache`` (see :mod:`repro.core.pipeline`).
Everything degrades to plain computation when no ``cache_dir`` is given.
"""

from .codec import (
    CorruptArtifact,
    StaleArtifact,
    dump_artifact,
    load_artifact,
    quarantine_entry,
)
from .keys import (
    array_digest,
    config_fingerprint,
    dataset_key,
    fingerprint_parts,
    frame_digest,
    range_digest,
    task_key,
)
from .store import CacheStore

__all__ = [
    "CacheStore",
    "CorruptArtifact",
    "StaleArtifact",
    "array_digest",
    "config_fingerprint",
    "dataset_key",
    "dump_artifact",
    "fingerprint_parts",
    "frame_digest",
    "load_artifact",
    "quarantine_entry",
    "range_digest",
    "task_key",
]
