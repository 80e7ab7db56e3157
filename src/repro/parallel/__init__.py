"""Deterministic multi-core execution for the experiment pipeline.

``repro.parallel`` is the stdlib-only execution layer behind the one
place the study runs in parallel: the pipeline's per-scenario fan-out
(``ExperimentConfig.n_jobs``, CLI ``repro run --jobs N``).  Everything
inside a scenario — forest fits, permutation importance, grid search,
TreeSHAP — runs serially in whichever process owns the scenario.

Design contract:

* **Determinism** — scenario tasks are pure and every random draw is
  derived from the config (:func:`spawn_seeds` seeds forest trees), so
  results are bit-identical for any ``n_jobs``.
* **Worker-count resolution** — explicit ``n_jobs`` argument →
  ``REPRO_JOBS`` environment variable → ``os.cpu_count()``
  (:func:`resolve_n_jobs`); ``n_jobs=1`` is a guaranteed serial fast
  path that never constructs a pool.
* **Observability** — process workers run under a fresh
  :class:`repro.obs.Tracer` / :class:`repro.obs.MetricsRegistry` whose
  spans and metric values are merged back into the parent's current
  tracer and registry, so the run ledger (``repro report --run``)
  accounts for all work no matter where it ran.
* **No nested pools** — a :class:`ParallelMap` used inside a worker runs
  inline (:func:`in_worker`), so a fan-out never oversubscribes the
  machine.
* **One pool, shared inputs** — the fan-out leases one persistent
  :class:`WorkerPool`, and the scenario matrices are published once to
  its :class:`SharedDataset` so workers attach instead of unpickling.
* **Supervision** — one item per submission, at most ``n_jobs`` in
  flight.  The pool survives worker death: broken pools are rebuilt,
  unfinished items resubmitted under a bounded retry budget, hung items
  killed after ``timeout=`` / ``$REPRO_TASK_TIMEOUT`` seconds, and an
  item that dies alone twice ends as a :class:`WorkerCrash` while every
  other item's result is recovered (see
  :mod:`repro.parallel.supervision`).

Quick tour::

    from repro.parallel import ParallelMap

    results = ParallelMap(n_jobs=4).map(run_one, items)  # item order
"""

from .executor import (
    ItemFailure,
    ParallelMap,
    WorkerCrash,
    in_worker,
    resolve_n_jobs,
    resolve_task_retries,
    resolve_task_timeout,
)
from .graph import TaskGraph
from .pool import WorkerPool, current_pool, use_pool
from .seeding import spawn_seeds
from .shm import (
    SharedArray,
    SharedDataset,
    SharedMatrix,
    SharedSegmentGone,
    shm_enabled,
)

__all__ = [
    "ItemFailure",
    "ParallelMap",
    "SharedArray",
    "SharedDataset",
    "SharedMatrix",
    "SharedSegmentGone",
    "TaskGraph",
    "WorkerCrash",
    "WorkerPool",
    "current_pool",
    "in_worker",
    "resolve_n_jobs",
    "resolve_task_retries",
    "resolve_task_timeout",
    "shm_enabled",
    "spawn_seeds",
    "use_pool",
]
