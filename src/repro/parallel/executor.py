"""``ParallelMap``: ordered, deterministic fan-out over worker processes.

The facade runs one ``map``-shaped API over a supervised
:class:`~repro.parallel.WorkerPool`, with a guaranteed serial fast
path:

* ``n_jobs=1`` (or a single item, or a call from inside a worker) runs
  the function inline — no pool, no pickling, no obs indirection.
* Each item is its own submission, with at most ``n_jobs`` in flight,
  so the next item goes to the first free worker.
* Results always come back in submission order; worker errors are
  consumed in *completion* order, so the first failure anywhere aborts
  the map without waiting behind earlier items.
* ``map(..., return_exceptions=True)`` switches to *partial-results*
  mode: a failing item yields an :class:`ItemFailure` at its position
  instead of aborting the whole map, so long fan-outs survive isolated
  failures (``KeyboardInterrupt``/``SystemExit`` still propagate).
* Process fan-out is *supervised*
  (:mod:`repro.parallel.supervision`): a worker killed by the OS or
  hung past the per-item deadline (``timeout=`` /
  ``$REPRO_TASK_TIMEOUT``) does not abort the fan-out — the pool is
  rebuilt, unfinished items are resubmitted under a bounded retry
  budget, and a poison item ends as a
  :class:`~repro.parallel.WorkerCrash` while every other item's result
  is recovered.
* Process workers capture their :mod:`repro.obs` spans and metrics and
  the parent merges them into its current tracer/registry, re-parented
  under the span that was open at the call site.

Mapped functions must be picklable: module-level functions, optionally
wrapped in :func:`functools.partial` to bind their arguments.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback as traceback_module
from functools import partial

from ..obs import (
    MetricsRegistry,
    Tracer,
    current_metrics,
    current_tracer,
    set_current_metrics,
    set_current_tracer,
)
from .pool import WorkerPool, current_pool
from .supervision import (
    ItemFailure,
    Supervisor,
    WorkerCrash,
    resolve_task_retries,
    resolve_task_timeout,
)

__all__ = [
    "ItemFailure",
    "ParallelMap",
    "WorkerCrash",
    "in_worker",
    "resolve_n_jobs",
    "resolve_task_retries",
    "resolve_task_timeout",
]

#: Environment variable honoured by :func:`resolve_n_jobs`.
ENV_JOBS = "REPRO_JOBS"

_worker_state = threading.local()


def in_worker() -> bool:
    """True while executing inside a ``ParallelMap`` worker.

    Library code uses this to degrade nested parallelism to the serial
    path instead of spawning pools from within pools.
    """
    return getattr(_worker_state, "active", False)


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve a worker count: arg → ``REPRO_JOBS`` → ``os.cpu_count()``.

    Negative values count back from the CPU total (``-1`` = all cores,
    ``-2`` = all but one, never below 1), matching the sklearn
    convention.  ``0`` is rejected.
    """
    if n_jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if env:
            try:
                n_jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_JOBS} must be an integer, got {env!r}"
                ) from None
        else:
            return max(1, os.cpu_count() or 1)
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, int):
        raise TypeError(f"n_jobs must be an int or None, got {n_jobs!r}")
    if n_jobs == 0:
        raise ValueError("n_jobs must not be 0 (use 1 for serial)")
    if n_jobs < 0:
        return max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    return n_jobs


def _capture_call(fn, item, index: int, ship_across_process: bool):
    """``fn(item)``, converting an ``Exception`` into an ItemFailure."""
    try:
        return fn(item)
    except Exception as exc:  # noqa: BLE001 — the mode's whole point
        exception: BaseException | None = exc
        if ship_across_process:
            try:
                pickle.dumps(exc)
            except Exception:
                exception = None
        return ItemFailure(
            index=index,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback_module.format_exc(),
            exception=exception,
        )


# ----------------------------------------------------------------------
# Worker entry point (module-level: picklable under every start method).
# ----------------------------------------------------------------------
def _run_item_process(fn, item, index, capture=False):
    """Run one item in a worker process under fresh obs sinks.

    Returns ``(result, span_records, metrics_dump)`` so the parent can
    merge the telemetry back into its own tracer/registry.
    """
    _worker_state.active = True
    tracer = Tracer()
    metrics = MetricsRegistry()
    previous_tracer = set_current_tracer(tracer)
    previous_metrics = set_current_metrics(metrics)
    try:
        if capture:
            result = _capture_call(fn, item, index,
                                   ship_across_process=True)
        else:
            result = fn(item)
    finally:
        set_current_tracer(previous_tracer)
        set_current_metrics(previous_metrics)
        _worker_state.active = False
    return (
        result,
        [record.to_dict() for record in tracer.spans],
        metrics.dump(),
    )


class ParallelMap:
    """Ordered process-parallel ``map`` with a serial fast path.

    Parameters
    ----------
    n_jobs:
        Worker count; resolved through :func:`resolve_n_jobs`
        (``None`` → ``REPRO_JOBS`` → all cores; 1 = serial, never
        spawns a pool).
    timeout:
        Per-item deadline in seconds (``None`` →
        ``$REPRO_TASK_TIMEOUT`` → no deadline).  An item observed
        running past it has its worker killed and is reported by the
        supervision layer.  The serial path cannot kill a hung task
        and ignores it.
    max_retries:
        Pool-rebuild budget for the supervision layer (``None`` →
        ``$REPRO_TASK_RETRIES`` → 16).  Once spent, unresolved items
        fail as :class:`WorkerCrash` instead of retrying forever.
    """

    def __init__(self, n_jobs: int | None = None,
                 timeout: float | None = None,
                 max_retries: int | None = None):
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.timeout = resolve_task_timeout(timeout)
        self.max_retries = resolve_task_retries(max_retries)

    # ------------------------------------------------------------------
    def map(self, fn, items, return_exceptions: bool = False) -> list:
        """``[fn(item) for item in items]``, possibly across workers.

        Results preserve item order.  When the map fans out, ``fn``
        (plus bound arguments) and the items must be picklable.

        With ``return_exceptions=True`` an item whose call raises an
        ``Exception`` contributes an :class:`ItemFailure` (carrying the
        worker-side traceback) at its position instead of aborting the
        map — the other items' results are preserved.  Worker deaths
        and deadline overruns surface as
        ``error_type == "WorkerCrash"`` failures after the supervision
        layer has recovered every other item.  The default behaviour
        raises on the first error; an unrecoverable worker death raises
        :class:`WorkerCrash`.
        """
        items = list(items)
        n_jobs = min(self.n_jobs, len(items))
        if n_jobs <= 1 or in_worker():
            if return_exceptions:
                return [
                    _capture_call(fn, item, index,
                                  ship_across_process=False)
                    for index, item in enumerate(items)
                ]
            return [fn(item) for item in items]
        return self._map_processes(fn, items, n_jobs, return_exceptions)

    # ------------------------------------------------------------------
    def _map_processes(self, fn, items, n_jobs,
                       return_exceptions: bool) -> list:
        """Supervised process fan-out that survives worker death.

        Runs on the persistent pool installed by
        :func:`~repro.parallel.pool.use_pool`, or on a
        :class:`~repro.parallel.pool.WorkerPool` built for this call.
        """
        pool = current_pool()
        owned = pool is None
        if owned:
            pool = WorkerPool(n_jobs)
        runner = partial(_run_item_process, fn, capture=return_exceptions)
        tracer = current_tracer()
        parent_id = tracer.current_span_id()
        metrics = current_metrics()

        def collect(payload):
            result, span_records, metrics_dump = payload
            if span_records:
                tracer.absorb(span_records, parent_id=parent_id)
            if metrics_dump:
                metrics.merge(metrics_dump)
            return result

        def fallback(item, index):
            if return_exceptions:
                return _capture_call(fn, item, index,
                                     ship_across_process=False)
            return fn(item)

        supervisor = Supervisor(
            pool=pool,
            runner=runner,
            collect=collect,
            fallback=fallback,
            n_jobs=min(n_jobs, pool.n_jobs),
            timeout=self.timeout,
            max_retries=self.max_retries,
            return_exceptions=return_exceptions,
        )
        try:
            return supervisor.run(items)
        finally:
            if owned:
                pool.close()
