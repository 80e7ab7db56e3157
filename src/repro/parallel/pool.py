"""A persistent, supervised worker pool reused across ``map`` calls.

A :class:`WorkerPool` is created **once per run**, installed with
:func:`use_pool`, and every fanned-out
:class:`~repro.parallel.ParallelMap` inside the scope leases the same
executor (a ``map`` called outside any scope builds a pool for that
call alone):

* workers are *warmed* by an optional ``warmup`` callable run once per
  worker (e.g. importing the fit/predict stack), so the first item of
  every stage starts hot;
* the pool plugs into :class:`~repro.parallel.supervision.Supervisor`
  through :meth:`WorkerPool.lease` and :meth:`WorkerPool.reap`.  A
  crash invalidates the executor; the next lease builds a fresh one
  (counted by ``parallel.pool_builds``), and because the *parent* owns
  every shared segment, a dead worker can never leak ``/dev/shm``;
* ``close()`` shuts the executor down and (when the pool owns it)
  closes the :class:`SharedDataset`, unlinking every segment.

Pool reuse across calls is observable through the
``parallel.pool_builds`` / ``parallel.pool_reuse`` counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from ..obs import current_metrics, get_logger
from .shm import SharedDataset

__all__ = ["WorkerPool", "current_pool", "use_pool"]

_log = get_logger("parallel")

_current_pool: ContextVar["WorkerPool | None"] = ContextVar(
    "repro_worker_pool", default=None
)


def current_pool() -> "WorkerPool | None":
    """The pool installed by the innermost :func:`use_pool`, if any."""
    pool = _current_pool.get()
    if pool is not None and pool.closed:
        return None
    return pool


@contextmanager
def use_pool(pool: "WorkerPool"):
    """Make ``pool`` the current pool within the ``with`` block."""
    token = _current_pool.set(pool)
    try:
        yield pool
    finally:
        _current_pool.reset(token)


def _warm_worker(warmup) -> None:
    """Worker initializer: run ``warmup`` once per worker process.

    Failures are logged, never raised — an initializer exception would
    brick the pool.
    """
    if warmup is None:
        return
    try:
        warmup()
    except Exception as exc:
        _log.warning("pool.warmup_failed",
                     error=f"{type(exc).__name__}: {exc}")


class WorkerPool:
    """A process pool that outlives individual ``map`` calls.

    Parameters
    ----------
    n_jobs:
        Worker count (resolved through
        :func:`~repro.parallel.resolve_n_jobs`).
    dataset:
        The run's :class:`SharedDataset`.  ``None`` creates (and owns)
        a fresh one; a caller-supplied dataset is left open by
        ``close()``.
    warmup:
        Optional picklable zero-argument callable run once in every
        worker.

    The pool is *lazy*: no process is forked until the first
    :meth:`lease`.  :meth:`reap` matches the
    :class:`~repro.parallel.supervision.Supervisor` teardown seam —
    ``kill=False`` (clean round) keeps the executor alive for the next
    ``map``; ``kill=True`` (crash / timeout / error) terminates the
    workers and invalidates the executor so the next lease rebuilds.
    """

    def __init__(self, n_jobs: int | None = None,
                 dataset: SharedDataset | None = None,
                 warmup=None):
        from .executor import resolve_n_jobs

        self.n_jobs = resolve_n_jobs(n_jobs)
        self._owns_dataset = dataset is None
        self.dataset = dataset if dataset is not None else SharedDataset()
        self.warmup = warmup
        self.closed = False
        self._executor = None
        self._unavailable = False

    # ------------------------------------------------------------------
    def lease(self):
        """The live executor, building one on first use / after a kill.

        Returns ``None`` when the platform refused a process pool
        (the supervisor then runs the work inline).
        """
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        if self._unavailable:
            return None
        metrics = current_metrics()
        if self._executor is None:
            self._executor = self._build()
            if self._executor is None:
                self._unavailable = True
                return None
            metrics.counter("parallel.pool_builds").inc()
        else:
            metrics.counter("parallel.pool_reuse").inc()
        return self._executor

    def _build(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            context = None
        try:
            return ProcessPoolExecutor(
                max_workers=self.n_jobs,
                mp_context=context,
                initializer=_warm_worker,
                initargs=(self.warmup,),
            )
        except (OSError, PermissionError) as exc:
            _log.warning("process_pool.unavailable", error=str(exc),
                         fallback="serial")
            return None

    # ------------------------------------------------------------------
    def reap(self, executor, kill: bool) -> list:
        """Supervisor teardown seam; returns ``(pid, exitcode)`` deaths.

        A clean round (``kill=False``) keeps the executor for the next
        ``map`` call — that is the whole point of the pool.  A dirty
        round terminates the workers (the only way to reclaim a hung
        one) and invalidates the executor; the supervisor's next
        :meth:`lease` forks a fresh, re-warmed pool.

        A worker whose sentinel is ready ended on its own, and only
        those are deaths; the rest are alive and the teardown
        terminates them.  A dead worker's exit code is read after the
        executor's shutdown has joined it: a worker that has closed its
        sentinel but is not yet reapable reads no code at all, while
        the executor's own teardown SIGTERMs its siblings.
        ``_processes`` is stdlib-internal but stable since 3.7.
        """
        processes = dict(getattr(executor, "_processes", None) or {})
        if not kill:
            deaths = [(pid, process.exitcode)
                      for pid, process in processes.items()
                      if process.exitcode not in (0, None)]
            if deaths and executor is self._executor:
                # A worker died without breaking the round's futures;
                # do not trust the executor for the next stage.
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            return deaths
        from multiprocessing.connection import wait

        ended = set(wait([process.sentinel
                          for process in processes.values()], timeout=0))
        for process in processes.values():
            if process.sentinel not in ended:
                process.terminate()
        executor.shutdown(wait=True, cancel_futures=True)
        if executor is self._executor:
            self._executor = None
        deaths = []
        for pid, process in processes.items():
            if process.sentinel in ended:
                process.join()
                if process.exitcode not in (0, None):
                    deaths.append((pid, process.exitcode))
        return deaths

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down workers; unlink the dataset when the pool owns it."""
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._owns_dataset:
            self.dataset.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
