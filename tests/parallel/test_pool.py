"""Persistent worker pools: reuse, warmup, crash rebuilds, teardown.

The pool's contract is that reuse is purely an execution-shape
optimisation: every ``map`` under :func:`use_pool` returns exactly the
bytes a per-call pool (or the serial path) would, while the
``parallel.pool_builds`` / ``parallel.pool_reuse`` counters prove the
same executor served every call.
"""

import multiprocessing
import os
import time
from functools import partial

import numpy as np
import pytest

from repro.obs import MetricsRegistry, use_metrics
from repro.parallel import (
    ParallelMap,
    WorkerPool,
    current_pool,
    use_pool,
)


def _square(x):
    return x * x


def _touch_and_square(x, marker_dir):
    open(os.path.join(marker_dir, f"{os.getpid()}.worker"), "w").close()
    return x * x


def _crash_below(x, threshold, marker_dir):
    """Crash the worker once per item below ``threshold``."""
    from repro.parallel import in_worker

    marker = os.path.join(marker_dir, f"{x}.crashed")
    if in_worker() and x < threshold and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return x * 3


def _write_warm_marker(marker_dir):
    open(os.path.join(marker_dir, f"{os.getpid()}.warm"), "w").close()


class _Executor:
    """Just enough of ProcessPoolExecutor for ``WorkerPool.reap``."""

    def __init__(self, processes):
        self._processes = processes

    def shutdown(self, wait=True, cancel_futures=False):
        if wait:
            for process in self._processes.values():
                process.join(timeout=30)


class _EndedProcess:
    """A worker whose sentinel is ready (it ended on its own) and whose
    exit code is readable only once it has been joined."""

    def __init__(self, code):
        self.sentinel, self._writer = multiprocessing.Pipe(duplex=False)
        self._writer.close()
        self._code = code
        self.joined = self.terminated = False

    @property
    def exitcode(self):
        return self._code if self.joined else None

    def is_alive(self):
        return self.exitcode is None

    def join(self, timeout=None):
        self.joined = True

    def terminate(self):
        self.terminated = True

    def close(self):
        self.sentinel.close()


class TestReuse:
    def test_one_build_serves_many_maps(self):
        registry = MetricsRegistry()
        with use_metrics(registry), WorkerPool(n_jobs=2) as pool:
            with use_pool(pool):
                first = ParallelMap(2).map(_square, range(8))
                second = ParallelMap(2).map(_square, range(8, 16))
        assert first == [x * x for x in range(8)]
        assert second == [x * x for x in range(8, 16)]
        snapshot = registry.snapshot()["counters"]
        assert snapshot["parallel.pool_builds"] == 1
        assert snapshot["parallel.pool_reuse"] >= 1

    def test_current_pool_scoping(self):
        with WorkerPool(n_jobs=2) as pool:
            assert current_pool() is None
            with use_pool(pool):
                assert current_pool() is pool
            assert current_pool() is None
        # A closed pool is never handed out even inside its scope.
        with use_pool(pool):
            assert current_pool() is None

    def test_lease_after_close_raises(self):
        pool = WorkerPool(n_jobs=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.lease()


class TestWarmup:
    def test_warmup_runs_in_every_worker(self, tmp_path):
        marker_dir = str(tmp_path)
        warmup = partial(_write_warm_marker, marker_dir)
        with WorkerPool(n_jobs=2, warmup=warmup) as pool:
            with use_pool(pool):
                ParallelMap(2).map(
                    partial(_touch_and_square, marker_dir=marker_dir),
                    range(8),
                )
        worked = {f.split(".")[0] for f in os.listdir(marker_dir)
                  if f.endswith(".worker")}
        warmed = {f.split(".")[0] for f in os.listdir(marker_dir)
                  if f.endswith(".warm")}
        assert worked, "no worker ever ran"
        assert worked <= warmed, "a worker ran without being warmed"


class TestCrashRebuild:
    def test_crash_rebuilds_and_results_stay_bit_identical(self, tmp_path):
        items = list(range(6))
        serial = [x * 3 for x in items]
        registry = MetricsRegistry()
        with use_metrics(registry), WorkerPool(n_jobs=2) as pool:
            with use_pool(pool):
                crashed = ParallelMap(2).map(
                    partial(_crash_below, threshold=2,
                            marker_dir=str(tmp_path)),
                    items,
                )
                after = ParallelMap(2).map(_square, items)
        assert crashed == serial
        assert after == [x * x for x in items]
        snapshot = registry.snapshot()["counters"]
        # The crash invalidated the first executor; the later rounds
        # (retries + the follow-up map) forked at least one more.
        assert snapshot["parallel.pool_builds"] >= 2

    def test_dataset_survives_rebuild_and_closes_with_pool(self):
        arr = np.random.default_rng(0).normal(size=(256, 64))
        pool = WorkerPool(n_jobs=2)
        shared = pool.dataset.share(arr)
        name = getattr(getattr(shared, "_shm", None), "name", None)
        executor = pool.lease()
        if executor is not None:
            pool.reap(executor, kill=True)  # simulated dirty round
            assert pool._executor is None
            assert pool.lease() is not None  # rebuilt on demand
        if name is not None:
            assert os.path.exists(os.path.join("/dev/shm", name))
        pool.close()
        if name is not None:
            assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_reap_reads_exit_codes_before_terminating(self):
        # A dirty round's teardown SIGTERMs the surviving workers; only
        # the worker that died on its own is a death, with its own code.
        context = multiprocessing.get_context("fork")
        dead = context.Process(target=os._exit, args=(39,))
        dead.start()
        dead.join(timeout=30)
        alive = context.Process(target=time.sleep, args=(60,))
        alive.start()
        pool = WorkerPool(n_jobs=2)
        try:
            deaths = pool.reap(
                _Executor({alive.pid: alive, dead.pid: dead}), kill=True
            )
        finally:
            alive.terminate()
            alive.join(timeout=30)
            pool.close()
        assert not alive.is_alive()
        assert deaths == [(dead.pid, 39)]

    def test_reap_reads_a_dying_workers_code_after_joining_it(self):
        # A worker that has closed its sentinel may not be reapable yet:
        # its code reads None until it is joined, while the executor's
        # teardown has already SIGTERMed a sibling.  The death is the
        # dying worker's, with its own code.
        dying, sibling = _EndedProcess(39), _EndedProcess(-15)
        sibling.joined = True
        pool = WorkerPool(n_jobs=2)
        try:
            deaths = pool.reap(_Executor({1: dying, 2: sibling}), kill=True)
        finally:
            dying.close()
            sibling.close()
            pool.close()
        assert dying.joined and not dying.terminated
        assert sorted(deaths) == [(1, 39), (2, -15)]

    def test_caller_owned_dataset_left_open(self):
        from repro.parallel import SharedDataset

        with SharedDataset() as dataset:
            pool = WorkerPool(n_jobs=2, dataset=dataset)
            pool.close()
            assert not dataset.closed
