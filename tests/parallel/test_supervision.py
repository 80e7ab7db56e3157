"""Crash-injection tests for the supervised process fan-out.

The injected faults are driven by *file-based attempt counters*: each
item records its attempt count in a shared directory before deciding to
die (``os._exit``), so a "transient" crash kills the worker exactly
once and the retry succeeds — across process boundaries and for any
pool geometry.  Crash schedules are drawn with ``random.Random(seed)``,
and every test asserts the supervised result is bit-identical to the
serial path: the package's determinism contract must hold for any
crash schedule.

All fault hooks are gated on :func:`repro.parallel.in_worker`, so the
serial comparison path (and the n_jobs=1 fast path) never injects.
"""

import os
import pickle
import random
import time
from contextlib import nullcontext
from functools import partial

import pytest

from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.parallel import (
    ItemFailure,
    ParallelMap,
    WorkerCrash,
    WorkerPool,
    in_worker,
    resolve_task_retries,
    resolve_task_timeout,
    use_pool,
)
from repro.parallel.supervision import (
    DEFAULT_TASK_RETRIES,
    ENV_TASK_RETRIES,
    ENV_TASK_TIMEOUT,
)


def _mark_attempt(counter_dir, item) -> int:
    """Record one attempt at ``item``; returns how many came before."""
    path = os.path.join(counter_dir, f"{item}.attempts")
    try:
        with open(path) as handle:
            before = int(handle.read() or 0)
    except FileNotFoundError:
        before = 0
    with open(path, "w") as handle:
        handle.write(str(before + 1))
    return before


def _transform(item):
    """The pure work under test (bit-identical anywhere it runs)."""
    return item * item + 1


def crash_once(item, counter_dir="", crash_items=()):
    """Die (exit 42) on the first attempt at selected items."""
    before = _mark_attempt(counter_dir, item)
    if item in crash_items and before == 0 and in_worker():
        os._exit(42)
    return _transform(item)


def crash_always(item, counter_dir="", crash_items=(), exit_code=39):
    """Die on *every* attempt at selected items: a poison item."""
    _mark_attempt(counter_dir, item)
    if item in crash_items and in_worker():
        os._exit(exit_code)
    return _transform(item)


def hang(item, hang_items=(), slow_s=0.0):
    """Sleep effectively forever on selected items."""
    if item in hang_items and in_worker():
        time.sleep(600)
    if slow_s:
        time.sleep(slow_s)
    return _transform(item)


def slow_then_crash(item, counter_dir="", crash_items=(), delay_s=0.5,
                    always=True):
    """Give the other items a head start, then die.

    ``always=False`` makes the crash transient (first attempt only).
    """
    before = _mark_attempt(counter_dir, item)
    if item in crash_items and in_worker() and (always or before == 0):
        time.sleep(delay_s)
        os._exit(41)
    return _transform(item)


class TestTransientCrashRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7])
    def test_bit_identical_to_serial_for_any_crash_schedule(
            self, tmp_path, seed):
        items = list(range(12))
        crash_items = tuple(random.Random(seed).sample(items, 3))
        fn = partial(crash_once, counter_dir=str(tmp_path),
                     crash_items=crash_items)
        registry = MetricsRegistry()
        with use_metrics(registry):
            got = ParallelMap(n_jobs=3).map(fn, items)
        assert got == [_transform(i) for i in items]
        counters = registry.snapshot()["counters"]
        assert counters["parallel.worker_crashes"] >= 1
        assert counters["parallel.retries"] >= 1
        assert counters["parallel.resubmitted_items"] >= 1

    def test_completed_work_is_not_recomputed(self, tmp_path):
        # Only the items in flight when the worker died may retry:
        # items that completed before the crash run exactly once.
        items = list(range(8))
        fn = partial(slow_then_crash, counter_dir=str(tmp_path),
                     crash_items=(7,), delay_s=0.6, always=False)
        got = ParallelMap(n_jobs=4).map(fn, items)
        assert got == [_transform(i) for i in items]
        attempts = {
            int(p.name.split(".")[0]): int(p.read_text())
            for p in tmp_path.glob("*.attempts")
        }
        # Items 0-1 finished well inside the 0.6s head start, so the
        # pool breakage never touched them.
        assert attempts[0] == 1
        assert attempts[1] == 1

    def test_pool_broken_event_recorded(self, tmp_path):
        tracer = Tracer()
        fn = partial(crash_once, counter_dir=str(tmp_path),
                     crash_items=(2,))
        with use_tracer(tracer):
            ParallelMap(n_jobs=2).map(fn, list(range(6)))
        names = {s.name for s in tracer.spans}
        assert "parallel.pool_broken" in names


class TestPoisonIsolation:
    def test_capture_mode_isolates_the_poison_item(self, tmp_path):
        self._isolate_the_poison_item(tmp_path, pooled=False)

    def test_capture_mode_isolates_the_poison_item_in_use_pool(
            self, tmp_path):
        # The pipeline's path: the exit code is the poison worker's,
        # not the SIGTERM the teardown sends its siblings.
        self._isolate_the_poison_item(tmp_path, pooled=True)

    @staticmethod
    def _isolate_the_poison_item(tmp_path, pooled):
        items = list(range(10))
        fn = partial(crash_always, counter_dir=str(tmp_path),
                     crash_items=(6,))
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_metrics(registry), use_tracer(tracer), \
                WorkerPool(n_jobs=3) as pool, \
                (use_pool(pool) if pooled else nullcontext()):
            got = ParallelMap(n_jobs=3).map(fn, items,
                                            return_exceptions=True)
        for i in items:
            if i == 6:
                continue
            assert got[i] == _transform(i), f"item {i} not recovered"
        failure = got[6]
        assert isinstance(failure, ItemFailure)
        assert failure.error_type == "WorkerCrash"
        assert failure.index == 6
        crash = failure.exception
        assert isinstance(crash, WorkerCrash)
        assert crash.reason == "crash"
        assert crash.exitcode == 39
        counters = registry.snapshot()["counters"]
        assert counters["parallel.worker_crashes"] >= 1
        assert "parallel.poison_isolated" in {
            s.name for s in tracer.spans
        }

    def test_default_mode_raises_worker_crash(self, tmp_path):
        fn = partial(crash_always, counter_dir=str(tmp_path),
                     crash_items=(3,))
        with pytest.raises(WorkerCrash) as excinfo:
            ParallelMap(n_jobs=2).map(fn, list(range(6)))
        assert excinfo.value.reason == "crash"
        assert excinfo.value.index == 3

    def test_worker_crash_survives_pickling(self):
        crash = WorkerCrash("item 3: worker died", index=3,
                            reason="crash", exitcode=-9, signal=9)
        clone = pickle.loads(pickle.dumps(crash))
        assert isinstance(clone, WorkerCrash)
        assert (clone.index, clone.reason, clone.exitcode,
                clone.signal) == (3, "crash", -9, 9)
        assert str(clone) == str(crash)


class TestDeadlines:
    def test_hung_item_killed_and_reported(self, tmp_path):
        items = list(range(5))
        fn = partial(hang, hang_items=(2,))
        registry = MetricsRegistry()
        with use_metrics(registry):
            started = time.monotonic()
            got = ParallelMap(n_jobs=2, timeout=0.75).map(
                fn, items, return_exceptions=True
            )
            elapsed = time.monotonic() - started
        assert elapsed < 60, "hung worker was not killed"
        for i in items:
            if i == 2:
                continue
            assert got[i] == _transform(i)
        failure = got[2]
        assert isinstance(failure, ItemFailure)
        assert isinstance(failure.exception, WorkerCrash)
        assert failure.exception.reason == "timeout"
        assert registry.snapshot()["counters"]["parallel.timeouts"] >= 1

    def test_timeout_raises_in_default_mode(self):
        fn = partial(hang, hang_items=(1,))
        with pytest.raises(WorkerCrash) as excinfo:
            ParallelMap(n_jobs=2, timeout=0.5).map(
                fn, list(range(4))
            )
        assert excinfo.value.reason == "timeout"

    def test_queued_item_accrues_no_deadline(self):
        # Item 2 waits for a free worker while items 0 and 1 run; only
        # its own 0.6s of work may count against the 1s deadline.
        fn = partial(hang, slow_s=0.6)
        registry = MetricsRegistry()
        with use_metrics(registry):
            got = ParallelMap(n_jobs=2, timeout=1.0).map(
                fn, [0, 1, 2], return_exceptions=True
            )
        assert got == [_transform(i) for i in range(3)]
        counters = registry.snapshot()["counters"]
        assert counters.get("parallel.timeouts", 0) == 0

    def test_no_deadline_means_slow_items_finish(self):
        fn = partial(hang, slow_s=0.1)
        got = ParallelMap(n_jobs=2).map(fn, list(range(4)))
        assert got == [_transform(i) for i in range(4)]


class TestRetryBudget:
    def test_budget_exhaustion_fails_unresolved_items(self, tmp_path):
        # Item 1 takes 0.5s then dies, every attempt; item 0 finishes
        # instantly and is harvested before the pool breaks.  With a
        # zero budget there is no second round: item 1 must surface as
        # a reason="budget" failure, not hang the map.
        fn = partial(slow_then_crash, counter_dir=str(tmp_path),
                     crash_items=(1,), delay_s=0.5)
        got = ParallelMap(n_jobs=2, max_retries=0).map(
            fn, [0, 1], return_exceptions=True
        )
        assert got[0] == _transform(0)
        failure = got[1]
        assert isinstance(failure, ItemFailure)
        assert isinstance(failure.exception, WorkerCrash)
        assert failure.exception.reason == "budget"

    def test_budget_exhaustion_raises_in_default_mode(self, tmp_path):
        fn = partial(slow_then_crash, counter_dir=str(tmp_path),
                     crash_items=(1,), delay_s=0.5)
        with pytest.raises(WorkerCrash) as excinfo:
            ParallelMap(n_jobs=2, max_retries=0).map(
                fn, [0, 1]
            )
        assert excinfo.value.reason == "budget"


class TestResolvers:
    def test_timeout_default_is_none(self, monkeypatch):
        monkeypatch.delenv(ENV_TASK_TIMEOUT, raising=False)
        assert resolve_task_timeout() is None

    def test_timeout_env_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_TIMEOUT, "2.5")
        assert resolve_task_timeout() == 2.5
        assert resolve_task_timeout(10) == 10.0  # arg wins

    def test_timeout_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_TIMEOUT, "soon")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            resolve_task_timeout()
        with pytest.raises(ValueError, match="> 0"):
            resolve_task_timeout(0)
        with pytest.raises(ValueError, match="> 0"):
            resolve_task_timeout(-1)
        with pytest.raises(TypeError):
            resolve_task_timeout(True)

    def test_retries_default(self, monkeypatch):
        monkeypatch.delenv(ENV_TASK_RETRIES, raising=False)
        assert resolve_task_retries() == DEFAULT_TASK_RETRIES

    def test_retries_env_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_RETRIES, "3")
        assert resolve_task_retries() == 3
        assert resolve_task_retries(0) == 0  # arg wins; zero is legal

    def test_retries_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_RETRIES, "many")
        with pytest.raises(ValueError, match="REPRO_TASK_RETRIES"):
            resolve_task_retries()
        with pytest.raises(ValueError, match=">= 0"):
            resolve_task_retries(-1)
        with pytest.raises(TypeError):
            resolve_task_retries(True)

    def test_parallel_map_carries_the_knobs(self):
        mapper = ParallelMap(n_jobs=2, timeout=1.5, max_retries=4)
        assert mapper.timeout == 1.5
        assert mapper.max_retries == 4
