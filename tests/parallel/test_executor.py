"""Tests for the :mod:`repro.parallel` execution facade."""

import os

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    span,
    use_metrics,
    use_tracer,
)
from repro.parallel import (
    ParallelMap,
    WorkerPool,
    in_worker,
    resolve_n_jobs,
)
from repro.parallel.executor import ENV_JOBS
from repro.parallel.seeding import spawn_seeds


# ----------------------------------------------------------------------
# Module-level work units (worker processes need picklable functions).
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise RuntimeError("item 3 exploded")
    return x


def _am_i_in_a_worker(_):
    return in_worker()


def _nested_map(_):
    # A worker that itself asks for parallelism must run inline.
    inner = ParallelMap(4).map(_square, [1, 2, 3])
    return (in_worker(), inner)


def _traced_unit(x):
    from repro.obs import current_metrics

    with span("worker.task", item=x):
        current_metrics().counter("worker.items").inc()
        current_metrics().histogram("worker.value").observe(float(x))
    return x * 10


def _slow_success_or_fast_boom(x):
    import time

    if x == 0:
        time.sleep(1.0)  # an early item that is merely slow
        return x
    raise RuntimeError(f"fast failure at {x}")


class TestResolveNJobs:
    def test_explicit_arg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert resolve_n_jobs(3) == 3

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "5")
        assert resolve_n_jobs(None) == 5

    def test_none_without_env_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_n_jobs(None) == max(1, os.cpu_count() or 1)

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "   ")
        assert resolve_n_jobs(None) == max(1, os.cpu_count() or 1)

    def test_negative_counts_back_from_cpus(self):
        cpus = os.cpu_count() or 1
        assert resolve_n_jobs(-1) == max(1, cpus)
        assert resolve_n_jobs(-cpus - 10) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)

    def test_bool_and_float_rejected(self):
        with pytest.raises(TypeError):
            resolve_n_jobs(True)
        with pytest.raises(TypeError):
            resolve_n_jobs(2.0)

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "lots")
        with pytest.raises(ValueError):
            resolve_n_jobs(None)


class TestMapSemantics:
    @pytest.mark.parametrize("n_jobs", [1, 3], ids=["serial", "process"])
    def test_ordered_results(self, n_jobs):
        items = list(range(13))
        out = ParallelMap(n_jobs).map(_square, items)
        assert out == [x * x for x in items]

    def test_empty_items(self):
        assert ParallelMap(4).map(_square, []) == []

    @pytest.mark.parametrize("n_jobs", [2], ids=["process"])
    def test_error_propagates_with_original_type(self, n_jobs):
        with pytest.raises(RuntimeError, match="item 3 exploded"):
            ParallelMap(n_jobs).map(_boom, range(6))

    def test_serial_path_never_builds_a_pool(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("n_jobs=1 must not spawn a pool")

        monkeypatch.setattr(WorkerPool, "_build", forbidden)
        assert ParallelMap(1).map(_square, range(5)) == [
            x * x for x in range(5)
        ]

    def test_single_item_never_builds_a_pool(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("one item must not spawn a pool")

        monkeypatch.setattr(WorkerPool, "_build", forbidden)
        assert ParallelMap(8).map(_square, [4]) == [16]

    @pytest.mark.parametrize("n_jobs", [2], ids=["process"])
    def test_workers_know_they_are_workers(self, n_jobs):
        flags = ParallelMap(n_jobs).map(_am_i_in_a_worker, range(4))
        assert flags == [True] * 4
        assert in_worker() is False  # parent flag untouched

    def test_nested_map_runs_inline(self, monkeypatch):
        # The worker's inner map must not fork a pool of its own (the
        # patched guard is inherited by the forked workers).
        build = WorkerPool._build

        def guarded(self):
            assert not in_worker(), "a worker tried to build a pool"
            return build(self)

        monkeypatch.setattr(WorkerPool, "_build", guarded)
        out = ParallelMap(2).map(_nested_map, range(3))
        assert out == [(True, [1, 4, 9])] * 3

    @pytest.mark.parametrize("n_jobs", [2], ids=["process"])
    def test_errors_observed_in_completion_order(self, n_jobs):
        # Item 0 (the first submitted) sleeps a full second; item 1
        # fails instantly.  Fail-fast must consume errors in
        # *completion* order: the fast failure aborts the map without
        # waiting behind the slow earlier item.
        import time

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="fast failure"):
            ParallelMap(n_jobs).map(
                _slow_success_or_fast_boom, [0, 1]
            )
        elapsed = time.monotonic() - started
        assert elapsed < 0.9, (
            f"error waited {elapsed:.2f}s behind an earlier slow item"
        )


class TestObsMerging:
    def test_process_spans_reparented_and_metrics_merged(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            with tracer.span("call.site") as caller:
                out = ParallelMap(2).map(_traced_unit, range(5))
        assert out == [x * 10 for x in range(5)]

        workers = [s for s in tracer.spans if s.name == "worker.task"]
        assert len(workers) == 5
        assert {s.parent_id for s in workers} == {caller.span_id}
        assert sorted(s.attrs["item"] for s in workers) == [0, 1, 2, 3, 4]
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))  # absorb re-issues unique ids

        snap = metrics.snapshot()
        assert snap["counters"]["worker.items"] == 5
        assert snap["histograms"]["worker.value"]["count"] == 5

    def test_absorb_preserves_internal_nesting(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        parent = Tracer()
        with parent.span("root") as root:
            parent.absorb([s.to_dict() for s in worker.spans],
                          parent_id=root.span_id)
        by_name = {s.name: s for s in parent.spans}
        assert by_name["outer"].parent_id == root.span_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id


class TestSpawnSeeds:
    def test_deterministic_and_independent(self):
        a = spawn_seeds(42, 5)
        b = spawn_seeds(42, 5)
        assert len(a) == 5
        assert [s.generate_state(2).tolist() for s in a] == \
               [s.generate_state(2).tolist() for s in b]
        states = {tuple(s.generate_state(2).tolist()) for s in a}
        assert len(states) == 5  # children differ from each other

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
