"""TaskGraph: ordering, caching, failure propagation.

The graph is the pipeline's one composition of caching and pooled
fan-out, so these tests pin its contract directly: deterministic
insertion-order scheduling, cache hits short-circuiting execution, and
failures skipping dependents with the established ``ItemFailure`` shape.
"""

import pytest

from repro.parallel import ItemFailure, ParallelMap, TaskGraph


def _const(value):
    return lambda: value


def _boom():
    raise RuntimeError("boom")


def _add_one(x):
    return x + 1


class TestScheduling:
    def test_results_and_order_respect_dependencies(self):
        order = []

        def step(name):
            def run():
                order.append(name)
                return name.upper()
            return run

        graph = TaskGraph()
        graph.add("c", step("c"), deps=("a", "b"))
        graph.add("a", step("a"))
        graph.add("b", step("b"), deps=("a",))
        results = graph.run()
        assert results == {"a": "A", "b": "B", "c": "C"}
        assert order == ["a", "b", "c"]

    def test_incremental_runs_pick_up_new_nodes(self):
        graph = TaskGraph()
        graph.add("a", _const(1))
        assert graph.run() == {"a": 1}
        graph.add("b", lambda: graph.results["a"] + 1, deps=("a",))
        assert graph.run()["b"] == 2

    def test_unknown_dependency_raises(self):
        graph = TaskGraph()
        graph.add("a", _const(1), deps=("ghost",))
        with pytest.raises(KeyError, match="ghost"):
            graph.run()

    def test_cycle_raises(self):
        graph = TaskGraph()
        graph.add("a", _const(1), deps=("b",))
        graph.add("b", _const(2), deps=("a",))
        with pytest.raises(ValueError, match="cycle"):
            graph.run()

    def test_duplicate_key_raises(self):
        graph = TaskGraph()
        graph.add("a", _const(1))
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("a", _const(2))

    def test_pooled_nodes_match_inline(self):
        from functools import partial

        def build():
            graph = TaskGraph()
            for i in range(6):
                graph.add(f"n{i}", partial(_add_one, i))
            return graph

        inline = build().run()
        pooled = build().run(mapper=ParallelMap(2))
        assert pooled == inline


class TestCaching:
    def test_cache_hit_short_circuits_execution(self):
        ran, stored = [], []

        def cache_get(key, cache_key):
            return (True, "cached-value") if key == "hit" else (False,
                                                                None)

        def cache_put(key, cache_key, value):
            stored.append((key, cache_key, value))

        graph = TaskGraph()
        graph.add("hit", lambda: ran.append("hit"), cache_key="k1")
        graph.add("miss", _const(7), cache_key="k2")
        graph.add("nocache", _const(8))
        results = graph.run(cache_get=cache_get, cache_put=cache_put)
        assert results["hit"] == "cached-value"
        assert ran == []  # the hit node never executed
        assert graph.cache_hits == {"hit"}
        assert stored == [("miss", "k2", 7)]  # only fresh, keyed nodes


class TestFailures:
    def test_failure_raises_by_default(self):
        graph = TaskGraph()
        graph.add("a", _boom)
        with pytest.raises(RuntimeError, match="boom"):
            graph.run()

    def test_captured_failure_skips_dependents(self):
        graph = TaskGraph()
        graph.add("a", _boom)
        graph.add("b", _const(2), deps=("a",))
        graph.add("c", _const(3))
        results = graph.run(return_exceptions=True)
        assert results == {"c": 3}
        assert isinstance(graph.failures["a"], ItemFailure)
        assert graph.failures["a"].error_type == "RuntimeError"
        assert graph.failures["b"].error_type == "DependencyFailed"
        assert "a" in graph.failures["b"].message

    def test_skip_propagates_transitively(self):
        graph = TaskGraph()
        graph.add("a", _boom)
        graph.add("b", _const(1), deps=("a",))
        graph.add("c", _const(2), deps=("b",))
        graph.run(return_exceptions=True)
        assert graph.failures["c"].error_type == "DependencyFailed"

    def test_pooled_failure_is_captured(self):
        from functools import partial

        graph = TaskGraph()
        graph.add("bad", _boom)
        graph.add("good", partial(_add_one, 4))
        results = graph.run(mapper=ParallelMap(2),
                            return_exceptions=True)
        assert results == {"good": 5}
        assert graph.failures["bad"].error_type == "RuntimeError"
