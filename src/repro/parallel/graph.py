"""A small dependency-aware task graph over ``ParallelMap``.

The pipeline historically composed caching and parallelism by hand:
every stage re-implemented "look up the cache key, skip if hit,
otherwise fan out, then store".  :class:`TaskGraph` is the one runtime
that owns that composition:

* nodes declare *ordering* dependencies by key; a node only runs after
  its dependencies resolved;
* a node with a ``cache_key`` is satisfied from the artifact store
  before it is scheduled (``graph.cache_hits`` counter), and its fresh
  result is written back through ``cache_put`` when it ran;
* ready nodes are batched onto the caller's
  :class:`~repro.parallel.ParallelMap` — under a persistent
  :class:`~repro.parallel.pool.WorkerPool` the same warm workers serve
  every wave, and worker spans/metrics merge exactly as for a plain
  ``map``;
* failures follow the established partial-results contract: with
  ``return_exceptions=True`` a failing node records an
  :class:`~repro.parallel.ItemFailure` and its dependents are skipped
  with ``error_type == "DependencyFailed"``; otherwise the first
  failure raises.

Node callables take **no arguments** — close over exactly the inputs
you need (typically via ``functools.partial`` over arrays already
published to the pool's shared dataset).  Passing dependency *results*
implicitly would re-ship them to workers, defeating zero-copy;
dependencies here express ordering and failure propagation, and
``graph.results[dep]`` is available in the parent when building later
nodes.

Determinism: scheduling order is a pure function of the declared graph
(insertion order within a wave), and node callables are pure, so
results are bit-identical to running every node serially in insertion
order — for any ``n_jobs`` or crash schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import current_metrics, current_tracer, get_logger
from .supervision import ItemFailure

__all__ = ["TaskGraph", "TaskNode"]

_log = get_logger("parallel")

_PENDING = "pending"
_DONE = "done"
_FAILED = "failed"
_SKIPPED = "skipped"


@dataclass
class TaskNode:
    """One unit of work in a :class:`TaskGraph`."""

    key: str
    fn: object
    deps: tuple = ()
    cache_key: str | None = None
    inline: bool = False
    """Run in the parent process (cheap control-flow nodes) instead of
    being shipped to the pool."""
    index: int = 0
    state: str = field(default=_PENDING)


def _apply_node(fn):
    """Module-level worker entry point: call one node thunk."""
    return fn()


class TaskGraph:
    """Build with :meth:`add`, execute with :meth:`run`.

    ``run`` is incremental: nodes added after a ``run`` are picked up
    by the next ``run``, and resolved nodes are never re-executed — so
    a caller can interleave graph execution with parent-side decisions
    (deriving keys for later nodes from earlier results).
    """

    def __init__(self):
        self._nodes: dict[str, TaskNode] = {}
        self.results: dict[str, object] = {}
        self.failures: dict[str, ItemFailure] = {}
        self.cache_hits: set[str] = set()

    # ------------------------------------------------------------------
    def add(self, key: str, fn, deps=(), cache_key: str | None = None,
            inline: bool = False) -> TaskNode:
        """Declare a node.  ``fn`` must be a zero-argument callable
        (picklable unless ``inline=True``)."""
        if key in self._nodes:
            raise ValueError(f"duplicate task key {key!r}")
        node = TaskNode(key=key, fn=fn, deps=tuple(deps),
                        cache_key=cache_key, inline=inline,
                        index=len(self._nodes))
        self._nodes[key] = node
        return node

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def run(self, mapper=None, cache_get=None, cache_put=None,
            return_exceptions: bool = False) -> dict:
        """Execute every runnable node; returns ``self.results``.

        ``mapper`` is a :class:`~repro.parallel.ParallelMap` (``None``
        runs everything inline).  ``cache_get(key, cache_key) ->
        (hit, value)`` and ``cache_put(key, cache_key, value)`` bridge
        the artifact store; both see the node key so callers can keep
        per-stage counters.
        """
        self._check_deps()
        while True:
            ready = self._ready_nodes()
            if not ready:
                break
            wave = []
            for node in ready:
                if cache_get is not None and node.cache_key is not None:
                    hit, value = cache_get(node.key, node.cache_key)
                    if hit:
                        node.state = _DONE
                        self.results[node.key] = value
                        self.cache_hits.add(node.key)
                        current_metrics().counter(
                            "graph.cache_hits"
                        ).inc()
                        continue
                wave.append(node)
            if not wave:
                continue
            self._run_wave(wave, mapper, cache_put, return_exceptions)
        self._check_stuck()
        return self.results

    # ------------------------------------------------------------------
    def _check_deps(self) -> None:
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise KeyError(
                        f"task {node.key!r} depends on unknown task "
                        f"{dep!r}"
                    )

    def _ready_nodes(self) -> list[TaskNode]:
        """Pending nodes whose deps all resolved; propagates skips."""
        ready = []
        for node in sorted(self._nodes.values(), key=lambda n: n.index):
            if node.state != _PENDING:
                continue
            dep_states = [self._nodes[d].state for d in node.deps]
            if any(s in (_FAILED, _SKIPPED) for s in dep_states):
                failed = next(d for d in node.deps
                              if self._nodes[d].state in (_FAILED,
                                                          _SKIPPED))
                node.state = _SKIPPED
                self.failures[node.key] = ItemFailure(
                    index=node.index, error_type="DependencyFailed",
                    message=(f"dependency {failed!r} of task "
                             f"{node.key!r} did not complete"),
                    traceback="",
                )
                continue
            if all(s == _DONE for s in dep_states):
                ready.append(node)
        return ready

    def _run_wave(self, wave, mapper, cache_put,
                  return_exceptions: bool) -> None:
        inline_nodes = [n for n in wave if n.inline or mapper is None]
        pooled_nodes = [n for n in wave if not (n.inline
                                                or mapper is None)]
        metrics = current_metrics()
        for node in inline_nodes:
            try:
                result = node.fn()
            except Exception as exc:  # noqa: BLE001 - capture contract
                if not return_exceptions:
                    raise
                self._record_failure(node, exc)
                continue
            self._record_result(node, result, cache_put)
            metrics.counter("graph.nodes_run").inc()
        if not pooled_nodes:
            return
        outcomes = mapper.map(_apply_node,
                              [n.fn for n in pooled_nodes],
                              return_exceptions=return_exceptions)
        for node, outcome in zip(pooled_nodes, outcomes):
            if isinstance(outcome, ItemFailure):
                node.state = _FAILED
                self.failures[node.key] = ItemFailure(
                    index=node.index, error_type=outcome.error_type,
                    message=outcome.message,
                    traceback=outcome.traceback,
                    exception=outcome.exception,
                )
                current_tracer().event("graph.node_failed",
                                       key=node.key,
                                       error=outcome.error_type)
                continue
            self._record_result(node, outcome, cache_put)
            metrics.counter("graph.nodes_run").inc()

    def _record_result(self, node, result, cache_put) -> None:
        node.state = _DONE
        self.results[node.key] = result
        if cache_put is not None and node.cache_key is not None:
            cache_put(node.key, node.cache_key, result)

    def _record_failure(self, node, exc: Exception) -> None:
        import traceback as traceback_module

        node.state = _FAILED
        self.failures[node.key] = ItemFailure(
            index=node.index, error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback_module.format_exc(),
            exception=exc,
        )
        current_tracer().event("graph.node_failed", key=node.key,
                               error=type(exc).__name__)

    def _check_stuck(self) -> None:
        pending = [n.key for n in self._nodes.values()
                   if n.state == _PENDING]
        if pending:
            raise ValueError(
                f"task graph has a dependency cycle involving "
                f"{pending!r}"
            )
