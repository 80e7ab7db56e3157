"""Crash-tolerant pool supervision for process fan-out.

A worker killed by the OOM killer, a segfaulting extension, or a hung
syscall used to take the whole :class:`~repro.parallel.ParallelMap`
fan-out with it: :class:`concurrent.futures.ProcessPoolExecutor` marks
the pool broken and every future — finished work included — surfaces as
``BrokenProcessPool``.  This module wraps one ``map`` call in a
:class:`Supervisor` that keeps the fan-out alive instead:

* one item per submission, at most ``n_jobs`` in flight: the next item
  is submitted as soon as one finishes, so it goes to the first free
  worker and its deadline clock starts when a worker can run it;
* completed items are harvested continuously, so work finished before
  a crash is never recomputed;
* a broken pool is rebuilt under a bounded retry budget.  The items in
  flight when it broke are *suspects*: each is rerun alone, with
  nothing else in flight, so a death is attributable to it.  A single
  death cannot tell a poison item from a transient crash, so an item
  becomes a :class:`WorkerCrash` (carrying the dead worker's exit code
  / signal) only after it has died alone twice; every other item's
  result is recovered;
* with a deadline (``ParallelMap(timeout=...)`` /
  ``$REPRO_TASK_TIMEOUT``) an item observed running past it has its
  pool terminated and ends as a ``reason="timeout"``
  :class:`WorkerCrash`; the items killed alongside it are resubmitted.

Because mapped functions are pure (the package-wide determinism
contract), re-running an item is always safe and the final result list
is bit-identical to the serial path for any crash schedule.  Progress
is observable through the ``parallel.worker_crashes`` /
``parallel.retries`` / ``parallel.timeouts`` /
``parallel.resubmitted_items`` counters and ``parallel.*`` span events,
which flow into the run ledger (``repro report --run``) like every
other metric.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from signal import SIGTERM

from ..obs import current_metrics, current_tracer, get_logger

__all__ = [
    "DEFAULT_TASK_RETRIES",
    "ENV_TASK_RETRIES",
    "ENV_TASK_TIMEOUT",
    "ItemFailure",
    "Supervisor",
    "WorkerCrash",
    "resolve_task_retries",
    "resolve_task_timeout",
]

_log = get_logger("parallel")

#: Environment knobs honoured when the constructor arguments are None.
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"
ENV_TASK_RETRIES = "REPRO_TASK_RETRIES"

#: Default pool-rebuild budget: generous enough to rerun every suspect
#: of a realistic crash storm, small enough to bound a pathological one.
DEFAULT_TASK_RETRIES = 16

#: How often the supervisor polls in-flight futures (seconds).  Only
#: affects detection latency, never results.
_POLL_S = 0.05

#: Deaths alone before an item is convicted as a poison item.
_SOLO_DEATHS = 2

_UNSET = object()


def _shipped_bytes(runner, item) -> int:
    """Size of the pickle stream one submission pushes through the
    pool's call pipe (fn payload + item).  Feeds the
    ``parallel.bytes_shipped`` counter — the observable that the
    shared-memory transport exists to shrink.  Never raises: an
    unpicklable payload is about to fail in ``submit`` anyway."""
    try:
        return len(pickle.dumps((runner, item),
                                pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


class WorkerCrash(RuntimeError):
    """A worker process died (or hung past its deadline) on one item.

    ``reason`` is ``"crash"`` (the worker exited abnormally),
    ``"timeout"`` (it overran the per-item deadline and was killed) or
    ``"budget"`` (the retry budget ran out before the item completed).
    ``exitcode`` / ``signal`` carry the dead worker's exit status when
    the supervisor could observe it.
    """

    def __init__(self, message: str, index: int | None = None,
                 reason: str = "crash", exitcode: int | None = None,
                 signal: int | None = None):
        super().__init__(message)
        self.index = index
        self.reason = reason
        self.exitcode = exitcode
        self.signal = signal

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.index, self.reason,
                                 self.exitcode, self.signal))


@dataclass
class ItemFailure:
    """One item's captured exception in partial-results mode.

    ``exception`` is the original object when it survived the trip back
    from the worker (unpicklable exceptions are represented by their
    string fields only). ``traceback`` is the formatted worker-side
    traceback, preserved across process boundaries.  Worker deaths
    surface as ``error_type == "WorkerCrash"`` with a
    :class:`WorkerCrash` exception carrying exit/signal details.
    """

    index: int
    error_type: str
    message: str
    traceback: str
    exception: BaseException | None = None

    def __str__(self) -> str:
        return f"item {self.index}: {self.error_type}: {self.message}"

    def __getstate__(self):
        """Degrade an unpicklable ``exception`` to None instead of
        poisoning whatever artifact (e.g. a cache entry) carries
        this failure record."""
        state = dict(self.__dict__)
        if state.get("exception") is not None:
            try:
                pickle.dumps(state["exception"])
            except Exception:
                state["exception"] = None
        return state


def resolve_task_timeout(timeout: float | None = None) -> float | None:
    """Per-item deadline: arg → ``$REPRO_TASK_TIMEOUT`` → None.

    ``None`` (the default everywhere) means no deadline.  Values must
    be positive seconds.
    """
    if timeout is None:
        env = os.environ.get(ENV_TASK_TIMEOUT, "").strip()
        if not env:
            return None
        try:
            timeout = float(env)
        except ValueError:
            raise ValueError(
                f"{ENV_TASK_TIMEOUT} must be a number of seconds, "
                f"got {env!r}"
            ) from None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise TypeError(
            f"timeout must be a positive number or None, got {timeout!r}"
        )
    if timeout <= 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout!r}")
    return float(timeout)


def resolve_task_retries(retries: int | None = None) -> int:
    """Pool-rebuild budget: arg → ``$REPRO_TASK_RETRIES`` → default."""
    if retries is None:
        env = os.environ.get(ENV_TASK_RETRIES, "").strip()
        if not env:
            return DEFAULT_TASK_RETRIES
        try:
            retries = int(env)
        except ValueError:
            raise ValueError(
                f"{ENV_TASK_RETRIES} must be an integer, got {env!r}"
            ) from None
    if isinstance(retries, bool) or not isinstance(retries, int):
        raise TypeError(
            f"max_retries must be an int or None, got {retries!r}"
        )
    if retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {retries!r}")
    return retries


class Supervisor:
    """Drives one supervised process fan-out ``map`` call.

    Parameters
    ----------
    pool:
        The :class:`~repro.parallel.WorkerPool` whose executor runs the
        items.  ``pool.lease()`` returning ``None`` means the platform
        refused a process pool and the remaining work runs through
        ``fallback`` inline; ``pool.reap`` tears a round down.
    runner:
        The picklable item entry point: ``runner(item, index=)``
        returning an opaque payload (result plus worker telemetry).
    collect:
        ``(payload) -> result`` — merges the payload's telemetry into
        the parent sinks and returns the item's result.
    fallback:
        ``(item, index) -> result`` — inline serial execution used when
        no pool can be built.
    n_jobs:
        Most items in flight at once; at most the pool's worker count.
    """

    def __init__(self, pool, runner, collect, fallback, n_jobs: int,
                 timeout: float | None = None,
                 max_retries: int | None = None,
                 return_exceptions: bool = False,
                 poll_s: float = _POLL_S, clock=time.monotonic):
        self.pool = pool
        self.runner = runner
        self.collect = collect
        self.fallback = fallback
        self.n_jobs = n_jobs
        self.timeout = resolve_task_timeout(timeout)
        self.max_retries = resolve_task_retries(max_retries)
        self.return_exceptions = return_exceptions
        self.poll_s = poll_s
        self._clock = clock

    # ------------------------------------------------------------------
    def run(self, items) -> list:
        """Execute every item, surviving worker deaths; ordered results."""
        items = list(items)
        slots: list = [_UNSET] * len(items)
        queue = deque(range(len(items)))
        suspects: deque[int] = deque()
        solo_deaths: dict[int, int] = {}
        metrics = current_metrics()
        rounds = rebuilds = 0
        while queue or suspects:
            if rebuilds > self.max_retries:
                self._fail_remaining(sorted([*queue, *suspects]), slots)
                break
            executor = self.pool.lease()
            if executor is None:  # platform refused a pool: go inline
                for index in sorted([*queue, *suspects]):
                    slots[index] = self.fallback(items[index], index)
                break
            if rounds:
                metrics.counter("parallel.retries").inc()
            rounds += 1
            # A suspect runs alone, so a death is attributable to it.
            solo = bool(suspects)
            todo = deque([suspects.popleft()]) if solo else queue
            unfinished, timed_out, broken, deaths = self._round(
                executor, items, todo, 1 if solo else self.n_jobs, slots
            )
            if solo:
                suspects.extendleft(todo)  # the broken pool refused it
            if broken or timed_out:
                rebuilds += 1
            if broken and not timed_out:
                metrics.counter("parallel.worker_crashes").inc(
                    max(1, len(deaths))
                )
                current_tracer().event(
                    "parallel.pool_broken",
                    dead_workers=len(deaths),
                    unfinished_items=len(unfinished),
                )
            resubmitted = 0
            for index in unfinished:
                if index in timed_out:
                    # Definitive: the deadline names the future.
                    metrics.counter("parallel.timeouts").inc()
                    current_tracer().event(
                        "parallel.item_timeout", index=index,
                        deadline_s=self.timeout,
                    )
                    self._poison(slots, index, "timeout", deaths)
                    continue
                if broken and solo:
                    solo_deaths[index] = solo_deaths.get(index, 0) + 1
                    if solo_deaths[index] >= _SOLO_DEATHS:
                        self._poison(slots, index, "crash", deaths)
                        continue
                resubmitted += 1
                if not broken:  # killed alongside a hung item
                    queue.appendleft(index)
                elif solo:
                    suspects.appendleft(index)
                else:  # may be collateral of another item's death
                    suspects.append(index)
            if resubmitted:
                metrics.counter("parallel.resubmitted_items").inc(
                    resubmitted
                )
        return slots

    # ------------------------------------------------------------------
    def _round(self, executor, items, todo, cap, slots):
        """Keep up to ``cap`` items of ``todo`` in flight until it
        drains, the pool breaks, or an item overruns its deadline.

        Returns the indexes still in flight when the round ended, the
        subset that overran the deadline, whether the pool broke, and
        the ``(pid, exitcode)`` deaths the teardown observed.
        """
        in_flight: dict = {}  # future -> item index
        started: dict = {}  # future -> submission time
        timed_out: set = set()
        broken = False
        error = None
        metrics = current_metrics()
        while not (broken or timed_out or error):
            while todo and len(in_flight) < cap:
                index = todo.popleft()
                metrics.counter("parallel.bytes_shipped").inc(
                    _shipped_bytes(self.runner, items[index])
                )
                try:
                    future = executor.submit(self.runner, items[index],
                                             index=index)
                except BrokenExecutor:
                    todo.appendleft(index)
                    broken = True
                    break
                in_flight[future] = index
                started[future] = self._clock()
            if broken or not in_flight:
                break
            done, _ = wait(in_flight, timeout=self.poll_s,
                           return_when=FIRST_COMPLETED)
            for future in done:
                exc = future.exception()
                if isinstance(exc, BrokenExecutor):
                    broken = True
                    continue
                index = in_flight.pop(future)
                if exc is None:
                    slots[index] = self.collect(future.result())
                elif error is None:
                    # A real error raised by the mapped function (or a
                    # result that failed to pickle): fail fast on the
                    # first *completed* failure, submission order
                    # notwithstanding.
                    error = (index, exc)
            if self.timeout is not None:
                now = self._clock()
                timed_out = {
                    index for future, index in in_flight.items()
                    if now - started[future] >= self.timeout
                }
        deaths = self.pool.reap(
            executor, kill=broken or bool(timed_out) or error is not None
        )
        if error is not None:
            index, exc = error
            _log.error("item.failed", index=index,
                       error=f"{type(exc).__name__}: {exc}")
            raise exc
        return sorted(in_flight.values()), timed_out, broken, deaths

    # ------------------------------------------------------------------
    def _poison(self, slots, index: int, reason: str, deaths) -> None:
        # The death that broke the pool, not the SIGTERMs of the
        # teardown that followed it.
        codes = sorted((code for _, code in deaths),
                       key=lambda code: code == -SIGTERM)
        exitcode = codes[0] if codes else None
        signal = -exitcode if (exitcode is not None
                               and exitcode < 0) else None
        if reason == "timeout":
            message = (f"item {index}: worker exceeded the "
                       f"{self.timeout}s deadline and was killed")
        else:
            detail = ""
            if signal is not None:
                detail = f" (signal {signal})"
            elif exitcode is not None:
                detail = f" (exit code {exitcode})"
            message = f"item {index}: worker died running it{detail}"
        crash = WorkerCrash(message, index=index, reason=reason,
                            exitcode=exitcode, signal=signal)
        current_tracer().event("parallel.poison_isolated", index=index,
                               reason=reason)
        _log.error("item.poison", index=index, reason=reason,
                   exitcode=exitcode)
        if not self.return_exceptions:
            raise crash
        slots[index] = ItemFailure(
            index=index, error_type="WorkerCrash", message=str(crash),
            traceback="", exception=crash,
        )

    def _fail_remaining(self, indexes, slots) -> None:
        message = (f"retry budget exhausted after {self.max_retries} "
                   f"pool rebuilds; {len(indexes)} item(s) unresolved")
        _log.error("supervision.budget_exhausted",
                   retries=self.max_retries, unresolved=len(indexes))
        if not self.return_exceptions:
            raise WorkerCrash(message, index=indexes[0], reason="budget")
        for index in indexes:
            crash = WorkerCrash(f"item {index}: {message}", index=index,
                                reason="budget")
            slots[index] = ItemFailure(
                index=index, error_type="WorkerCrash",
                message=str(crash), traceback="", exception=crash,
            )
