"""Crash-tolerant pool supervision for process fan-out.

A worker killed by the OOM killer, a segfaulting extension, or a hung
syscall used to take the whole :class:`~repro.parallel.ParallelMap`
fan-out with it: :class:`concurrent.futures.ProcessPoolExecutor` marks
the pool broken and every future — finished work included — surfaces as
``BrokenProcessPool``.  This module wraps one ``map`` call in a
:class:`Supervisor` that keeps the fan-out alive instead:

* completed chunks are harvested continuously, so work finished before
  a crash is never recomputed;
* a broken pool is rebuilt and the unfinished chunks are resubmitted
  under a bounded retry budget;
* a chunk whose worker died is *bisected* — halves are retried until
  the single poison item is isolated, runs alone in a one-worker pool,
  and is classified definitively as a :class:`WorkerCrash` (carrying
  the dead worker's exit code / signal) while every other item's result
  is recovered;
* with a deadline (``ParallelMap(timeout=...)`` /
  ``$REPRO_TASK_TIMEOUT``) a chunk observed running past it has its
  pool terminated and is bisected the same way, ending in a
  ``reason="timeout"`` :class:`WorkerCrash`.

Because mapped functions are pure (the package-wide determinism
contract), re-running a chunk is always safe and the final result list
is bit-identical to the serial path for any crash schedule.  Progress
is observable through the ``parallel.worker_crashes`` /
``parallel.retries`` / ``parallel.timeouts`` /
``parallel.resubmitted_items`` counters and ``parallel.*`` span events,
which flow into ``repro trace-summary`` and the run ledger like every
other metric.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import BrokenExecutor, wait
from dataclasses import dataclass, field

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

#: Default pool-rebuild budget: generous enough to bisect a poison item
#: out of any realistic chunk, small enough to bound a pathological
#: crash storm.
DEFAULT_TASK_RETRIES = 16

#: How often the supervisor polls in-flight futures (seconds).  Only
#: affects detection latency, never results.
_POLL_S = 0.05

_UNSET = object()


def _shipped_bytes(runner, items) -> int:
    """Size of the pickle stream a chunk submission pushes through the
    pool's call pipe (fn payload + items).  Feeds the
    ``parallel.bytes_shipped`` counter — the observable that the
    shared-memory transport exists to shrink.  Never raises: an
    unpicklable payload is about to fail in ``submit`` anyway."""
    try:
        return len(pickle.dumps((runner, items),
                                pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


class WorkerCrash(RuntimeError):
    """A worker process died (or hung past its deadline) on one item.

    ``reason`` is ``"crash"`` (the worker exited abnormally),
    ``"timeout"`` (it overran the per-chunk deadline and was killed) or
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
        import pickle

        state = dict(self.__dict__)
        if state.get("exception") is not None:
            try:
                pickle.dumps(state["exception"])
            except Exception:
                state["exception"] = None
        return state


def resolve_task_timeout(timeout: float | None = None) -> float | None:
    """Per-chunk deadline: arg → ``$REPRO_TASK_TIMEOUT`` → None.

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


@dataclass(eq=False)
class _Chunk:
    """One contiguous slice of the item list, tracked across rounds."""

    base: int
    items: list
    isolated: bool = field(default=False)
    """True when this chunk already ran *alone* in a one-worker pool —
    a failure there is definitively attributable to it."""


class Supervisor:
    """Drives one supervised process fan-out ``map`` call.

    Parameters
    ----------
    make_executor:
        ``(max_workers) -> Executor | None`` — a fresh pool per round;
        ``None`` means the platform refused one and the remaining work
        runs through ``fallback`` inline.
    runner:
        The picklable chunk entry point: ``runner(items, base_index=)``
        returning an opaque payload (results plus worker telemetry).
    collect:
        ``(payload) -> list`` — merges the payload's telemetry into the
        parent sinks and returns the per-item results.
    fallback:
        ``(items, base) -> list`` — inline serial execution used when
        no pool can be built.
    """

    def __init__(self, make_executor, runner, collect, fallback,
                 n_jobs: int, timeout: float | None = None,
                 max_retries: int | None = None,
                 return_exceptions: bool = False,
                 poll_s: float = _POLL_S, clock=time.monotonic,
                 reap=None):
        self.make_executor = make_executor
        self.runner = runner
        self.collect = collect
        self.fallback = fallback
        self.n_jobs = n_jobs
        self.timeout = resolve_task_timeout(timeout)
        self.max_retries = resolve_task_retries(max_retries)
        self.return_exceptions = return_exceptions
        self.poll_s = poll_s
        self._clock = clock
        #: ``(executor, kill) -> deaths`` teardown; a persistent
        #: :class:`~repro.parallel.pool.WorkerPool` overrides it to
        #: keep its executor alive across clean rounds.
        self.reap = reap if reap is not None else self._reap

    # ------------------------------------------------------------------
    def run(self, chunks, n_items: int) -> list:
        """Execute every chunk, surviving worker deaths; ordered results."""
        slots: list = [_UNSET] * n_items
        pending = deque(_Chunk(base, list(items)) for base, items in chunks)
        isolate: deque[_Chunk] = deque()
        metrics = current_metrics()
        rounds = 0
        while pending or isolate:
            if rounds > self.max_retries:
                self._fail_remaining(
                    list(pending) + list(isolate), slots
                )
                break
            if isolate:
                # Isolation round: one suspect chunk, alone in its own
                # pool, so a failure is attributable beyond doubt.
                batch = [isolate.popleft()]
                batch[0].isolated = True
            else:
                batch = list(pending)
                pending.clear()
            executor = self.make_executor(min(self.n_jobs, len(batch)))
            if executor is None:  # platform refused a pool: go inline
                for chunk in batch + list(pending) + list(isolate):
                    self._fill(slots, chunk.base,
                               self.fallback(chunk.items, chunk.base))
                return slots
            if rounds:
                metrics.counter("parallel.retries").inc()
            rounds += 1
            unfinished, timed_out, broken, deaths = self._round(
                executor, batch, slots
            )
            if not unfinished:
                continue
            if broken and not timed_out:
                metrics.counter("parallel.worker_crashes").inc(
                    max(1, len(deaths))
                )
                current_tracer().event(
                    "parallel.pool_broken",
                    dead_workers=len(deaths),
                    unfinished_chunks=len(unfinished),
                )
            resubmitted = 0
            for chunk in unfinished:
                hung = chunk in timed_out
                if hung:
                    metrics.counter("parallel.timeouts").inc()
                    current_tracer().event(
                        "parallel.chunk_timeout", base=chunk.base,
                        items=len(chunk.items), deadline_s=self.timeout,
                    )
                if len(chunk.items) > 1:
                    # Bisect: halves retry until the poison is cornered.
                    mid = len(chunk.items) // 2
                    pending.append(_Chunk(chunk.base, chunk.items[:mid]))
                    pending.append(
                        _Chunk(chunk.base + mid, chunk.items[mid:])
                    )
                    resubmitted += len(chunk.items)
                elif hung or chunk.isolated:
                    # Definitive: the deadline names the future, the
                    # isolation pool names the chunk.
                    self._poison(slots, chunk,
                                 "timeout" if hung else "crash", deaths)
                else:
                    # A crashed singleton in a shared pool may be
                    # collateral of another chunk's poison — prove it
                    # alone before convicting it.
                    isolate.append(chunk)
                    resubmitted += 1
            if resubmitted:
                metrics.counter("parallel.resubmitted_items").inc(
                    resubmitted
                )
        return slots

    # ------------------------------------------------------------------
    def _round(self, executor, batch, slots):
        """Submit one batch and harvest until done, broken, or hung."""
        futures: dict = {}
        finished: set = set()
        timed_out: set = set()
        broken = False
        error = None
        metrics = current_metrics()
        try:
            for chunk in batch:
                metrics.counter("parallel.bytes_shipped").inc(
                    _shipped_bytes(self.runner, chunk.items)
                )
                futures[executor.submit(
                    self.runner, chunk.items, base_index=chunk.base
                )] = chunk
        except BrokenExecutor:
            broken = True
        running_since: dict = {}
        in_flight = set(futures)
        while in_flight and not broken and not timed_out and error is None:
            done, not_done = wait(in_flight, timeout=self.poll_s)
            now = self._clock()
            for future in done:
                in_flight.discard(future)
                chunk = futures[future]
                if future.cancelled():
                    continue
                exc = future.exception()
                if exc is None:
                    self._fill(slots, chunk.base,
                               self.collect(future.result()))
                    finished.add(chunk)
                elif isinstance(exc, BrokenExecutor):
                    broken = True
                else:
                    # A real error raised by the mapped function (or a
                    # result that failed to pickle): fail fast on the
                    # first *completed* failure, submission order
                    # notwithstanding.
                    error = (chunk, exc)
                    break
            if self.timeout is None:
                continue
            for future in not_done:
                if not future.running():
                    continue  # queued chunks accrue no deadline
                started = running_since.setdefault(future, now)
                if now - started >= self.timeout:
                    timed_out.add(futures[future])
        deaths = self.reap(
            executor, kill=broken or bool(timed_out) or error is not None
        )
        if error is not None:
            chunk, exc = error
            _log.error("chunk.failed", base=chunk.base,
                       items=len(chunk.items),
                       error=f"{type(exc).__name__}: {exc}")
            raise exc
        unfinished = [c for c in batch if c not in finished]
        return unfinished, timed_out, broken, deaths

    def _reap(self, executor, kill: bool) -> list:
        """Shut the pool down; returns ``(pid, exitcode)`` casualties.

        ``kill=True`` terminates worker processes first — the only way
        to reclaim a hung worker.  ``_processes`` is stdlib-internal
        but stable since 3.7; when absent the shutdown alone suffices.
        """
        processes = dict(getattr(executor, "_processes", None) or {})
        if kill:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
        executor.shutdown(wait=kill, cancel_futures=True)
        deaths = []
        for pid, process in processes.items():
            code = process.exitcode
            if code not in (0, None):
                deaths.append((pid, code))
        return deaths

    # ------------------------------------------------------------------
    def _fill(self, slots, base: int, results) -> None:
        for offset, result in enumerate(results):
            slots[base + offset] = result

    def _poison(self, slots, chunk, reason: str, deaths) -> None:
        index = chunk.base
        exitcode = deaths[0][1] if deaths else None
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
        _log.error("chunk.poison", index=index, reason=reason,
                   exitcode=exitcode)
        if not self.return_exceptions:
            raise crash
        slots[index] = ItemFailure(
            index=index, error_type="WorkerCrash", message=str(crash),
            traceback="", exception=crash,
        )

    def _fail_remaining(self, leftovers, slots) -> None:
        indexes = sorted(
            chunk.base + offset
            for chunk in leftovers
            for offset in range(len(chunk.items))
        )
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
