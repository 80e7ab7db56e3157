"""Degraded-source tolerance: retries, backoff, circuit breaking.

A :class:`DataSource` wraps one feed's fetch callable (in this repo, a
synth category generator; in a deployment, an HTTP client) with the
classic resilience stack:

* transient failures (:class:`SourceUnavailable`) are retried under a
  :class:`RetryPolicy` with exponential backoff — the sleep and clock
  are injectable, so tests assert the exact backoff schedule without
  ever waiting;
* a :class:`CircuitBreaker` stops hammering a source that keeps
  failing: after ``failure_threshold`` consecutive failures the circuit
  opens and calls fail fast (:class:`CircuitOpen`) until
  ``reset_timeout`` clock-seconds pass, when one probe call is let
  through (half-open) and decides whether the circuit closes again.

Every retry, trip and failure surfaces as a :mod:`repro.obs` counter
(``resilience.retry``, ``resilience.breaker.trip``,
``resilience.fetch.failure``) and fetches run inside a
``resilience.fetch`` span, so a run's retries and breaker trips show
among its ledger counters (``repro report --run``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..obs import current_metrics, get_logger, span

__all__ = [
    "SourceUnavailable",
    "CircuitOpen",
    "RetryPolicy",
    "CircuitBreaker",
    "DataSource",
    "FlakyFetch",
]

_log = get_logger("resilience")


class SourceUnavailable(RuntimeError):
    """A data source failed transiently; the fetch may be retried."""


class CircuitOpen(SourceUnavailable):
    """The source's circuit breaker is open; the call failed fast."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry schedule.

    Attempt ``k`` (1-based) sleeps ``base_delay * multiplier**(k-1)``
    seconds before retrying, capped at ``max_delay``. No jitter: the
    schedule is deterministic, like everything else in this repo.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )


class CircuitBreaker:
    """Consecutive-failure circuit breaker with an injectable clock.

    States: ``closed`` (calls flow), ``open`` (calls fail fast), and
    ``half-open`` (one probe allowed after ``reset_timeout``). A probe
    success closes the circuit; a probe failure re-opens it.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 60.0, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the half-open state only the first caller gets through until
        its outcome is recorded.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """Note a successful call: the circuit closes and resets."""
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> bool:
        """Note a failed call; returns True when this trips the circuit."""
        self._probing = False
        if self._opened_at is not None:
            # a failed half-open probe re-opens the window
            self._opened_at = self._clock()
            return False
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            return True
        return False


class DataSource:
    """One named feed with retry + backoff + circuit breaking.

    Parameters
    ----------
    name:
        Source name (used in logs, spans and counters).
    fetch:
        Zero-argument callable producing the source's payload; raises
        :class:`SourceUnavailable` on transient failure.
    retry:
        The backoff schedule (default :class:`RetryPolicy()`).
    breaker:
        Optional shared :class:`CircuitBreaker`; a private one is
        created when omitted.
    sleep / clock:
        Injectable timing functions — tests pass fakes so no real
        waiting happens.
    """

    def __init__(self, name: str, fetch, retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 sleep=time.sleep, clock=time.monotonic):
        self.name = name
        self._fetch = fetch
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = (breaker if breaker is not None
                        else CircuitBreaker(clock=clock))
        self._sleep = sleep
        self.attempts = 0
        """Fetch attempts made over this source's lifetime."""

    def fetch(self):
        """Fetch the payload, retrying transient failures with backoff.

        Raises :class:`CircuitOpen` immediately when the breaker is
        open, and re-raises the last :class:`SourceUnavailable` once
        the retry budget is exhausted.
        """
        metrics = current_metrics()
        last_error: SourceUnavailable | None = None
        with span("resilience.fetch", source=self.name) as record:
            for attempt in range(1, self.retry.max_attempts + 1):
                if not self.breaker.allow():
                    metrics.counter("resilience.breaker.rejected").inc()
                    record.attrs["outcome"] = "circuit-open"
                    raise CircuitOpen(
                        f"source {self.name!r}: circuit open"
                    )
                self.attempts += 1
                record.attrs["attempts"] = attempt
                try:
                    payload = self._fetch()
                except SourceUnavailable as exc:
                    last_error = exc
                    tripped = self.breaker.record_failure()
                    metrics.counter("resilience.fetch.failure").inc()
                    if tripped:
                        metrics.counter("resilience.breaker.trip").inc()
                        _log.warning("breaker.open", source=self.name,
                                     failures=self.breaker.failure_threshold)
                    if attempt < self.retry.max_attempts:
                        delay = self.retry.delay(attempt)
                        metrics.counter("resilience.retry").inc()
                        _log.warning("fetch.retry", source=self.name,
                                     attempt=attempt, delay_s=delay,
                                     error=str(exc))
                        self._sleep(delay)
                else:
                    self.breaker.record_success()
                    record.attrs["outcome"] = "ok"
                    return payload
            record.attrs["outcome"] = "failed"
        _log.error("fetch.failed", source=self.name,
                   attempts=self.retry.max_attempts, error=str(last_error))
        raise SourceUnavailable(
            f"source {self.name!r} unavailable after "
            f"{self.retry.max_attempts} attempts: {last_error}"
        )


class FlakyFetch:
    """Wrap a callable to fail its first ``failures`` calls.

    The failure-injection shim :func:`~repro.resilience.degradation`
    puts between a :class:`DataSource` and a synth generator when a
    :class:`~repro.resilience.faults.FaultPlan` schedules a
    ``fetch_error``; also handy in tests.
    """

    def __init__(self, fn, failures: int = 0, permanent: bool = False,
                 name: str = "source"):
        self._fn = fn
        self.failures = failures
        self.permanent = permanent
        self.name = name
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.permanent:
            raise SourceUnavailable(
                f"{self.name}: permanent injected outage"
            )
        if self.calls <= self.failures:
            raise SourceUnavailable(
                f"{self.name}: injected transient failure "
                f"{self.calls}/{self.failures}"
            )
        return self._fn()
