"""Degraded-source tolerance: retries with exponential backoff.

A :class:`DataSource` wraps one feed's fetch callable (in this repo, a
synth category generator; in a deployment, an HTTP client): transient
failures (:class:`SourceUnavailable`) are retried under a
:class:`RetryPolicy` with exponential backoff.  The sleep is
injectable, so tests assert the exact backoff schedule without ever
waiting.

Every retry and failure surfaces as a :mod:`repro.obs` counter
(``resilience.retry``, ``resilience.fetch.failure``) and fetches run
inside a ``resilience.fetch`` span, so a run's retries show among its
ledger counters (``repro report --run``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..obs import current_metrics, get_logger, span

__all__ = [
    "SourceUnavailable",
    "RetryPolicy",
    "DataSource",
    "FlakyFetch",
]

_log = get_logger("resilience")


class SourceUnavailable(RuntimeError):
    """A data source failed transiently; the fetch may be retried."""


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


class DataSource:
    """One named feed with retry + backoff.

    Parameters
    ----------
    name:
        Source name (used in logs, spans and counters).
    fetch:
        Zero-argument callable producing the source's payload; raises
        :class:`SourceUnavailable` on transient failure.
    retry:
        The backoff schedule (default :class:`RetryPolicy()`).
    sleep:
        Injectable sleep — tests pass a fake so no real waiting
        happens.
    """

    def __init__(self, name: str, fetch, retry: RetryPolicy | None = None,
                 sleep=time.sleep):
        self.name = name
        self._fetch = fetch
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self.attempts = 0
        """Fetch attempts made over this source's lifetime."""

    def fetch(self):
        """Fetch the payload, retrying transient failures with backoff.

        Raises :class:`SourceUnavailable` once the retry budget is
        exhausted.
        """
        metrics = current_metrics()
        last_error: SourceUnavailable | None = None
        with span("resilience.fetch", source=self.name) as record:
            for attempt in range(1, self.retry.max_attempts + 1):
                self.attempts += 1
                record.attrs["attempts"] = attempt
                try:
                    payload = self._fetch()
                except SourceUnavailable as exc:
                    last_error = exc
                    metrics.counter("resilience.fetch.failure").inc()
                    if attempt < self.retry.max_attempts:
                        delay = self.retry.delay(attempt)
                        metrics.counter("resilience.retry").inc()
                        _log.warning("fetch.retry", source=self.name,
                                     attempt=attempt, delay_s=delay,
                                     error=str(exc))
                        self._sleep(delay)
                else:
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
