"""Unit tests for repro.resilience.source (retry/backoff)."""

import pytest

from repro.obs import MetricsRegistry, use_metrics
from repro.resilience import (
    DataSource,
    FlakyFetch,
    RetryPolicy,
    SourceUnavailable,
)


class SleepRecorder:
    def __init__(self):
        self.slept = []

    def __call__(self, seconds):
        self.slept.append(seconds)


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.5,
                             multiplier=2.0, max_delay=30.0)
        assert [policy.delay(k) for k in (1, 2, 3, 4)] == \
               [0.5, 1.0, 2.0, 4.0]

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=3.0,
                             max_delay=25.0)
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 25.0
        assert policy.delay(9) == 25.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestDataSource:
    def test_recovers_after_transient_failures(self):
        sleep = SleepRecorder()
        fetch = FlakyFetch(lambda: "payload", failures=2)
        source = DataSource("feed", fetch,
                            retry=RetryPolicy(max_attempts=3,
                                              base_delay=0.5),
                            sleep=sleep)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            assert source.fetch() == "payload"
        assert source.attempts == 3
        assert sleep.slept == [0.5, 1.0]  # the deterministic backoff
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.retry"] == 2
        assert counters["resilience.fetch.failure"] == 2

    def test_exhausted_retries_raise_source_unavailable(self):
        sleep = SleepRecorder()
        fetch = FlakyFetch(lambda: "payload", permanent=True)
        source = DataSource("feed", fetch,
                            retry=RetryPolicy(max_attempts=2,
                                              base_delay=0.1),
                            sleep=sleep)
        with pytest.raises(SourceUnavailable, match="after 2 attempts"):
            source.fetch()
        assert source.attempts == 2
        assert sleep.slept == [0.1]  # no sleep after the final attempt

    def test_fetch_span_records_outcome(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        source = DataSource("feed", lambda: 42, sleep=lambda s: None)
        with use_tracer(tracer):
            assert source.fetch() == 42
        fetch_spans = [s for s in tracer.spans
                       if s.name == "resilience.fetch"]
        assert len(fetch_spans) == 1
        assert fetch_spans[0].attrs["outcome"] == "ok"
        assert fetch_spans[0].attrs["source"] == "feed"


class TestFlakyFetch:
    def test_fails_then_succeeds(self):
        fetch = FlakyFetch(lambda: "ok", failures=2)
        for _ in range(2):
            with pytest.raises(SourceUnavailable):
                fetch()
        assert fetch() == "ok"
        assert fetch.calls == 3

    def test_permanent_never_succeeds(self):
        fetch = FlakyFetch(lambda: "ok", permanent=True)
        for _ in range(5):
            with pytest.raises(SourceUnavailable):
                fetch()
