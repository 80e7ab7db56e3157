"""Tests for degrading a simulated dataset under a fault plan."""

import hashlib
import json

import numpy as np
import pytest

from repro.categories import DataCategory
from repro.obs import MetricsRegistry, use_metrics
from repro.resilience import (
    FaultEvent,
    FaultPlan,
    SourceUnavailable,
    random_fault_plan,
    resilient_raw_dataset,
)
from repro.synth import SimulationConfig, generate_raw_dataset

@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(start="2017-01-01", end="2018-06-30",
                            seed=42, n_assets=105)


def _fetch_errors(*failures, permanent=()):
    """A plan of ``fetch_error`` events on macro, in the given order."""
    return FaultPlan(seed=1, events=tuple(
        FaultEvent(kind="fetch_error", category="macro", failures=f,
                   permanent=i in permanent)
        for i, f in enumerate(failures)
    ))


def _degrade(config, plan=None, policy="abort"):
    """``(raw, report, resilience counters)`` of one degraded assembly."""
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        raw, report = resilient_raw_dataset(config, plan=plan,
                                            policy=policy)
    counters = {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith("resilience.")
    }
    return raw, report, counters


def _outcome(report, category="macro"):
    return {o.category: o for o in report.outcomes}[category]


class TestCleanPath:
    def test_no_plan_matches_plain_generation(self, sim_config):
        plain = generate_raw_dataset(sim_config)
        raw, report = resilient_raw_dataset(sim_config)
        assert report.ok
        assert report.total_faults() == 0
        assert raw.features.columns == plain.features.columns
        np.testing.assert_array_equal(
            raw.features.to_matrix(), plain.features.to_matrix()
        )

    def test_transient_failure_recovers(self, sim_config):
        plain = generate_raw_dataset(sim_config)
        raw, report, counters = _degrade(sim_config, _fetch_errors(2))
        outcome = _outcome(report)
        assert outcome.status == "recovered"
        assert outcome.attempts == 3
        assert report.total_retries() == 2
        assert counters["resilience.retry"] == 2
        assert counters["resilience.fetch.failure"] == 2
        # recovery is invisible in the data itself
        np.testing.assert_array_equal(
            raw.features.to_matrix(), plain.features.to_matrix()
        )

    def test_degraded_dataset_cannot_be_extended(self, sim_config):
        raw, _ = resilient_raw_dataset(sim_config)
        assert raw.carry is None


class TestFetchFaults:
    def test_failures_beyond_the_attempt_budget_drop_the_source(
            self, sim_config):
        _, report, counters = _degrade(
            sim_config, _fetch_errors(3), policy="drop-category"
        )
        outcome = _outcome(report)
        assert (outcome.status, outcome.attempts) == ("dropped", 3)
        assert outcome.detail == (
            "source 'macro' unavailable after 3 attempts: "
            "macro: injected transient failure 3/3"
        )
        assert counters["resilience.fetch.failure"] == 3
        assert counters["resilience.retry"] == 2
        assert counters["resilience.category.dropped"] == 1

    def test_failures_add_up_across_events(self, sim_config):
        _, recovered, _ = _degrade(sim_config, _fetch_errors(1, 1))
        assert (_outcome(recovered).status,
                _outcome(recovered).attempts) == ("recovered", 3)
        _, dropped, _ = _degrade(
            sim_config, _fetch_errors(2, 1), policy="drop-category"
        )
        assert _outcome(dropped).status == "dropped"
        # the plan's later event fails first, then the earlier one
        assert _outcome(dropped).detail.endswith(
            "macro: injected transient failure 2/2"
        )

    @pytest.mark.parametrize("permanent", [0, 1])
    def test_any_permanent_event_never_recovers(self, sim_config,
                                                permanent):
        _, report, counters = _degrade(
            sim_config, _fetch_errors(0, 1, permanent=(permanent,)),
            policy="drop-category",
        )
        outcome = _outcome(report)
        assert (outcome.status, outcome.attempts) == ("dropped", 3)
        assert outcome.detail.endswith("macro: permanent injected outage")
        assert counters["resilience.fetch.failure"] == 3


class TestAbortPolicy:
    def test_permanent_failure_aborts(self, sim_config):
        plan = _fetch_errors(2, permanent=(0,))
        with pytest.raises(SourceUnavailable) as excinfo:
            resilient_raw_dataset(sim_config, plan=plan, policy="abort")
        assert str(excinfo.value) == (
            "source 'macro' unavailable after 3 attempts: "
            "macro: permanent injected outage"
        )

    def test_corruption_passes_through_untouched(self, sim_config):
        plan = FaultPlan(seed=1, events=(
            FaultEvent(kind="outage", category="macro",
                       start_frac=0.4, duration_frac=0.1),
        ))
        raw, report = resilient_raw_dataset(
            sim_config, plan=plan, policy="abort"
        )
        outcome = _outcome(report)
        assert outcome.status == "degraded"
        assert outcome.faults  # corruption recorded, not repaired
        nan_total = int(np.isnan(raw.features.to_matrix()).sum())
        assert nan_total > 0


class TestDropCategoryPolicy:
    def test_dead_source_is_excluded(self, sim_config):
        plan = _fetch_errors(2, permanent=(0,))
        raw, report = resilient_raw_dataset(
            sim_config, plan=plan, policy="drop-category"
        )
        assert report.dropped_categories() == ["macro"]
        assert not any(
            category.value == "macro"
            for category in raw.categories.values()
        )
        plain = generate_raw_dataset(sim_config)
        assert raw.features.n_cols < plain.features.n_cols

    def test_every_source_dead_raises(self, sim_config):
        events = tuple(
            FaultEvent(kind="fetch_error", category=c, permanent=True)
            for c in ("technical", "onchain_btc", "onchain_usdc",
                      "sentiment", "tradfi", "macro")
        )
        with pytest.raises(SourceUnavailable, match="every data source"):
            resilient_raw_dataset(
                sim_config, plan=FaultPlan(seed=1, events=events),
                policy="drop-category",
            )


class TestFillPolicy:
    def test_fill_repairs_corruption(self, sim_config):
        plan = FaultPlan(seed=1, events=(
            FaultEvent(kind="outage", category="macro",
                       start_frac=0.4, duration_frac=0.1),
        ))
        raw, report = resilient_raw_dataset(
            sim_config, plan=plan, policy="fill"
        )
        outcome = _outcome(report)
        assert outcome.status == "filled"
        assert outcome.filled_values > 0


class TestDeterminism:
    def test_bit_identical_across_calls(self, sim_config):
        plan = FaultPlan(seed=5, events=(
            FaultEvent(kind="nan_gaps", category="sentiment",
                       start_frac=0.1, duration_frac=0.5, rate=0.3),
            FaultEvent(kind="spike", category="tradfi",
                       start_frac=0.3, duration_frac=0.2,
                       magnitude=9.0, rate=0.2),
        ))
        raw1, _ = resilient_raw_dataset(sim_config, plan=plan,
                                        policy="fill")
        raw2, _ = resilient_raw_dataset(sim_config, plan=plan,
                                        policy="fill")
        assert raw1.features.columns == raw2.features.columns
        np.testing.assert_array_equal(
            raw1.features.to_matrix(), raw2.features.to_matrix()
        )

    def test_report_serialises(self, sim_config):
        plan = FaultPlan(seed=5, events=(
            FaultEvent(kind="outage", category="macro",
                       start_frac=0.2, duration_frac=0.05),
        ))
        _, report = resilient_raw_dataset(sim_config, plan=plan,
                                          policy="fill")
        payload = json.dumps(report.to_dict())
        assert "macro" in payload
        assert "filled" in payload


class TestValidation:
    def test_unknown_policy_rejected(self, sim_config):
        with pytest.raises(ValueError, match="unknown degradation"):
            resilient_raw_dataset(sim_config, policy="pray")


# ----------------------------------------------------------------------
# Byte pins
# ----------------------------------------------------------------------
# Recorded when fault plans were applied to datasets rebuilt by a second,
# retrying generator chain; they prove that degrading the dataset
# ``generate_raw_dataset`` built gives the same columns, bytes, report
# and counters. ``test_permanent_failure_aborts`` pins the abort message.
def _random_plan(seed):
    return random_fault_plan(seed, list(DataCategory))


_PLANS = {
    "none": lambda: None,
    "random7": lambda: _random_plan(7),
    "random11": lambda: _random_plan(11),
    "random1337": lambda: _random_plan(1337),
    "macro_permanent": lambda: _fetch_errors(2, permanent=(0,)),
    "macro_1+1": lambda: _fetch_errors(1, 1),
    "macro_2+1": lambda: _fetch_errors(2, 1),
}

_PINS = [
    ("none", "abort",
     "c2d670f4a9d49a5e540d2863bc9c8a98b509d6972a9ef9f98c1da042648ddf2c"),
    ("none", "drop-category",
     "5378419363f799b50463089b5e948a6d9e926b2a9f045655ca517819e73899dc"),
    ("none", "fill",
     "8ba95748cca5a257531af49983309e1a6ae0fc3df5a30163e6051c2122435429"),
    ("random7", "drop-category",
     "6a55beb3de034548a9cecc4b1ee5b78cd89b40cab2de02f8ab21851ce043a1ce"),
    ("random7", "fill",
     "575aa1495eaa386d0e6bfabe59f7d659d3c669a5f4d49a097e66c62faf948092"),
    ("random11", "drop-category",
     "f02054251f206775d94f7ac347bf85611da0a1b5eb741bf51adbf164eecfcc78"),
    ("random11", "fill",
     "73bd46b4a7cad70ddcd78f3922445f4fdbd3dba92ba7dad1324afbbb518112ef"),
    ("random1337", "drop-category",
     "fce8505d18409bb14c41f83ba2ae709f6f31a0f37ce3b84c0e1616ffedfa7974"),
    ("random1337", "fill",
     "9d80c8406a620d7a7c22ed101c4474f0a1f1ca4389787de70c0813cbbe9ad8a5"),
    ("macro_permanent", "drop-category",
     "6fbd8b27d3422580d26cc88a65a5949f661f1e15499bbd518f5c6f4d21f2b3dc"),
    ("macro_permanent", "fill",
     "bdcc11503a3e2a254976ec9fd23faf8281415e6738855502d4430340abe3eda4"),
    ("macro_1+1", "abort",
     "eb9074d23a79c8d9607421a46dabab7b16329138a3241ee0da05cf0b92e7dc31"),
    ("macro_2+1", "drop-category",
     "3fc2db13c9e6cd1817fd88b84a96cbafda1c5ffeebe906892f8453b526a54017"),
]


def _digest(raw, report, counters) -> str:
    digest = hashlib.sha256("\n".join(raw.features.columns).encode())
    digest.update(raw.features.to_matrix().tobytes())
    digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    digest.update(json.dumps(counters, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "plan, policy, expected", _PINS,
    ids=[f"{plan}-{policy}" for plan, policy, _ in _PINS],
)
def test_degraded_dataset_matches_pin(sim_config, plan, policy, expected):
    raw, report, counters = _degrade(sim_config, _PLANS[plan](), policy)
    assert _digest(raw, report, counters) == expected
