"""Tests for degrading a simulated dataset under a fault plan."""

import dataclasses
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


def _fetch_error(category="macro"):
    """The one-event plan that leaves ``category`` out."""
    return FaultPlan(seed=1, events=(
        FaultEvent(kind="fetch_error", category=category),
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

    def test_degraded_dataset_cannot_be_extended(self, sim_config):
        raw, _ = resilient_raw_dataset(sim_config)
        assert raw.carry is None


class TestFetchFaults:
    @pytest.mark.parametrize("policy", ["drop-category", "fill"])
    def test_fetch_error_drops_the_source(self, sim_config, policy):
        plain = generate_raw_dataset(sim_config)
        raw, report, counters = _degrade(sim_config, _fetch_error(),
                                         policy=policy)
        outcome = _outcome(report)
        assert outcome.status == "dropped"
        assert outcome.detail == (
            "source 'macro' unavailable: injected fetch error"
        )
        assert counters == {"resilience.category.dropped": 1}
        kept = [name for name in plain.features.columns
                if plain.categories[name] is not DataCategory.MACRO]
        assert raw.features.columns == kept
        np.testing.assert_array_equal(
            raw.features.to_matrix(),
            plain.features.select(kept).to_matrix(),
        )

    @pytest.mark.parametrize("permanent", [0, 1])
    def test_any_permanent_event_never_recovers(self, sim_config,
                                                permanent):
        # A fetch error is permanent wherever it sits among the
        # source's events: the source is dropped and its data faults
        # are never applied.
        events = [FaultEvent(kind="outage", category="macro")]
        events.insert(permanent,
                      FaultEvent(kind="fetch_error", category="macro"))
        _, report, counters = _degrade(
            sim_config, FaultPlan(seed=1, events=tuple(events)),
            policy="fill",
        )
        outcome = _outcome(report)
        assert (outcome.status, outcome.faults) == ("dropped", [])
        assert counters == {"resilience.category.dropped": 1}


class TestAbortPolicy:
    def test_permanent_failure_aborts(self, sim_config):
        with pytest.raises(SourceUnavailable) as excinfo:
            resilient_raw_dataset(sim_config, plan=_fetch_error(),
                                  policy="abort")
        assert str(excinfo.value) == (
            "source 'macro' unavailable: injected fetch error"
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
        raw, report = resilient_raw_dataset(
            sim_config, plan=_fetch_error(), policy="drop-category"
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
            FaultEvent(kind="fetch_error", category=c)
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
        payload = json.dumps(dataclasses.asdict(report))
        assert "macro" in payload
        assert "filled" in payload


class TestValidation:
    def test_unknown_policy_rejected(self, sim_config):
        with pytest.raises(ValueError, match="unknown degradation"):
            resilient_raw_dataset(sim_config, policy="pray")

    @pytest.mark.parametrize("policy", ["abort", "drop-category", "fill"])
    def test_event_on_a_misspelt_category_rejected(self, sim_config,
                                                   policy):
        with pytest.raises(ValueError) as excinfo:
            resilient_raw_dataset(sim_config, plan=_fetch_error("macr0"),
                                  policy=policy)
        assert str(excinfo.value) == (
            "fault plan names 'macr0', which the dataset does not have; "
            "its categories are technical, onchain_btc, onchain_usdc, "
            "sentiment, tradfi, macro"
        )

    def test_event_on_a_category_not_simulated_rejected(self, sim_config):
        assert not sim_config.include_eth
        plan = FaultPlan(seed=1, events=(
            FaultEvent(kind="outage", category="macro"),
            FaultEvent(kind="stale", category="onchain_eth"),
        ))
        with pytest.raises(ValueError, match="'onchain_eth'"):
            resilient_raw_dataset(sim_config, plan=plan, policy="fill")


# ----------------------------------------------------------------------
# Byte pins
# ----------------------------------------------------------------------
# Recorded when random plans were drawn over the six simulated
# categories, at the change that made every ``fetch_error`` an
# unavailable source. The columns and bytes of ``raw.features`` match
# what the earlier retrying fetch-fault rule gave for the same plans;
# the report and counters no longer carry retry bookkeeping.
# ``test_permanent_failure_aborts`` pins the abort message.
def _random_plan(seed):
    return random_fault_plan(seed, [
        c for c in DataCategory if c is not DataCategory.ONCHAIN_ETH
    ])


_PLANS = {
    "none": lambda: None,
    "random7": lambda: _random_plan(7),
    "random11": lambda: _random_plan(11),
    "random1337": lambda: _random_plan(1337),
    "macro_permanent": _fetch_error,
}

_PINS = [
    ("none", "abort",
     "c34cb6443e10b8377f68ccf9f8baeacb944b39e1b287ff23107122de7d0da2a3"),
    ("none", "drop-category",
     "afc4f08fd1b4806ba184fa5d6ae50fd5e26bc2af7dfb10c14f2da7b18324d6b1"),
    ("none", "fill",
     "0c214689ab1567196d0b1669c65d9d5469a6afff25c8b7082e07f54c56a21e95"),
    ("random7", "abort",
     "c25621fba458691f9950a563fcb6d307e87b05033eabe6fdb7c10a82b225ae80"),
    ("random7", "drop-category",
     "109cecb74cf1550cfc49760e9451756704553240ae425e3109f3dc2b55b4cdd7"),
    ("random7", "fill",
     "aa4d69bd114b04b3ef014b4646a65de5efefcefe7331642caa611a95c1f451d0"),
    ("random11", "abort",
     "95325927bb74fb5b5f421816503fa5395e7478ddc50b27f715c10471d32dd6ec"),
    ("random11", "drop-category",
     "e0f2fa2610f009499c86cc99d8bb7dc98e14c19e8eeaaf1c5020e8d65a39216e"),
    ("random11", "fill",
     "ef56b5c215e0e7e9f549f04a597b0a6e2de2042b9755e4e623a7619fb61b69db"),
    ("random1337", "abort",
     "d68ac723af8b4507ae951ed9f4c89634b111e83bcd5eafe72a71619ddbaf589f"),
    ("random1337", "drop-category",
     "d34c68df3415bf05744d08ed3c23e3eaa930306c33764503fb7f038def4324f7"),
    ("random1337", "fill",
     "d766279eda85fe3a9b038d30a4f8d9bd486f84eb172d0fbaf4fe97a764597cbd"),
    ("macro_permanent", "drop-category",
     "c3cae8b37a3bcd812ebdc3e4dd9a7f2734e5f39c756f1f65a999b64a72da24b3"),
    ("macro_permanent", "fill",
     "cc4452fb9a9ea34e8ce71eeabdcc29b8466fc31010b7c926a3834fcf7043f94f"),
]


def _digest(raw, report, counters) -> str:
    digest = hashlib.sha256("\n".join(raw.features.columns).encode())
    digest.update(raw.features.to_matrix().tobytes())
    digest.update(json.dumps(dataclasses.asdict(report),
                             sort_keys=True).encode())
    digest.update(json.dumps(counters, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "plan, policy, expected", _PINS,
    ids=[f"{plan}-{policy}" for plan, policy, _ in _PINS],
)
def test_degraded_dataset_matches_pin(sim_config, plan, policy, expected):
    raw, report, counters = _degrade(sim_config, _PLANS[plan](), policy)
    assert _digest(raw, report, counters) == expected
