"""Unit tests for repro.resilience.faults."""

import dataclasses

import numpy as np
import pytest

from repro.frame import Frame, date_range
from repro.resilience import (
    FaultEvent,
    FaultPlan,
    apply_fault_plan,
    random_fault_plan,
)
from repro.resilience.faults import DATA_FAULT_KINDS, _window

NAN = np.nan


def _frame(n_rows=100, n_cols=4, seed=0):
    rng = np.random.default_rng(seed)
    index = date_range("2020-01-01", periods=n_rows)
    data = {
        f"col_{i}": rng.normal(10.0, 2.0, size=n_rows)
        for i in range(n_cols)
    }
    return Frame(index, data)


class TestFaultEvent:
    def test_roundtrip(self):
        event = FaultEvent(kind="spike", category="macro",
                           start_frac=0.2, duration_frac=0.05,
                           column_frac=0.5, magnitude=6.0, rate=0.3)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor", category="macro")

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="outage", category="m", start_frac=1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="outage", category="m", duration_frac=0.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="outage", category="m", column_frac=1.5)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultEvent fields"):
            FaultEvent.from_dict({"kind": "outage", "category": "m",
                                  "severity": "bad"})

    @pytest.mark.parametrize("key, value", [("failures", 2),
                                            ("permanent", True)])
    def test_retired_fetch_fields_rejected(self, key, value):
        # A plan file from when fetch errors could be transient fails
        # loudly instead of being read as an outage.
        with pytest.raises(ValueError, match=key):
            FaultEvent.from_dict({"kind": "fetch_error",
                                  "category": "macro", key: value})


class TestFaultPlan:
    def test_json_roundtrip(self, tmp_path):
        plan = random_fault_plan(7, ["macro", "sentiment"])
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_events_must_be_fault_events(self):
        with pytest.raises(TypeError):
            FaultPlan(seed=1, events=({"kind": "outage"},))

    def test_events_for_preserves_plan_indices(self):
        events = (
            FaultEvent(kind="outage", category="a"),
            FaultEvent(kind="spike", category="b"),
            FaultEvent(kind="stale", category="a"),
        )
        plan = FaultPlan(seed=0, events=events)
        assert plan.events_for("a") == [(0, events[0]), (2, events[2])]
        assert plan.events_for("a", ("stale",)) == [(2, events[2])]


class TestWindow:
    def test_delisting_extends_to_end(self):
        event = FaultEvent(kind="delisting", category="a", start_frac=0.8)
        start, length = _window(event, 100)
        assert (start, length) == (80, 20)

    def test_window_clamped_to_series(self):
        event = FaultEvent(kind="outage", category="a",
                           start_frac=0.95, duration_frac=0.5)
        start, length = _window(event, 100)
        assert start + length <= 100
        assert length >= 1


class TestApplyFaultPlan:
    def test_outage_nans_the_window(self):
        frame = _frame()
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="outage", category="m",
                       start_frac=0.5, duration_frac=0.1),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        assert len(injected) == frame.n_cols
        for name in out.columns:
            assert np.isnan(out[name][50:60]).all()
            assert not np.isnan(out[name][:50]).any()
            assert not np.isnan(out[name][60:]).any()

    def test_stale_repeats_window_start_value(self):
        frame = _frame()
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="stale", category="m",
                       start_frac=0.2, duration_frac=0.1),
        ))
        out, _ = apply_fault_plan(frame, "m", plan)
        for name in out.columns:
            window = out[name][20:30]
            assert (window == frame[name][20]).all()

    def test_delisting_never_comes_back(self):
        frame = _frame()
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="delisting", category="m", start_frac=0.7,
                       column_frac=0.5),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        hit = {f.column for f in injected}
        assert len(hit) == 2  # half of 4 columns
        for name in hit:
            assert np.isnan(out[name][70:]).all()
        for name in set(frame.columns) - hit:
            assert not np.isnan(out[name]).any()

    def test_nan_gaps_hits_a_subset(self):
        frame = _frame(n_rows=400)
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="nan_gaps", category="m",
                       start_frac=0.1, duration_frac=0.5, rate=0.3),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        for fault in injected:
            assert 0 < fault.n_affected < fault.length
            window = out[fault.column][fault.start:
                                       fault.start + fault.length]
            assert int(np.isnan(window).sum()) == fault.n_affected

    def test_spikes_move_values_by_sigmas(self):
        frame = _frame(n_rows=300)
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="spike", category="m", start_frac=0.3,
                       duration_frac=0.2, magnitude=10.0, rate=0.1),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        changed = sum(
            int((out[name] != frame[name]).sum()) for name in out.columns
        )
        assert changed == sum(f.n_affected for f in injected)
        assert changed > 0

    def test_other_category_untouched(self):
        frame = _frame()
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="outage", category="other"),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        assert injected == []
        assert out is frame

    def test_fetch_error_not_applied_to_data(self):
        frame = _frame()
        plan = FaultPlan(seed=3, events=(
            FaultEvent(kind="fetch_error", category="m"),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        assert injected == []
        assert out is frame

    def test_deterministic_for_same_seed(self):
        frame = _frame(n_rows=200)
        plan = random_fault_plan(21, ["m"])
        out1, inj1 = apply_fault_plan(frame, "m", plan)
        out2, inj2 = apply_fault_plan(frame, "m", plan)
        assert inj1 == inj2
        for name in out1.columns:
            np.testing.assert_array_equal(out1[name], out2[name])

    def test_seed_changes_draws(self):
        frame = _frame(n_rows=200)
        plan = FaultPlan(seed=5, events=(
            FaultEvent(kind="nan_gaps", category="m",
                       start_frac=0.1, duration_frac=0.6, rate=0.3),
        ))
        out1, _ = apply_fault_plan(frame, "m", plan)
        out2, _ = apply_fault_plan(frame, "m",
                                   dataclasses.replace(plan, seed=6))
        different = any(
            not np.array_equal(out1[name], out2[name], equal_nan=True)
            for name in out1.columns
        )
        assert different

    def test_adding_an_event_never_perturbs_others(self):
        # The per-event SeedSequence keying means event 0's corruption
        # is identical whether or not event 1 exists.
        frame = _frame(n_rows=200)
        gap_event = FaultEvent(kind="nan_gaps", category="m",
                               start_frac=0.1, duration_frac=0.2,
                               rate=0.4)
        solo = FaultPlan(seed=5, events=(gap_event,))
        paired = FaultPlan(seed=5, events=(
            gap_event,
            FaultEvent(kind="outage", category="m",
                       start_frac=0.8, duration_frac=0.05),
        ))
        out_solo, _ = apply_fault_plan(frame, "m", solo)
        out_paired, _ = apply_fault_plan(frame, "m", paired)
        for name in frame.columns:
            np.testing.assert_array_equal(
                out_solo[name][:160], out_paired[name][:160]
            )

    def test_empty_frame_passthrough(self):
        frame = Frame(date_range("2020-01-01", periods=0), {})
        plan = FaultPlan(seed=0, events=(
            FaultEvent(kind="outage", category="m"),
        ))
        out, injected = apply_fault_plan(frame, "m", plan)
        assert injected == []


class TestRandomFaultPlan:
    def test_deterministic(self):
        a = random_fault_plan(9, ["x", "y"])
        b = random_fault_plan(9, ["x", "y"])
        assert a == b

    def test_contains_a_delisting_and_no_fetch_error(self):
        # Every category stays available: a random plan only corrupts.
        plan = random_fault_plan(9, ["x"])
        kinds = [e.kind for e in plan.events]
        assert kinds.count("delisting") == 1
        assert "fetch_error" not in kinds

    def test_all_kinds_valid(self):
        plan = random_fault_plan(9, ["x", "y"], n_events=30)
        assert all(e.kind in DATA_FAULT_KINDS for e in plan.events)

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            random_fault_plan(1, [])
        with pytest.raises(ValueError):
            random_fault_plan(1, ["x"], n_events=0)
