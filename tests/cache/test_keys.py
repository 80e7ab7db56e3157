"""Key construction: every determining input must move the address."""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.cache import (
    array_digest,
    dataset_key,
    fingerprint_parts,
    frame_digest,
    scenarios_key,
    task_key,
)
from repro.frame import DateIndex, Frame
from repro.resilience import FaultPlan, random_fault_plan
from repro.synth import SimulationConfig

HEX = set("0123456789abcdef")


def _frame(data: dict, start: str) -> Frame:
    n = len(next(iter(data.values())))
    index = DateIndex(
        date.fromisoformat(start) + timedelta(days=i) for i in range(n)
    )
    return Frame(index, data)


def _is_key(key):
    return isinstance(key, str) and len(key) == 64 and set(key) <= HEX


class TestFingerprintParts:
    def test_deterministic(self):
        assert fingerprint_parts("a", 1) == fingerprint_parts("a", 1)

    def test_order_sensitive(self):
        assert fingerprint_parts("a", "b") != fingerprint_parts("b", "a")

    def test_separator_prevents_merging(self):
        assert fingerprint_parts("ab", "c") != fingerprint_parts("a", "bc")


class TestArrayAndFrameDigests:
    def test_value_sensitivity(self):
        a = np.arange(6, dtype=np.float64)
        b = a.copy()
        b[3] += 1e-12
        assert array_digest(a) != array_digest(b)

    def test_dtype_and_shape_sensitivity(self):
        a = np.zeros(4, dtype=np.float64)
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(2, 2))

    def test_non_contiguous_equals_contiguous(self):
        base = np.arange(20, dtype=np.float64).reshape(4, 5)
        view = base[:, ::2]
        assert array_digest(view) == array_digest(np.ascontiguousarray(view))

    def test_frame_digest_stable_including_nans(self):
        data = {"a": [1.0, float("nan"), 3.0], "b": [4.0, 5.0, 6.0]}
        f1 = _frame(data, "2020-01-01")
        f2 = _frame(data, "2020-01-01")
        assert frame_digest(f1) == frame_digest(f2)

    def test_frame_digest_sees_columns_and_index(self):
        f1 = _frame({"a": [1.0, 2.0]}, "2020-01-01")
        renamed = _frame({"z": [1.0, 2.0]}, "2020-01-01")
        shifted = _frame({"a": [1.0, 2.0]}, "2020-02-01")
        assert frame_digest(f1) != frame_digest(renamed)
        assert frame_digest(f1) != frame_digest(shifted)


class TestPipelineKeys:
    def test_dataset_key_moves_with_every_input(self):
        sim = SimulationConfig(seed=1)
        plan = random_fault_plan(7, ["onchain_btc"])
        base = dataset_key(sim)
        assert _is_key(base)
        assert dataset_key(SimulationConfig(seed=2)) != base
        assert dataset_key(sim, fault_plan=plan) != base
        assert dataset_key(sim, degradation="fill") != base

    def test_chaos_never_aliases_clean(self):
        # The structural-invalidation guarantee: a faulted run and a
        # clean run of the same seed live at different addresses.
        sim = SimulationConfig(seed=1)
        plan = FaultPlan(seed=0, events=())
        assert dataset_key(sim, fault_plan=plan, degradation="fill") \
            != dataset_key(sim)

    def test_scenarios_and_task_keys(self):
        skey = scenarios_key("d" * 64, ("2017",), (7, 90))
        assert _is_key(skey)
        assert scenarios_key("d" * 64, ("2017",), (7,)) != skey
        tkey = task_key("f" * 64, "d" * 64, "2017_7")
        assert _is_key(tkey)
        assert task_key("f" * 64, "d" * 64, "2017_90") != tkey
        assert task_key("e" * 64, "d" * 64, "2017_7") != tkey
