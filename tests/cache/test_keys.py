"""Key construction: every determining input must move the address."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cache import (
    array_digest,
    dataset_key,
    fingerprint_parts,
    frame_digest,
    range_digest,
    task_key,
)
from repro.frame import DateIndex, Frame, date_range
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

    @pytest.mark.parametrize("array, digest", [
        (np.arange(12, dtype=np.float64).reshape(3, 4) / 7,
         "faab9dcf0b1c0bff187734863ff2dfa50ce0491820896dd739015139f0cbb362"),
        (np.array([[1.5, np.nan], [-0.0, np.inf]]),
         "09ebd8c954a6ebba85f83f6674a70be0e9cb18ce5918c649401b3fa1820eb685"),
        (np.arange(-5, 7, dtype=np.int64),
         "a8c31d5eef897f3fa6ec217c33655e4ea14edfc44bc250095aa5e29bfe4f575c"),
        (np.array([True, False, True, True]),
         "a62100258a42b19346ac2eaed5d6ecbcb06dd6efb4d9559856f162ec311162e8"),
        (np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2],
         "117eb14084a554014705249e97107f37e4f3d24ac5130c2a261004a2c2a25372"),
        (np.zeros((0, 3)),
         "e6e09ef728a8c1dc913ab6e3d6af50b8fede44260ddefbc2969efcd3e894f91a"),
    ])
    def test_pinned_digests(self, array, digest):
        # Every cache key folds these in: hashing the buffer in place
        # must give the same digest the byte copy gave.
        assert array_digest(array) == digest

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


def _old_range_digest(frame, start, end):
    """The formula ``range_digest`` computed before it memoised."""
    return fingerprint_parts(
        "range", (start, end), frame_digest(frame.loc_range(start, end))
    )


@st.composite
def _frame_and_ranges(draw):
    """A frame of 0-30 rows and 0-3 columns (NaNs included) plus up to
    six ``(start, end)`` ranges whose bounds are ``None`` or dates from
    ten days before the first row to ten days after the last: so the
    ranges come empty, inverted, open-ended and out of calendar."""
    first = draw(st.integers(min_value=736000, max_value=736100))
    n_rows = draw(st.integers(min_value=0, max_value=30))
    n_cols = draw(st.integers(min_value=0, max_value=3))
    values = draw(arrays(
        np.float64, (n_rows, n_cols),
        elements=st.one_of(st.floats(-1e6, 1e6), st.just(float("nan"))),
    ))
    frame = Frame(date_range(first, periods=n_rows),
                  {f"c{j}": values[:, j] for j in range(n_cols)})
    bound = st.one_of(
        st.none(),
        st.integers(first - 10, first + n_rows + 10).map(date.fromordinal),
    )
    ranges = draw(st.lists(st.tuples(bound, bound), min_size=1, max_size=6))
    split = draw(st.integers(min_value=0, max_value=n_rows))
    return frame, ranges, split


class TestRangeDigestMemo:
    @settings(max_examples=150, deadline=None)
    @given(_frame_and_ranges())
    def test_equals_the_unmemoised_formula(self, case):
        frame, ranges, split = case
        # A memoised parent grown by append_rows carries its memo into
        # the child; the child must still digest exactly as a cold frame.
        parent = frame.iloc(slice(0, split))
        for start, end in ranges:
            range_digest(parent, start, end)
        child = parent.append_rows(frame.iloc(slice(split, None)))
        for start, end in ranges:
            expected = _old_range_digest(frame, start, end)
            cold = Frame(frame.index, frame.to_dict())
            assert range_digest(cold, start, end) == expected
            assert range_digest(frame, start, end) == expected  # fills
            assert range_digest(frame, start, end) == expected  # memo
            assert range_digest(child, start, end) == expected


class TestPipelineKeys:
    def test_dataset_key_moves_with_every_input(self, monkeypatch):
        import repro.synth.dataset as dataset_mod

        sim = SimulationConfig(seed=1)
        plan = random_fault_plan(7, ["onchain_btc"])
        base = dataset_key(sim)
        assert _is_key(base)
        assert dataset_key(SimulationConfig(seed=2)) != base
        assert dataset_key(sim, fault_plan=plan) != base
        assert dataset_key(sim, degradation="fill") != base
        # A dataset cached by other simulator code is never read back.
        monkeypatch.setattr(dataset_mod, "SIMULATOR_FORMAT",
                            dataset_mod.SIMULATOR_FORMAT + 1)
        assert dataset_key(sim) != base

    def test_chaos_never_aliases_clean(self):
        # The structural-invalidation guarantee: a faulted run and a
        # clean run of the same seed live at different addresses.
        sim = SimulationConfig(seed=1)
        plan = FaultPlan(seed=0, events=())
        assert dataset_key(sim, fault_plan=plan, degradation="fill") \
            != dataset_key(sim)

    def test_task_key_moves_with_every_input(self, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        tkey = task_key("f" * 64, "d" * 64, "2017_7")
        assert _is_key(tkey)
        assert task_key("f" * 64, "d" * 64, "2017_90") != tkey
        assert task_key("e" * 64, "d" * 64, "2017_7") != tkey
        assert task_key("f" * 64, "c" * 64, "2017_7") != tkey
        # An entry written in another shape is never read back.
        monkeypatch.setattr(pipeline_mod, "TASK_FORMAT",
                            pipeline_mod.TASK_FORMAT + 1)
        assert task_key("f" * 64, "d" * 64, "2017_7") != tkey
