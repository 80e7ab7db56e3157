"""Property tests: the O(n) rolling extrema.

:func:`repro.frame.ops.rolling_min` / ``rolling_max`` use the van
Herk–Gil–Werman block-scan decomposition — value-identical to the slow
obviously-correct ``rolling_apply(values, window, np.min/np.max)`` for
every window size, length, and NaN placement hypothesis can produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.frame.ops import rolling_apply, rolling_max, rolling_min

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
maybe_nan_floats = st.one_of(finite_floats, st.just(float("nan")))


def series(max_size=80):
    return arrays(
        np.float64,
        st.integers(min_value=0, max_value=max_size),
        elements=maybe_nan_floats,
    )


windows = st.integers(min_value=1, max_value=12)


class TestRollingExtremaFastPath:
    @given(series(), windows)
    @settings(max_examples=150, deadline=None)
    def test_min_matches_reference(self, values, window):
        fast = rolling_min(values, window)
        slow = rolling_apply(values, window, np.min)
        assert np.array_equal(fast, slow, equal_nan=True)

    @given(series(), windows)
    @settings(max_examples=150, deadline=None)
    def test_max_matches_reference(self, values, window):
        fast = rolling_max(values, window)
        slow = rolling_apply(values, window, np.max)
        assert np.array_equal(fast, slow, equal_nan=True)

    def test_window_larger_than_series(self):
        assert np.all(np.isnan(rolling_min(np.arange(3.0), 5)))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            rolling_min(np.arange(4.0), 0)

    def test_nan_poisons_whole_window(self):
        values = np.array([1.0, np.nan, 3.0, 4.0, 5.0])
        out = rolling_max(values, 2)
        assert np.isnan(out[1]) and np.isnan(out[2])
        assert out[3] == 4.0 and out[4] == 5.0

    def test_large_series_exact_on_monotonic_runs(self):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.normal(size=5000))
        for window in (2, 17, 365):
            assert np.array_equal(
                rolling_min(values, window),
                rolling_apply(values, window, np.min),
                equal_nan=True,
            )
