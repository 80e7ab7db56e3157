"""Property-based tests (hypothesis) for the frame substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.frame import (
    DateIndex,
    Frame,
    backward_fill,
    date_range,
    forward_fill,
    interpolate_linear,
    longest_nan_run,
    shift,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
maybe_nan_floats = st.one_of(finite_floats, st.just(float("nan")))


def series(min_size=0, max_size=60, allow_nan=True):
    elems = maybe_nan_floats if allow_nan else finite_floats
    return arrays(
        np.float64,
        st.integers(min_value=min_size, max_value=max_size),
        elements=elems,
    )


@st.composite
def index_pair(draw):
    start_a = draw(st.integers(min_value=700000, max_value=700100))
    start_b = draw(st.integers(min_value=700000, max_value=700100))
    len_a = draw(st.integers(min_value=0, max_value=40))
    len_b = draw(st.integers(min_value=0, max_value=40))
    return (
        date_range(start_a, periods=len_a),
        date_range(start_b, periods=len_b),
    )


class TestIndexProperties:
    @given(index_pair())
    def test_indexer_positions_are_correct(self, pair):
        a, b = pair
        pos = a.indexer(b)
        for j, p in enumerate(pos):
            if p >= 0:
                assert a[int(p)] == b[j]
            else:
                assert b[j] not in a


class TestFillProperties:
    @given(series())
    def test_interpolate_never_increases_nans(self, values):
        before = int(np.isnan(values).sum())
        after = int(np.isnan(interpolate_linear(values)).sum())
        assert after <= before

    @given(series())
    def test_interpolate_preserves_observed(self, values):
        out = interpolate_linear(values)
        observed = ~np.isnan(values)
        assert np.array_equal(out[observed], values[observed])

    @given(series())
    def test_interpolate_bounds(self, values):
        """Linear interpolation stays within [min, max] of observations."""
        out = interpolate_linear(values)
        obs = values[~np.isnan(values)]
        if obs.size:
            filled = out[~np.isnan(out)]
            assert filled.min() >= obs.min() - 1e-9
            assert filled.max() <= obs.max() + 1e-9

    @given(series())
    def test_ffill_idempotent(self, values):
        once = forward_fill(values)
        twice = forward_fill(once)
        assert np.array_equal(once, twice, equal_nan=True)

    @given(series())
    def test_bfill_is_reversed_ffill(self, values):
        assert np.array_equal(
            backward_fill(values),
            forward_fill(values[::-1])[::-1],
            equal_nan=True,
        )

    @given(series())
    def test_nan_run_bounded_by_total_nans(self, values):
        assert longest_nan_run(values) <= int(np.isnan(values).sum())


class TestShiftProperties:
    @given(series(allow_nan=False), st.integers(min_value=-5, max_value=5))
    def test_shift_roundtrip_preserves_overlap(self, values, k):
        out = shift(shift(values, k), -k)
        n = values.size
        if n and abs(k) < n:
            core = slice(max(0, -k) + max(0, k), n - abs(k) + min(abs(k), n))
            # overlap region: positions that survived both shifts
            survived = ~np.isnan(out)
            assert np.array_equal(out[survived], values[survived])

    @given(series(), st.integers(min_value=-5, max_value=5))
    def test_shift_length_invariant(self, values, k):
        assert shift(values, k).size == values.size


class TestFrameRoundtrip:
    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_matrix_roundtrip(self, n, seed):
        idx = date_range("2017-01-01", periods=n)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, 3))
        f = Frame.from_matrix(idx, m, ["x", "y", "z"])
        assert np.allclose(f.to_matrix(), m)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=30))
    def test_reindex_identity(self, n):
        idx = date_range("2017-01-01", periods=n)
        f = Frame(idx, {"a": np.arange(float(n))})
        assert f.reindex(idx) == f
