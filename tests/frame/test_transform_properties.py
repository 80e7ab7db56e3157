"""Property-based tests for repro.frame.transform."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.frame import zscore

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)


def series(min_size=1, max_size=60):
    return arrays(np.float64,
                  st.integers(min_value=min_size, max_value=max_size),
                  elements=finite)


class TestZscoreProperties:
    @settings(max_examples=60, deadline=None)
    @given(series(min_size=2))
    def test_mean_zero(self, values):
        z = zscore(values)
        assert abs(np.nanmean(z)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(series(min_size=2), st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=-100, max_value=100))
    def test_affine_invariance(self, values, scale, offset):
        # near-constant arrays amplify float noise unboundedly — the
        # property only holds for series with genuine spread
        assume(values.std() > 1e-6 * (1.0 + np.abs(values).max()))
        a = zscore(values)
        b = zscore(values * scale + offset)
        assert np.allclose(a, b, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(series())
    def test_idempotent_up_to_tolerance(self, values):
        assume(values.size < 2
               or values.std() > 1e-6 * (1.0 + np.abs(values).max())
               or values.std() == 0.0)
        once = zscore(values)
        twice = zscore(once)
        assert np.allclose(once, twice, atol=1e-6)
