"""Property-based tests (hypothesis) for the Diebold-Mariano test."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import diebold_mariano

HORIZONS = st.integers(min_value=1, max_value=10)
LOSSES = st.sampled_from(["squared", "absolute"])
ALTERNATIVES = st.sampled_from(["two-sided", "less", "greater"])


@st.composite
def forecasts(draw, min_n=21, max_n=120):
    """Realisations and two forecasts on a seeded random-walk target."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.normal(size=n))
    return (y, y + rng.normal(scale=0.5, size=n),
            y + rng.normal(scale=0.8, size=n))


class TestDieboldMarianoProperties:
    @settings(max_examples=50, deadline=None)
    @given(forecasts(), HORIZONS, LOSSES, ALTERNATIVES)
    def test_identical_forecasts_are_the_null(self, data, horizon, loss,
                                              alternative):
        y, pred, _ = data
        res = diebold_mariano(y, pred, pred.copy(), horizon=horizon,
                              loss=loss, alternative=alternative)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    @settings(max_examples=50, deadline=None)
    @given(forecasts(), HORIZONS, LOSSES)
    def test_swap_negates_statistic(self, data, horizon, loss):
        y, a, b = data
        ab = diebold_mariano(y, a, b, horizon=horizon, loss=loss)
        ba = diebold_mariano(y, b, a, horizon=horizon, loss=loss)
        assert ba.statistic == -ab.statistic
        assert ba.p_value == ab.p_value
