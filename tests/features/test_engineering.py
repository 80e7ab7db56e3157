"""Unit tests for repro.features.engineering."""

import numpy as np
import pytest

from repro.features import (
    interaction_features,
    lag_features,
)
from repro.frame import Frame, date_range


@pytest.fixture
def frame():
    idx = date_range("2020-01-01", periods=10)
    return Frame(idx, {
        "price": np.arange(10.0) + 1.0,
        "volume": np.arange(10.0) * 2 + 1.0,
    })


class TestLagFeatures:
    def test_names_and_values(self, frame):
        out = lag_features(frame, ["price"], lags=[1, 3])
        assert out.columns == ["price_lag1", "price_lag3"]
        assert np.isnan(out["price_lag1"][0])
        assert out["price_lag1"][1] == 1.0
        assert out["price_lag3"][3] == 1.0

    def test_all_columns_default(self, frame):
        out = lag_features(frame, lags=[1])
        assert set(out.columns) == {"price_lag1", "volume_lag1"}

    def test_index_preserved(self, frame):
        assert lag_features(frame, lags=[2]).index == frame.index

    def test_no_lookahead(self, frame):
        """Every engineered value uses only past observations."""
        out = lag_features(frame, ["price"], lags=[1])
        lagged = out["price_lag1"]
        for t in range(1, 10):
            assert lagged[t] == frame["price"][t - 1]

    def test_validation(self, frame):
        with pytest.raises(ValueError):
            lag_features(frame, lags=[])
        with pytest.raises(ValueError):
            lag_features(frame, lags=[0])
        with pytest.raises(ValueError):
            lag_features(frame, lags=[-1])
        with pytest.raises(KeyError):
            lag_features(frame, ["missing"], lags=[1])


class TestInteractionFeatures:
    def test_ratio(self, frame):
        out = interaction_features(frame, [("price", "volume")],
                                   ops=["ratio"])
        assert out.columns == ["price_ratio_volume"]
        assert out["price_ratio_volume"][0] == pytest.approx(1.0)

    def test_ratio_zero_denominator_nan(self):
        idx = date_range("2020-01-01", periods=2)
        f = Frame(idx, {"a": [1.0, 1.0], "b": [0.0, 2.0]})
        out = interaction_features(f, [("a", "b")], ops=["ratio"])
        assert np.isnan(out["a_ratio_b"][0])
        assert out["a_ratio_b"][1] == 0.5

    def test_product(self, frame):
        out = interaction_features(frame, [("price", "volume")],
                                   ops=["product"])
        assert np.allclose(
            out["price_product_volume"],
            frame["price"] * frame["volume"],
        )

    def test_spread_is_zscore_difference(self, frame):
        out = interaction_features(frame, [("price", "volume")],
                                   ops=["spread"])
        spread = out["price_spread_volume"]
        # both columns are linear ramps -> identical z-scores -> zero
        assert np.allclose(spread, 0.0, atol=1e-12)

    def test_multiple_ops_and_pairs(self, frame):
        out = interaction_features(
            frame,
            [("price", "volume"), ("volume", "price")],
            ops=["ratio", "product"],
        )
        assert out.n_cols == 4

    def test_validation(self, frame):
        with pytest.raises(ValueError):
            interaction_features(frame, [])
        with pytest.raises(ValueError):
            interaction_features(frame, [("price", "volume")],
                                 ops=["power"])
        with pytest.raises(KeyError):
            interaction_features(frame, [("price", "nope")])


class TestPipelineComposition:
    def test_concat_with_original(self, frame):
        from repro.frame import concat_columns

        engineered = lag_features(frame, ["price"], lags=[1])
        combined = concat_columns(frame, engineered)
        assert combined.n_cols == 3
        assert "price_lag1" in combined.columns

    def test_cross_category_interaction_improves_fit(self):
        """An engineered ratio can expose signal neither input has alone
        — the relationship-discovery effect §5 hypothesises."""
        rng = np.random.default_rng(0)
        n = 400
        a = np.exp(rng.normal(size=n))
        b = np.exp(rng.normal(size=n))
        y = a / b  # the target IS the hidden relationship
        idx = date_range("2020-01-01", periods=n)
        f = Frame(idx, {"a": a, "b": b})
        eng = interaction_features(f, [("a", "b")], ops=["ratio"])

        from repro.ml import DecisionTreeRegressor, mean_squared_error

        raw_model = DecisionTreeRegressor(max_depth=4).fit(
            f.to_matrix(), y
        )
        eng_model = DecisionTreeRegressor(max_depth=4).fit(
            eng.to_matrix(), y
        )
        mse_raw = mean_squared_error(y, raw_model.predict(f.to_matrix()))
        mse_eng = mean_squared_error(y, eng_model.predict(eng.to_matrix()))
        assert mse_eng < mse_raw * 0.5
