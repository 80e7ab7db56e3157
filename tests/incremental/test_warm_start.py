"""Warm-start refits: member reuse is bit-identical to a cold fit.

Forests rely on prefix-stable seed spawning (the first ``R`` of ``n``
spawned seeds are the same for any ``n >= R``); boosters replay the
reused stages' RNG draws and residual updates so the continuation
stages see the exact cold generator state. Either way a warm fit at
``n`` estimators from a previous fit at ``m <= n`` must predict
byte-for-byte like a cold fit at ``n`` — through ``predict`` and
through compiled tables extended from the previous fit's.
"""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.compiled import ensemble_compiled
from repro.ml.forest import RandomForestRegressor
from repro.ml.warm import fit_signature, reusable_members
from repro.obs import MetricsRegistry, use_metrics


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(220, 12))
    y = X[:, :3] @ rng.normal(size=3) + 0.1 * rng.normal(size=220)
    return X, y


FOREST_PARAMS = dict(max_depth=6, max_features="sqrt", random_state=7)
GB_PARAMS = dict(max_depth=3, learning_rate=0.1, subsample=0.8,
                 random_state=7)


def _forest(n, **overrides):
    return RandomForestRegressor(
        n_estimators=n, **{**FOREST_PARAMS, **overrides}
    )


def _gb(n, **overrides):
    return GradientBoostingRegressor(
        n_estimators=n, **{**GB_PARAMS, **overrides}
    )


class TestFitSignature:
    def test_ignores_execution_shape_params(self, data):
        # n_estimators only grows the member list, so it stays out.
        X, y = data
        a = fit_signature(_forest(4), X, y)
        b = fit_signature(_forest(16), X, y)
        assert a == b

    def test_sensitive_to_data_and_params(self, data):
        X, y = data
        base = fit_signature(_forest(4), X, y)
        assert fit_signature(_forest(4, max_depth=5), X, y) != base
        assert fit_signature(_forest(4), X, y + 1.0) != base
        assert fit_signature(_gb(4), X, y) != base


class TestReusableMembers:
    def test_prefix_returned_on_match(self, data):
        X, y = data
        prev = _forest(6).fit(X, y)
        grown = _forest(10)
        sig = fit_signature(grown, X, y)
        members = reusable_members(grown, prev, sig)
        assert members == prev.estimators_[:6]

    def test_shrink_takes_prefix(self, data):
        X, y = data
        prev = _forest(6).fit(X, y)
        shrunk = _forest(3)
        members = reusable_members(
            shrunk, prev, fit_signature(shrunk, X, y)
        )
        assert members == prev.estimators_[:3]

    def test_none_without_previous(self, data):
        X, y = data
        est = _forest(4)
        assert reusable_members(est, None, fit_signature(est, X, y)) is None

    def test_counts_misses(self, data):
        X, y = data
        prev = _forest(4).fit(X, y)
        registry = MetricsRegistry()
        with use_metrics(registry):
            got = reusable_members(
                _forest(4), prev, fit_signature(_forest(4), X, y + 1.0)
            )
        assert got is None
        assert registry.snapshot()["counters"]["ml.warm_misses"] == 1


@pytest.mark.parametrize("splitter", ["exact", "hist"])
class TestForestWarmStart:
    def test_grow_bit_identical_to_cold(self, data, splitter):
        X, y = data
        prev = _forest(5, splitter=splitter).fit(X, y)
        warm = _forest(12, splitter=splitter).fit(X, y, warm_start_from=prev)
        cold = _forest(12, splitter=splitter).fit(X, y)
        assert warm.predict(X).tobytes() == cold.predict(X).tobytes()
        # The first five members are the previous objects, not refits.
        assert warm.estimators_[:5] == prev.estimators_[:5]

    def test_mismatched_previous_falls_back_cold(self, data, splitter):
        X, y = data
        prev = _forest(5, splitter=splitter, max_depth=4).fit(X, y)
        warm = _forest(8, splitter=splitter).fit(X, y, warm_start_from=prev)
        cold = _forest(8, splitter=splitter).fit(X, y)
        assert warm.predict(X).tobytes() == cold.predict(X).tobytes()
        assert not any(t in prev.estimators_ for t in warm.estimators_)


class TestBoostingWarmStart:
    def test_grow_bit_identical_to_cold(self, data):
        X, y = data
        prev = _gb(4).fit(X, y)
        warm = _gb(10).fit(X, y, warm_start_from=prev)
        cold = _gb(10).fit(X, y)
        assert warm.predict(X).tobytes() == cold.predict(X).tobytes()
        assert warm.train_losses_ == cold.train_losses_
        assert warm.estimators_[:4] == prev.estimators_[:4]

    def test_full_subsample_grow(self, data):
        X, y = data
        prev = _gb(3, subsample=1.0).fit(X, y)
        warm = _gb(7, subsample=1.0).fit(X, y, warm_start_from=prev)
        cold = _gb(7, subsample=1.0).fit(X, y)
        assert warm.predict(X).tobytes() == cold.predict(X).tobytes()

    def test_hist_splitter_grow(self, data):
        X, y = data
        prev = _gb(4, splitter="hist").fit(X, y)
        warm = _gb(9, splitter="hist").fit(X, y, warm_start_from=prev)
        cold = _gb(9, splitter="hist").fit(X, y)
        assert warm.predict(X).tobytes() == cold.predict(X).tobytes()


class TestCompiledExtension:
    def test_warm_compile_extends_previous_tables(self, data):
        X, y = data
        prev = _forest(5).fit(X, y)
        prev_compiled = ensemble_compiled(prev)
        registry = MetricsRegistry()
        with use_metrics(registry):
            warm = _forest(12).fit(X, y, warm_start_from=prev)
            warm_compiled = ensemble_compiled(warm)
        counters = registry.snapshot()["counters"]
        assert counters["predict.compile_reused_nodes"] == \
            prev_compiled.n_nodes
        cold_compiled = ensemble_compiled(_forest(12).fit(X, y))
        assert (warm_compiled.predict(X).tobytes()
                == cold_compiled.predict(X).tobytes())
        assert warm_compiled.n_trees == 12

    def test_full_reuse_returns_previous_compiled(self, data):
        X, y = data
        prev = _forest(6).fit(X, y)
        prev_compiled = ensemble_compiled(prev)
        warm = _forest(6).fit(X, y, warm_start_from=prev)
        assert ensemble_compiled(warm) is prev_compiled

    def test_cold_fit_resets_compiled_cache(self, data):
        X, y = data
        est = _forest(4)
        est.fit(X, y)
        first = ensemble_compiled(est)
        est.fit(X, y + 1.0)
        assert ensemble_compiled(est) is not first
