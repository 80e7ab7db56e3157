"""Bit-identity and behaviour tests for compiled ensemble inference.

The contract under test (see :mod:`repro.ml.compiled`): for every
splitter, ensemble shape, degenerate tree, NaN-bearing prediction row
and batch size, the flat-array kernel returns byte-for-byte the same
predictions as the interpreted per-tree walk, which survives only as the
oracle :func:`repro.ml.compiled._interpreted_predict` these tests compare
against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    GridSearchCV,
    RandomForestRegressor,
    KFold,
    compile_ensemble,
    maybe_compile,
    mean_squared_error,
)
from repro.ml.compiled import _interpreted_predict, ensemble_compiled
from repro.ml.ensemble import StackingRegressor
from repro.ml.importance import permutation_importance
from repro.ml.linear import Ridge
from repro.ml.model_selection import clone
from repro.obs import MetricsRegistry, use_metrics

SPLITTERS = ("exact", "hist")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(250, 8))
    y = 2.0 * X[:, 0] - X[:, 1] * X[:, 2] + 0.2 * rng.normal(size=250)
    return X, y


@pytest.fixture(scope="module")
def x_messy():
    """Prediction rows with NaN and ±inf entries (never seen in training)."""
    rng = np.random.default_rng(8)
    Xt = rng.normal(size=(120, 8))
    Xt[3, 1] = np.nan
    Xt[10] = np.nan
    Xt[20, 0] = np.inf
    Xt[21, 5] = -np.inf
    return Xt


class _Interpreted:
    """A fitted ensemble whose ``predict`` is the interpreted oracle.

    Not compilable, so generic callers (PFI) take their plain
    ``predict`` path through it.
    """

    def __init__(self, estimator):
        self.estimator = estimator

    def predict(self, X):
        return _interpreted_predict(self.estimator, X)


def _oracle_fold_scores(estimator, X, y, params=None):
    """Per-fold MSEs of the default 5-fold CV, scored by the oracle."""
    scores = []
    for train, test in KFold(5).split(X):
        model = clone(estimator).set_params(**(params or {}))
        model.fit(X[train], y[train])
        scores.append(float(mean_squared_error(
            y[test], _interpreted_predict(model, X[test]))))
    return np.asarray(scores)


class TestBitIdentity:
    @pytest.mark.parametrize("splitter", SPLITTERS)
    def test_forest(self, data, x_messy, splitter):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=10, max_depth=6, max_features="sqrt",
            splitter=splitter, random_state=0,
        ).fit(X, y)
        assert np.array_equal(_interpreted_predict(est, x_messy),
                              est.predict(x_messy), equal_nan=True)

    @pytest.mark.parametrize("splitter", SPLITTERS)
    def test_boosting(self, data, x_messy, splitter):
        X, y = data
        est = GradientBoostingRegressor(
            n_estimators=12, max_depth=3, splitter=splitter,
            random_state=1,
        ).fit(X, y)
        assert np.array_equal(_interpreted_predict(est, x_messy),
                              est.predict(x_messy), equal_nan=True)

    @pytest.mark.parametrize("splitter", SPLITTERS)
    def test_single_tree(self, data, x_messy, splitter):
        X, y = data
        est = DecisionTreeRegressor(
            max_depth=5, splitter=splitter, random_state=2,
        ).fit(X, y)
        compiled = compile_ensemble(est)
        assert np.array_equal(est.predict(x_messy),
                              compiled.predict(x_messy), equal_nan=True)

    @pytest.mark.parametrize("splitter", SPLITTERS)
    def test_large_batch_row_blocking(self, data, splitter):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=16, max_depth=8, splitter=splitter,
            random_state=3,
        ).fit(X, y)
        compiled = compile_ensemble(est)
        big = np.tile(X, (80, 1))  # spans many cache-sized row blocks
        assert np.array_equal(compiled.predict(big),
                              _interpreted_predict(est, big))


class TestDegenerateTrees:
    def test_single_leaf_constant_target(self, x_messy):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 8))
        y = np.full(50, 3.25)
        for splitter in SPLITTERS:
            est = DecisionTreeRegressor(splitter=splitter).fit(X, y)
            compiled = compile_ensemble(est)
            assert compiled.depth == 0
            assert np.array_equal(est.predict(x_messy),
                                  compiled.predict(x_messy))

    def test_stump(self, data, x_messy):
        X, y = data
        for splitter in SPLITTERS:
            est = DecisionTreeRegressor(
                max_depth=1, splitter=splitter, random_state=0
            ).fit(X, y)
            compiled = compile_ensemble(est)
            assert np.array_equal(est.predict(x_messy),
                                  compiled.predict(x_messy), equal_nan=True)

    def test_constant_features(self, x_messy):
        rng = np.random.default_rng(1)
        X = np.ones((60, 8))
        X[:, 0] = rng.normal(size=60)
        y = X[:, 0] * 2 + rng.normal(size=60) * 0.1
        for splitter in SPLITTERS:
            est = RandomForestRegressor(
                n_estimators=5, max_depth=4, splitter=splitter,
                random_state=0,
            ).fit(X, y)
            assert np.array_equal(_interpreted_predict(est, x_messy),
                                  est.predict(x_messy), equal_nan=True)

    def test_empty_prediction_batch(self, data):
        X, y = data
        est = GradientBoostingRegressor(
            n_estimators=3, max_depth=2, random_state=0
        ).fit(X, y)
        out = compile_ensemble(est).predict(np.empty((0, 8)))
        assert out.shape == (0,)


class TestBitIdentityProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           splitter=st.sampled_from(SPLITTERS),
           nan_rows=st.booleans())
    def test_random_ensembles(self, seed, splitter, nan_rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        f = int(rng.integers(1, 7))
        X = rng.normal(size=(n, f))
        y = rng.normal(size=n)
        Xt = rng.normal(size=(40, f))
        if nan_rows:
            Xt[rng.integers(0, 40, 5), rng.integers(0, f, 5)] = np.nan
        est = RandomForestRegressor(
            n_estimators=int(rng.integers(1, 8)),
            max_depth=int(rng.integers(1, 8)),
            splitter=splitter, random_state=seed,
        ).fit(X, y)
        assert np.array_equal(_interpreted_predict(est, Xt), est.predict(Xt),
                              equal_nan=True)


class TestBinnedPath:
    def test_hist_compiles_with_bins(self, data):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=4, max_depth=4, splitter="hist", random_state=0
        ).fit(X, y)
        compiled = compile_ensemble(est)
        assert compiled.has_bins

    def test_exact_compiles_without_bins(self, data):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=4, max_depth=4, splitter="exact", random_state=0
        ).fit(X, y)
        assert not compile_ensemble(est).has_bins

    def test_binned_equals_raw_kernel(self, data, x_messy):
        X, y = data
        est = GradientBoostingRegressor(
            n_estimators=8, max_depth=3, splitter="hist", random_state=0
        ).fit(X, y)
        compiled = compile_ensemble(est)
        assert compiled.has_bins
        codes = compiled.bin(x_messy)
        assert codes.dtype == np.uint8
        assert np.array_equal(compiled.predict_binned(codes),
                              _interpreted_predict(est, x_messy),
                              equal_nan=True)


class TestPredictMany:
    def test_matches_per_matrix_predicts(self, data):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=6, max_depth=5, splitter="hist", random_state=0
        ).fit(X, y)
        compiled = compile_ensemble(est)
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(int(rng.integers(1, 200)), 8))
                for _ in range(7)]
        outs = compiled.predict_many(mats)
        assert len(outs) == len(mats)
        for mat, out in zip(mats, outs):
            assert np.array_equal(out, compiled.predict(mat))

    def test_rejects_wrong_width(self, data):
        X, y = data
        est = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        compiled = compile_ensemble(est)
        with pytest.raises(ValueError):
            compiled.predict_many([np.zeros((3, 5))])


class TestCompileDispatch:
    def test_maybe_compile_rejects_non_ensembles(self, data):
        X, y = data
        assert maybe_compile(Ridge().fit(X, y)) is None

    def test_maybe_compile_rejects_stacking(self, data):
        X, y = data
        stack = StackingRegressor(
            estimators=[
                ("rf", RandomForestRegressor(
                    n_estimators=2, max_depth=2, random_state=0)),
            ],
            final_estimator=Ridge(),
        ).fit(X, y)
        assert maybe_compile(stack) is None

    def test_unfitted_raises(self):
        with pytest.raises(TypeError):
            compile_ensemble(RandomForestRegressor())

    def test_instance_cache_reused_and_reset_by_fit(self, data):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=3, max_depth=3, random_state=0
        ).fit(X, y)
        first = ensemble_compiled(est)
        assert ensemble_compiled(est) is first
        est.fit(X, y)
        assert est._compiled_ is None
        assert ensemble_compiled(est) is not first


class TestDownstreamEquivalence:
    """Compiled inference must never change a pipeline-level number."""

    def test_permutation_importance(self, data):
        X, y = data
        for splitter in SPLITTERS:
            est = RandomForestRegressor(
                n_estimators=5, max_depth=4, splitter=splitter,
                random_state=0,
            ).fit(X, y)
            ref = permutation_importance(
                _Interpreted(est), X, y, n_repeats=3, random_state=0)
            fast = permutation_importance(
                est, X, y, n_repeats=3, random_state=0)
            assert np.array_equal(ref, fast)

    def test_permutation_importance_binned_booster(self, data):
        # A hist booster scores bin codes; the per-feature raw path of
        # a non-compiled estimator is the oracle.
        X, y = data
        est = GradientBoostingRegressor(
            n_estimators=5, max_depth=2, splitter="hist", random_state=0
        ).fit(X, y)
        ref = permutation_importance(
            _Interpreted(est), X, y, n_repeats=2, random_state=1)
        fast = permutation_importance(
            est, X, y, n_repeats=2, random_state=1)
        assert np.array_equal(ref, fast)

    def test_cross_val_score(self, data):
        # Every per-fold score of a one-candidate search equals the
        # oracle's, not just the mean.
        X, y = data
        est = RandomForestRegressor(
            n_estimators=4, max_depth=3, random_state=0)
        search = GridSearchCV(est, {"random_state": [0]},
                              refit=False).fit(X, y)
        assert np.array_equal(_oracle_fold_scores(est, X, y),
                              search.cv_results_[0]["fold_scores"])

    def test_grid_search(self, data):
        X, y = data
        grid = {"max_depth": [2, 3], "random_state": [0]}
        template = GradientBoostingRegressor(n_estimators=4)
        search = GridSearchCV(template, grid).fit(X, y)
        oracle = {
            depth: float(_oracle_fold_scores(
                template, X, y,
                {"max_depth": depth, "random_state": 0}).mean())
            for depth in grid["max_depth"]
        }
        best = min(oracle, key=oracle.get)
        assert search.best_params_["max_depth"] == best
        assert search.best_score_ == oracle[best]


class TestMetricsCounters:
    def test_compiled_counters(self, data):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=3, max_depth=3, random_state=0
        ).fit(X, y)
        registry = MetricsRegistry()
        with use_metrics(registry):
            est.predict(X)
            est.predict(X)
        counters = registry.snapshot()["counters"]
        assert counters["predict.compiled_calls"] == 2
        assert counters["predict.compiled_rows"] == 2 * X.shape[0]
        assert counters["predict.compile_builds"] == 1
        assert counters["predict.compile_reuse"] == 1


class TestPermutationScorer:
    @pytest.mark.parametrize("splitter", SPLITTERS)
    def test_matches_stacked_predict(self, data, splitter):
        X, y = data
        est = GradientBoostingRegressor(
            n_estimators=6, max_depth=3, splitter=splitter, random_state=0
        ).fit(X, y)
        compiled = compile_ensemble(est)
        base = compiled.bin(X) if compiled.has_bins else X
        scorer = compiled.permutation_scorer(base,
                                             binned=compiled.has_bins)
        rng = np.random.default_rng(3)
        perms = np.stack([rng.permutation(X.shape[0]) for _ in range(4)])
        for j in (0, 3, X.shape[1] - 1):
            stacked = np.tile(base, (4, 1))
            stacked[:, j] = base[:, j][perms].ravel()
            if compiled.has_bins:
                ref = compiled.predict_binned(stacked)
            else:
                ref = compiled.predict(stacked)
            assert np.array_equal(scorer.predict_feature(j, perms), ref,
                                  equal_nan=True)

    def test_path_mask_marks_only_path_features(self, data):
        X, y = data
        est = DecisionTreeRegressor(max_depth=2, random_state=0).fit(X, y)
        compiled = compile_ensemble(est)
        mask = compiled.path_mask
        root = int(compiled.roots[0])
        assert mask[root].sum() == 0  # nothing above the root
        root_bit = np.uint64(1) << np.uint64(compiled.feature[root])
        for child in (compiled.left[root], compiled.right[root]):
            assert mask[child, 0] & root_bit
