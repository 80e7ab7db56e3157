"""Unit tests for model persistence (JSON round-trips)."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    MLPRegressor,
    RandomForestRegressor,
    Ridge,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(150, 4))
    y = 2 * X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=150)
    return X, y


ALL_MODELS = [
    DecisionTreeRegressor(max_depth=4),
    RandomForestRegressor(n_estimators=4, max_depth=4, random_state=0),
    GradientBoostingRegressor(n_estimators=5, max_depth=3,
                              random_state=0),
    LinearRegression(),
    Ridge(alpha=2.0),
    MLPRegressor(hidden_layer_sizes=(8,), n_epochs=15, random_state=0),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=lambda m: type(m).__name__
    )
    def test_predictions_identical_after_reload(self, model, data,
                                                tmp_path):
        X, y = data
        model.fit(X, y)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert type(restored) is type(model)
        assert np.allclose(restored.predict(X), model.predict(X))

    def test_params_preserved(self, data):
        X, y = data
        model = RandomForestRegressor(
            n_estimators=3, max_depth=5, max_features="sqrt",
            random_state=7,
        ).fit(X, y)
        restored = model_from_dict(model_to_dict(model))
        assert restored.get_params() == model.get_params()

    def test_mlp_tuple_param_roundtrip(self, data):
        X, y = data
        model = MLPRegressor(hidden_layer_sizes=(16, 8), n_epochs=5,
                             random_state=0).fit(X, y)
        restored = model_from_dict(model_to_dict(model))
        assert restored.hidden_layer_sizes == (16, 8)

    def test_file_is_json(self, data, tmp_path):
        import json

        X, y = data
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["class"] == "DecisionTreeRegressor"
        assert doc["format_version"] == 1

    def test_restored_importances_match(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=3, max_depth=4,
                                      random_state=0).fit(X, y)
        restored = model_from_dict(model_to_dict(model))
        assert np.allclose(
            restored.feature_importances_, model.feature_importances_
        )

    def test_restored_shap_match(self, data):
        from repro.ml import TreeExplainer

        X, y = data
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        restored = model_from_dict(model_to_dict(model))
        a = TreeExplainer(model).shap_values(X[:5])
        b = TreeExplainer(restored).shap_values(X[:5])
        assert np.allclose(a, b)


class TestErrors:
    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            model_to_dict(DecisionTreeRegressor())
        with pytest.raises(RuntimeError):
            model_to_dict(LinearRegression())
        with pytest.raises(RuntimeError):
            model_to_dict(MLPRegressor())

    def test_unsupported_type_rejected(self):
        class NotAModel:
            pass

        with pytest.raises(TypeError):
            model_to_dict(NotAModel())

    def test_unknown_class_rejected(self, data):
        X, y = data
        doc = model_to_dict(DecisionTreeRegressor(max_depth=2).fit(X, y))
        doc["class"] = "EvilModel"
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_bad_version_rejected(self, data):
        X, y = data
        doc = model_to_dict(DecisionTreeRegressor(max_depth=2).fit(X, y))
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(doc)


class TestBinCutsRoundTrip:
    """Hist-splitter fits must keep their bin grid through persistence."""

    def test_restored_model_keeps_binned_fast_path(self, data):
        from repro.ml.compiled import compile_ensemble

        X, y = data
        est = GradientBoostingRegressor(
            n_estimators=4, max_depth=3, splitter="hist", random_state=0
        ).fit(X, y)
        clone = model_from_dict(model_to_dict(est))
        assert clone.bin_cuts_ is not None
        assert len(clone.bin_cuts_) == len(est.bin_cuts_)
        for a, b in zip(clone.bin_cuts_, est.bin_cuts_):
            assert np.array_equal(a, b)
        compiled = compile_ensemble(clone)
        assert compiled.has_bins
        assert np.array_equal(compiled.predict(X), est.predict(X))

    def test_exact_fit_serialises_without_cuts(self, data):
        X, y = data
        est = DecisionTreeRegressor(max_depth=3, splitter="exact").fit(X, y)
        doc = model_to_dict(est)
        assert "bin_cuts" not in doc["state"]
        assert model_from_dict(doc).bin_cuts_ is None

    def test_pre_cut_documents_still_load(self, data):
        from repro.ml.compiled import compile_ensemble

        X, y = data
        est = RandomForestRegressor(
            n_estimators=3, max_depth=3, splitter="hist", random_state=0
        ).fit(X, y)
        doc = model_to_dict(est)
        doc["state"].pop("bin_cuts")  # simulate an older document
        clone = model_from_dict(doc)
        assert clone.bin_cuts_ is None
        compiled = compile_ensemble(clone)
        assert not compiled.has_bins
        assert np.array_equal(compiled.predict(X), est.predict(X))


class TestLegacyDocuments:
    """Forests saved while they still recorded a worker count load."""

    def _legacy_doc(self, data):
        X, y = data
        est = RandomForestRegressor(
            n_estimators=4, max_depth=4, random_state=0
        ).fit(X, y)
        doc = model_to_dict(est)
        doc["params"]["n_jobs"] = 1  # what older documents carry
        return est, doc

    def test_worker_count_param_is_dropped(self, data, tmp_path):
        import json

        X, _ = data
        est, doc = self._legacy_doc(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        restored = load_model(path)
        assert restored.get_params() == est.get_params()
        assert np.array_equal(restored.predict(X), est.predict(X))

    def test_other_unknown_params_still_rejected(self, data):
        _, doc = self._legacy_doc(data)
        doc["params"]["n_trees"] = 4
        with pytest.raises(TypeError):
            model_from_dict(doc)

    def test_cached_legacy_fit_is_a_hit(self, data, tmp_path):
        from repro.cache import CacheStore, fit_cached, use_cache
        from repro.cache.keys import model_fit_key
        from repro.obs import MetricsRegistry, use_metrics

        X, y = data
        est, doc = self._legacy_doc(data)
        store = CacheStore(tmp_path / "cache")
        store.put(model_fit_key(est, X, y), doc)
        registry = MetricsRegistry()
        fresh = RandomForestRegressor(n_estimators=4, max_depth=4,
                                      random_state=0)
        with use_metrics(registry), use_cache(store):
            fitted = fit_cached(fresh, X, y)
        assert fitted is not fresh  # served from the cache, not refit
        assert registry.snapshot()["counters"]["cache.hits"] == 1
        assert np.array_equal(fitted.predict(X), est.predict(X))
