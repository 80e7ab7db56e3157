"""Model persistence: save fitted estimators to JSON and load them back.

Fitted models are expensive at paper scale (grid-searched forests per
scenario), so experiments want to cache them. JSON keeps the format
inspectable and dependency-free; numpy arrays are stored as nested lists
with dtype tags, and every estimator records its class and constructor
parameters so loading restores an equivalent object.

Only this package's estimators are supported — the loader instantiates
classes from an explicit whitelist, never from arbitrary module paths.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boosting import GradientBoostingRegressor
from .forest import RandomForestRegressor
from .linear import LinearRegression, Ridge
from .neural import MLPRegressor
from .tree import DecisionTreeRegressor, TreeStructure

__all__ = ["save_model", "load_model", "model_to_dict", "model_from_dict"]

#: Constructor parameters that older documents still carry but no
#: estimator accepts any more. None of them affected a fit, so loading
#: drops them; any other unknown parameter is still an error.
_RETIRED_PARAMS = ("n_jobs",)

_REGISTRY = {
    cls.__name__: cls
    for cls in (
        DecisionTreeRegressor,
        RandomForestRegressor,
        GradientBoostingRegressor,
        LinearRegression,
        Ridge,
        MLPRegressor,
    )
}

_FORMAT_VERSION = 1


def _array_out(arr: np.ndarray) -> dict:
    return {"dtype": str(arr.dtype), "data": arr.tolist()}


def _array_in(spec: dict) -> np.ndarray:
    return np.asarray(spec["data"], dtype=spec["dtype"])


def _tree_out(tree: TreeStructure) -> dict:
    return {
        "children_left": _array_out(tree.children_left),
        "children_right": _array_out(tree.children_right),
        "feature": _array_out(tree.feature),
        "threshold": _array_out(tree.threshold),
        "value": _array_out(tree.value),
        "n_node_samples": _array_out(tree.n_node_samples),
        "impurity": _array_out(tree.impurity),
    }


def _tree_in(spec: dict) -> TreeStructure:
    return TreeStructure(**{key: _array_in(val)
                            for key, val in spec.items()})


def _cuts_out(model) -> list | None:
    """Serialised hist cut grid, or None for exact-splitter fits."""
    cuts = getattr(model, "bin_cuts_", None)
    if cuts is None:
        return None
    return [_array_out(np.asarray(cut)) for cut in cuts]


def _cuts_in(state: dict) -> tuple | None:
    # ``.get``: documents written before the cut grid existed load
    # fine — they just lose the compiled binned fast path, never
    # correctness (the raw-threshold kernel is bit-identical).
    spec = state.get("bin_cuts")
    if spec is None:
        return None
    return tuple(_array_in(cut) for cut in spec)


def _params_out(params: dict) -> dict:
    """Make constructor params JSON-safe (tuples become tagged lists)."""
    out = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            out[key] = {"__tuple__": list(value)}
        elif isinstance(value, (np.integer, np.floating)):
            out[key] = value.item()
        else:
            out[key] = value
    return out


def _params_in(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, dict) and "__tuple__" in value:
            out[key] = tuple(value["__tuple__"])
        else:
            out[key] = value
    return out


def model_to_dict(model) -> dict:
    """Serialise a fitted estimator to a JSON-compatible dict."""
    name = type(model).__name__
    if name not in _REGISTRY:
        raise TypeError(f"unsupported model type {name!r}")
    doc = {
        "format_version": _FORMAT_VERSION,
        "class": name,
        "params": _params_out(model.get_params()),
        "state": {},
    }
    state = doc["state"]
    if isinstance(model, DecisionTreeRegressor):
        model._check_fitted()
        state["tree"] = _tree_out(model.tree_)
        state["n_features_in"] = model.n_features_in_
        cuts = _cuts_out(model)
        if cuts is not None:
            state["bin_cuts"] = cuts
    elif isinstance(model, RandomForestRegressor):
        model._check_fitted()
        state["trees"] = [_tree_out(t.tree_) for t in model.estimators_]
        state["tree_params"] = [
            _params_out(t.get_params()) for t in model.estimators_
        ]
        state["n_features_in"] = model.n_features_in_
        cuts = _cuts_out(model)
        if cuts is not None:
            state["bin_cuts"] = cuts
    elif isinstance(model, GradientBoostingRegressor):
        model._check_fitted()
        state["trees"] = [_tree_out(t.tree_) for t in model.estimators_]
        state["tree_params"] = [
            _params_out(t.get_params()) for t in model.estimators_
        ]
        state["base_prediction"] = model.base_prediction_
        state["n_features_in"] = model.n_features_in_
        cuts = _cuts_out(model)
        if cuts is not None:
            state["bin_cuts"] = cuts
    elif isinstance(model, (LinearRegression, Ridge)):
        if model.coef_ is None:
            raise RuntimeError("cannot serialise an unfitted model")
        state["coef"] = _array_out(model.coef_)
        state["intercept"] = model.intercept_
        state["n_features_in"] = model.n_features_in_
    elif isinstance(model, MLPRegressor):
        if not model._weights:
            raise RuntimeError("cannot serialise an unfitted model")
        state["weights"] = [_array_out(w) for w in model._weights]
        state["biases"] = [_array_out(b) for b in model._biases]
        state["x_mean"] = _array_out(model._x_mean)
        state["x_scale"] = _array_out(model._x_scale)
        state["y_mean"] = model._y_mean
        state["y_scale"] = model._y_scale
        state["n_features_in"] = model.n_features_in_
    return doc


def model_from_dict(doc: dict):
    """Rebuild a fitted estimator from :func:`model_to_dict` output."""
    if doc.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {doc.get('format_version')!r}"
        )
    name = doc["class"]
    if name not in _REGISTRY:
        raise ValueError(f"unknown model class {name!r}")
    cls = _REGISTRY[name]
    params = _params_in(doc["params"])
    for name in _RETIRED_PARAMS:
        params.pop(name, None)
    model = cls(**params)
    state = doc["state"]
    if cls is DecisionTreeRegressor:
        model.tree_ = _tree_in(state["tree"])
        model.n_features_in_ = state["n_features_in"]
        model.bin_cuts_ = _cuts_in(state)
    elif cls in (RandomForestRegressor, GradientBoostingRegressor):
        trees = []
        for tree_doc, params in zip(state["trees"], state["tree_params"]):
            sub = DecisionTreeRegressor(**_params_in(params))
            sub.tree_ = _tree_in(tree_doc)
            sub.n_features_in_ = state["n_features_in"]
            trees.append(sub)
        model.estimators_ = trees
        model.n_features_in_ = state["n_features_in"]
        model.bin_cuts_ = _cuts_in(state)
        if cls is GradientBoostingRegressor:
            model.base_prediction_ = state["base_prediction"]
    elif cls in (LinearRegression, Ridge):
        model.coef_ = _array_in(state["coef"])
        model.intercept_ = state["intercept"]
        model.n_features_in_ = state["n_features_in"]
    elif cls is MLPRegressor:
        model._weights = [_array_in(w) for w in state["weights"]]
        model._biases = [_array_in(b) for b in state["biases"]]
        model._x_mean = _array_in(state["x_mean"])
        model._x_scale = _array_in(state["x_scale"])
        model._y_mean = state["y_mean"]
        model._y_scale = state["y_scale"]
        model.n_features_in_ = state["n_features_in"]
    return model


def save_model(model, path) -> None:
    """Write a fitted estimator to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(model_to_dict(model)))


def load_model(path):
    """Load an estimator written by :func:`save_model`."""
    path = Path(path)
    return model_from_dict(json.loads(path.read_text()))
