"""Exact TreeSHAP for the package's tree ensembles.

The paper validates its Feature Reduction Algorithm against SHAP and takes
the union of FRA and SHAP top-75 features as the final feature vector
(§3.2). This module implements the exact *path-dependent* TreeSHAP
algorithm (Lundberg et al., "Consistent Individualized Feature Attribution
for Tree Ensembles", 2018, Algorithm 2), which computes the Shapley values
of a tree's prediction in ``O(leaves * depth^2)`` per sample, using the
tree's own training-cover proportions as the background distribution.

Two entry points:

* :class:`TreeExplainer` — ``shap_values(X)`` for trees, random forests
  and gradient-boosted ensembles, satisfying the additivity property
  ``expected_value + sum(shap_values(x)) == predict(x)``.
* :func:`expected_value_brute` / :func:`shap_values_brute` — exponential-
  time reference implementations used by the test-suite to verify the
  fast algorithm on small trees.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .base import check_features
from .boosting import GradientBoostingRegressor
from .forest import RandomForestRegressor
from .tree import DecisionTreeRegressor, TreeStructure

__all__ = [
    "TreeExplainer",
    "shap_importance",
    "expected_value_brute",
    "shap_values_brute",
]

_LEAF = -1


def _tree_expected_value(tree: TreeStructure) -> float:
    """Cover-weighted mean leaf value (prediction for 'no features known').

    Children are always created after their parent, so a single reverse
    pass over the node arrays folds leaf values upward — no recursion,
    no Python depth limit on deep trees.
    """
    ev = tree.value.astype(np.float64).copy()
    n = tree.n_node_samples
    for node in range(tree.node_count - 1, -1, -1):
        left = tree.children_left[node]
        if left != _LEAF:
            right = tree.children_right[node]
            ev[node] = (n[left] * ev[left] + n[right] * ev[right]) / n[node]
    return float(ev[0])


# ----------------------------------------------------------------------
# Exact TreeSHAP (Algorithm 2)
# ----------------------------------------------------------------------
def _extend(features, zeros, ones, pweights, depth, pz, po, pi):
    features[depth] = pi
    zeros[depth] = pz
    ones[depth] = po
    pweights[depth] = 1.0 if depth == 0 else 0.0
    for i in range(depth - 1, -1, -1):
        pweights[i + 1] += po * pweights[i] * (i + 1) / (depth + 1)
        pweights[i] = pz * pweights[i] * (depth - i) / (depth + 1)


def _unwind(features, zeros, ones, pweights, depth, path_index):
    po = ones[path_index]
    pz = zeros[path_index]
    next_one = pweights[depth]
    for i in range(depth - 1, -1, -1):
        if po != 0.0:
            tmp = pweights[i]
            pweights[i] = next_one * (depth + 1) / ((i + 1) * po)
            next_one = tmp - pweights[i] * pz * (depth - i) / (depth + 1)
        else:
            pweights[i] = pweights[i] * (depth + 1) / (pz * (depth - i))
    for i in range(path_index, depth):
        features[i] = features[i + 1]
        zeros[i] = zeros[i + 1]
        ones[i] = ones[i + 1]


def _unwound_sum(features, zeros, ones, pweights, depth, path_index):
    po = ones[path_index]
    pz = zeros[path_index]
    total = 0.0
    if po != 0.0:
        next_one = pweights[depth]
        for i in range(depth - 1, -1, -1):
            tmp = next_one * (depth + 1) / ((i + 1) * po)
            total += tmp
            next_one = pweights[i] - tmp * pz * (depth - i) / (depth + 1)
    else:
        for i in range(depth - 1, -1, -1):
            total += pweights[i] * (depth + 1) / (pz * (depth - i))
    return total


def _tree_shap_recurse(
    tree: TreeStructure,
    x: np.ndarray,
    phi: np.ndarray,
    node: int,
    depth: int,
    parent_features: np.ndarray,
    parent_zeros: np.ndarray,
    parent_ones: np.ndarray,
    parent_pweights: np.ndarray,
    pz: float,
    po: float,
    pi: int,
):
    # Each recursion works on its own copy of the parent's unique path.
    features = parent_features.copy()
    zeros = parent_zeros.copy()
    ones = parent_ones.copy()
    pweights = parent_pweights.copy()
    _extend(features, zeros, ones, pweights, depth, pz, po, pi)

    left = tree.children_left[node]
    if left == _LEAF:
        leaf_value = float(tree.value[node])
        for i in range(1, depth + 1):
            w = _unwound_sum(features, zeros, ones, pweights, depth, i)
            phi[features[i]] += w * (ones[i] - zeros[i]) * leaf_value
        return

    right = tree.children_right[node]
    split = int(tree.feature[node])
    if x[split] <= tree.threshold[node]:
        hot, cold = left, right
    else:
        hot, cold = right, left
    cover = float(tree.n_node_samples[node])
    hot_frac = tree.n_node_samples[hot] / cover
    cold_frac = tree.n_node_samples[cold] / cover

    # Undo a previous occurrence of this feature on the path, if any.
    incoming_z, incoming_o = 1.0, 1.0
    path_index = -1
    for i in range(1, depth + 1):
        if features[i] == split:
            path_index = i
            break
    if path_index >= 0:
        incoming_z = zeros[path_index]
        incoming_o = ones[path_index]
        _unwind(features, zeros, ones, pweights, depth, path_index)
        depth -= 1

    _tree_shap_recurse(
        tree, x, phi, int(hot), depth + 1,
        features, zeros, ones, pweights,
        incoming_z * hot_frac, incoming_o, split,
    )
    _tree_shap_recurse(
        tree, x, phi, int(cold), depth + 1,
        features, zeros, ones, pweights,
        incoming_z * cold_frac, 0.0, split,
    )


def _tree_shap_single(tree: TreeStructure, x: np.ndarray,
                      n_features: int) -> np.ndarray:
    """SHAP values of one sample under one tree."""
    phi = np.zeros(n_features, dtype=np.float64)
    max_path = tree.max_depth + 2
    features = np.full(max_path, -1, dtype=np.int64)
    zeros = np.zeros(max_path, dtype=np.float64)
    ones = np.zeros(max_path, dtype=np.float64)
    pweights = np.zeros(max_path, dtype=np.float64)
    _tree_shap_recurse(
        tree, x, phi, 0, 0, features, zeros, ones, pweights, 1.0, 1.0, -1
    )
    return phi


class TreeExplainer:
    """SHAP explainer for this package's tree-based regressors.

    Parameters
    ----------
    model:
        A fitted :class:`DecisionTreeRegressor`,
        :class:`RandomForestRegressor` or
        :class:`GradientBoostingRegressor`.
    """

    def __init__(self, model):
        if isinstance(model, DecisionTreeRegressor):
            model._check_fitted()
            self._trees = [(model.tree_, 1.0)]
            self._base = _tree_expected_value(model.tree_)
            self._n_features = model.n_features_in_
        elif isinstance(model, RandomForestRegressor):
            model._check_fitted()
            weight = 1.0 / len(model.estimators_)
            self._trees = [(t.tree_, weight) for t in model.estimators_]
            self._base = sum(
                w * _tree_expected_value(t) for t, w in self._trees
            )
            self._n_features = model.n_features_in_
        elif isinstance(model, GradientBoostingRegressor):
            model._check_fitted()
            lr = model.learning_rate
            self._trees = [(t.tree_, lr) for t in model.estimators_]
            self._base = model.base_prediction_ + sum(
                w * _tree_expected_value(t) for t, w in self._trees
            )
            self._n_features = model.n_features_in_
        else:
            raise TypeError(
                f"unsupported model type {type(model).__name__}"
            )
        self.model = model

    @property
    def expected_value(self) -> float:
        """Model output when no feature is known (the SHAP base value)."""
        return float(self._base)

    def shap_values(self, X) -> np.ndarray:
        """Per-sample, per-feature Shapley values, ``(n, n_features)``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        X = check_features(X, self._n_features)
        rows = [_shap_row(x, self._trees, self._n_features) for x in X]
        if not rows:
            return np.zeros((0, self._n_features), dtype=np.float64)
        return np.vstack(rows)


def _shap_row(x, trees, n_features):
    """Ensemble SHAP values of one sample."""
    phi = np.zeros(n_features, dtype=np.float64)
    for tree, weight in trees:
        phi += weight * _tree_shap_single(tree, x, n_features)
    return phi


def shap_importance(model, X, max_samples: int | None = None,
                    random_state=None) -> np.ndarray:
    """Global importance: mean |SHAP value| per feature over (a sample of) X.

    This is the standard reduction of local SHAP values to a global
    feature ranking, as used by the paper for its top-100 SHAP selection.
    """
    X = np.asarray(X, dtype=np.float64)
    if max_samples is not None and X.shape[0] > max_samples:
        rng = np.random.default_rng(random_state)
        rows = rng.choice(X.shape[0], size=max_samples, replace=False)
        X = X[rows]
    explainer = TreeExplainer(model)
    return np.abs(explainer.shap_values(X)).mean(axis=0)


# ----------------------------------------------------------------------
# Brute-force reference (test oracle)
# ----------------------------------------------------------------------
def expected_value_brute(tree: TreeStructure, x: np.ndarray,
                         known: frozenset) -> float:
    """EXPVALUE: E[f(x) | features in ``known`` fixed to x's values].

    Follows the path-dependent convention: at a split on an unknown
    feature, recurse into both children weighted by training cover.
    """
    def rec(node: int) -> float:
        left = tree.children_left[node]
        if left == _LEAF:
            return float(tree.value[node])
        right = tree.children_right[node]
        split = int(tree.feature[node])
        if split in known:
            branch = left if x[split] <= tree.threshold[node] else right
            return rec(int(branch))
        n = tree.n_node_samples[node]
        return (
            tree.n_node_samples[left] * rec(int(left))
            + tree.n_node_samples[right] * rec(int(right))
        ) / n
    return rec(0)


def shap_values_brute(tree: TreeStructure, x: np.ndarray,
                      n_features: int) -> np.ndarray:
    """Exponential-time Shapley values from the definition (test oracle)."""
    x = np.asarray(x, dtype=np.float64)
    players = list(range(n_features))
    phi = np.zeros(n_features, dtype=np.float64)
    m = len(players)
    for feat in players:
        others = [p for p in players if p != feat]
        for size in range(m):
            coeff = (
                math.factorial(size) * math.factorial(m - size - 1)
                / math.factorial(m)
            )
            for subset in itertools.combinations(others, size):
                s = frozenset(subset)
                gain = (
                    expected_value_brute(tree, x, s | {feat})
                    - expected_value_brute(tree, x, s)
                )
                phi[feat] += coeff * gain
    return phi
