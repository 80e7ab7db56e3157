"""Random forest regression built on :mod:`repro.ml.tree`.

Random forests are one of the paper's two model families (§3.2): they are
fine-tuned with 5-fold cross-validation grid search, provide MDI feature
importances for the Feature Reduction Algorithm, and measure the
performance-improvement results of §4.3.

Each tree's bootstrap draw and node-level feature subsampling run off
an independent ``SeedSequence.spawn`` child, so every tree is a pure
work unit of its seed and the training data.
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from ..parallel import spawn_seeds
from .base import Estimator
from .compiled import ensemble_compiled
from .tree import DecisionTreeRegressor, bin_features, rank_features

__all__ = ["RandomForestRegressor"]


def _fit_tree(seed, X, y, tree_params, bootstrap, bins=None, ranks=None):
    """Fit one tree from its own seed sequence (a pure work unit).

    ``bins`` is the forest-shared :class:`~repro.ml.tree.FeatureBins`
    for ``splitter="hist"`` and ``ranks`` the forest-shared
    :func:`~repro.ml.tree.rank_features` ranks for ``splitter="exact"``:
    the pass runs once per forest and each bootstrap draw just gathers
    its rows.
    """
    rng = np.random.default_rng(seed)
    tree = DecisionTreeRegressor(
        random_state=int(rng.integers(0, 2**32 - 1)), **tree_params
    )
    if bootstrap:
        n_samples = X.shape[0]
        sample = rng.integers(0, n_samples, size=n_samples)
        return tree.fit(
            X[sample], y[sample],
            bins=bins.take(sample) if bins is not None else None,
            ranks=ranks[:, sample] if ranks is not None else None,
        )
    return tree.fit(X, y, bins=bins, ranks=ranks)


class RandomForestRegressor(Estimator):
    """Bagged ensemble of CART trees with per-node feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features,
    min_impurity_decrease:
        Passed through to every :class:`DecisionTreeRegressor`. The default
        ``max_features=1.0`` (all features) matches sklearn's regression
        default; ``"sqrt"`` gives classic decorrelated forests.
    bootstrap:
        Draw each tree's training set with replacement (size ``n``).
    splitter:
        Split-finding kernel for every tree: ``"exact"`` (default;
        features are ranked once per forest and the ranks shared across
        trees) or ``"hist"`` (quantile-binned histogram splits; features
        are binned once per forest and the codes shared across trees).
    random_state:
        Seed controlling bootstrap draws and per-node feature subsets.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        min_impurity_decrease: float = 0.0,
        bootstrap: bool = True,
        splitter: str = "exact",
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bootstrap
        self.splitter = splitter
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] = []
        self.n_features_in_: int | None = None
        self.bin_cuts_: tuple | None = None
        self._compiled_ = None

    # ------------------------------------------------------------------
    def get_params(self) -> dict:
        """Constructor parameters (the clone/grid-search protocol)."""
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "min_impurity_decrease": self.min_impurity_decrease,
            "bootstrap": self.bootstrap,
            "splitter": self.splitter,
            "random_state": self.random_state,
        }

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "RandomForestRegressor":
        """Fit the estimator on (X, y); returns self."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.size:
            raise ValueError("X and y have inconsistent lengths")
        self.n_features_in_ = X.shape[1]
        tree_params = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "min_impurity_decrease": self.min_impurity_decrease,
            "splitter": self.splitter,
        }
        with span("ml.forest_fit", splitter=self.splitter,
                  n_estimators=self.n_estimators):
            self._compiled_ = None
            bins = bin_features(X) if self.splitter == "hist" else None
            ranks = rank_features(X) if self.splitter == "exact" else None
            self.bin_cuts_ = bins.cuts if bins is not None else None
            self.estimators_ = [
                _fit_tree(seed, X, y, tree_params, self.bootstrap, bins,
                          ranks)
                for seed in spawn_seeds(self.random_state,
                                        self.n_estimators)
            ]
        return self

    def predict(self, X) -> np.ndarray:
        """Mean prediction across all trees, through the compiled
        level-wise kernel (:mod:`repro.ml.compiled`)."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_in_} features"
            )
        return ensemble_compiled(self).predict(X)

    @property
    def feature_importances_(self) -> np.ndarray:
        """MDI importances averaged over trees and normalised to sum 1."""
        self._check_fitted()
        stacked = np.empty((len(self.estimators_), self.n_features_in_),
                           dtype=np.float64)
        for i, tree in enumerate(self.estimators_):
            stacked[i] = tree.feature_importances_
        acc = stacked.sum(axis=0)
        total = acc.sum()
        return acc / total if total > 0 else acc

    def _check_fitted(self):
        if not self.estimators_:
            raise RuntimeError("estimator is not fitted; call fit() first")
