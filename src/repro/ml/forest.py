"""Random forest regression built on :mod:`repro.ml.tree`.

Random forests are one of the paper's two model families (§3.2): they are
fine-tuned with 5-fold cross-validation grid search, provide MDI feature
importances for the Feature Reduction Algorithm, and measure the
performance-improvement results of §4.3.

Each tree's bootstrap draw and node-level feature subsampling run off
an independent, prefix-stable ``SeedSequence.spawn`` child, so trees are
exchangeable work units: a warm refit (:mod:`repro.ml.warm`) fits only
the seed-tail trees and still matches a cold fit bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from ..parallel import spawn_seeds
from .compiled import ensemble_compiled
from .tree import DecisionTreeRegressor, bin_features
from .warm import fit_signature, reusable_members

__all__ = ["RandomForestRegressor"]


def _fit_tree(seed, X, y, tree_params, bootstrap, bins=None):
    """Fit one tree from its own seed sequence (a pure work unit).

    ``bins`` is the forest-shared :class:`~repro.ml.tree.FeatureBins`
    for ``splitter="hist"``: the quantile pass runs once per forest and
    each bootstrap draw just gathers its rows' codes.
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
        )
    return tree.fit(X, y, bins=bins)


class RandomForestRegressor:
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
        Split-finding kernel for every tree: ``"exact"`` (default) or
        ``"hist"`` (quantile-binned histogram splits; features are
        binned once per forest and the codes shared across trees).
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
        self._fit_signature_: tuple | None = None
        self._compile_reuse_ = None

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

    def set_params(self, **params) -> "RandomForestRegressor":
        """Update constructor parameters in place; returns self."""
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    # ------------------------------------------------------------------
    def fit(self, X, y, warm_start_from=None) -> "RandomForestRegressor":
        """Fit the estimator on (X, y); returns self.

        ``warm_start_from`` may be a previously fitted forest: when its
        fit signature matches this fit's — same parameters apart from
        ``n_estimators`` and the same training bytes (see
        :mod:`repro.ml.warm`) — its member trees are reused verbatim
        and only the seed-tail trees are fitted. ``spawn_seeds`` is
        prefix-stable, so the warm result is bit-identical to a cold
        fit at the new ``n_estimators``; signature mismatches fall back
        to a full cold fit.
        """
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
        signature = fit_signature(self, X, y)
        reused = reusable_members(self, warm_start_from, signature)
        with span("ml.forest_fit", splitter=self.splitter,
                  n_estimators=self.n_estimators,
                  reused=0 if reused is None else len(reused)):
            self._compiled_ = None
            self._compile_reuse_ = None
            if reused is not None and len(reused) == self.n_estimators:
                self.bin_cuts_ = warm_start_from.bin_cuts_
                self.estimators_ = reused
            else:
                bins = bin_features(X) if self.splitter == "hist" else None
                self.bin_cuts_ = bins.cuts if bins is not None else None
                seeds = spawn_seeds(self.random_state, self.n_estimators)
                fresh = [
                    _fit_tree(seed, X, y, tree_params, self.bootstrap, bins)
                    for seed in seeds[len(reused or ()):]
                ]
                self.estimators_ = (reused or []) + fresh
            self._fit_signature_ = signature
            if reused is not None and len(reused) == len(
                    warm_start_from.estimators_):
                prev_compiled = getattr(warm_start_from, "_compiled_", None)
                if prev_compiled is not None:
                    self._compile_reuse_ = (prev_compiled, len(reused))
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
