"""Gradient-boosted regression trees (the reproduction's XGBoost stand-in).

The paper uses XGBoost as its second model family, both inside the Feature
Reduction Algorithm (MDI + PFI extraction) and to validate the diversity
improvement results (§4.3). This module implements stagewise boosting with
squared loss, which for unit hessians makes each stage a Newton step:

* stage trees are grown on residuals with XGBoost's regularised split gain
  (``reg_lambda`` flows into :class:`~repro.ml.tree.DecisionTreeRegressor`),
* leaf values are the L2-shrunk residual means ``G / (n + lambda)``,
* predictions accumulate with learning-rate shrinkage,
* optional row subsampling (stochastic gradient boosting).

The estimator exposes the same ``get_params``/``fit``/``predict``/
``feature_importances_`` protocol as the forest, so grid search, PFI and
TreeSHAP treat the two families uniformly.
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from .base import Estimator
from .compiled import ensemble_compiled
from .tree import DecisionTreeRegressor, bin_features, rank_features

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(Estimator):
    """Stagewise boosted CART ensemble with L2 leaf regularisation.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages.
    learning_rate:
        Shrinkage applied to every stage's contribution.
    max_depth:
        Depth of each stage tree (boosting favours shallow trees).
    min_samples_split, min_samples_leaf, max_features:
        Passed through to the stage trees.
    subsample:
        Fraction of rows drawn (without replacement) per stage; 1.0
        disables stochastic boosting.
    reg_lambda:
        XGBoost-style L2 leaf regularisation.
    splitter:
        Split-finding kernel for the stage trees: ``"exact"`` (default)
        or ``"hist"``. ``X`` is constant across stages, so hist mode
        bins the features once per ``fit`` and every stage reuses the
        codes (subsampled stages gather their rows' codes); exact mode
        likewise ranks the features once per ``fit``.
    random_state:
        Seed for subsampling and per-node feature draws.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        subsample: float = 1.0,
        reg_lambda: float = 1.0,
        splitter: str = "exact",
        random_state=None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.subsample = subsample
        self.reg_lambda = reg_lambda
        self.splitter = splitter
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] = []
        self.base_prediction_: float | None = None
        self.n_features_in_: int | None = None
        self.train_losses_: list[float] = []
        self.bin_cuts_: tuple | None = None
        self._compiled_ = None

    # ------------------------------------------------------------------
    def get_params(self) -> dict:
        """Constructor parameters (the clone/grid-search protocol)."""
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "subsample": self.subsample,
            "reg_lambda": self.reg_lambda,
            "splitter": self.splitter,
            "random_state": self.random_state,
        }

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "GradientBoostingRegressor":
        """Fit the estimator on (X, y); returns self."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.size:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        n_samples = X.shape[0]
        self.n_features_in_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)

        self.base_prediction_ = float(y.mean())
        current = np.full(n_samples, self.base_prediction_)
        self.estimators_ = []
        self.train_losses_ = []

        with span("ml.gb_fit", splitter=self.splitter,
                  n_estimators=self.n_estimators):
            bins = bin_features(X) if self.splitter == "hist" else None
            ranks = rank_features(X) if self.splitter == "exact" else None
            self.bin_cuts_ = bins.cuts if bins is not None else None
            self._compiled_ = None
            sample_size = max(1, int(round(self.subsample * n_samples)))
            for _ in range(self.n_estimators):
                residual = y - current
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    reg_lambda=self.reg_lambda,
                    splitter=self.splitter,
                    random_state=rng.integers(0, 2**32 - 1),
                )
                if sample_size < n_samples:
                    rows = rng.choice(
                        n_samples, size=sample_size, replace=False)
                    tree.fit(
                        X[rows], residual[rows],
                        bins=bins.take(rows) if bins is not None else None,
                        ranks=ranks[:, rows] if ranks is not None else None)
                else:
                    tree.fit(X, residual, bins=bins, ranks=ranks)
                current += self.learning_rate * tree.tree_.predict(X)
                self.estimators_.append(tree)
                self.train_losses_.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X) -> np.ndarray:
        """Predict targets for every row of X, through the compiled
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
        """Gain-weighted MDI importances summed over stages (normalised)."""
        self._check_fitted()
        acc = np.zeros(self.n_features_in_, dtype=np.float64)
        for tree in self.estimators_:
            acc += tree.tree_.mdi_importances(self.n_features_in_)
        total = acc.sum()
        return acc / total if total > 0 else acc

    def _check_fitted(self):
        if not self.estimators_:
            raise RuntimeError("estimator is not fitted; call fit() first")
