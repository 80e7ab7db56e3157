"""Heterogeneous model ensembles: stacking.

A natural continuation of the paper's §5 "impact on complex models":
instead of asking one family to absorb all data sources, combine
families — forests for interactions, boosters for additive structure,
linear models for extrapolation. ``StackingRegressor`` trains its
meta-learner on out-of-fold base predictions (via
:func:`~repro.ml.model_selection.cross_val_predict`), so the blend never
sees leaked in-sample fits.
"""

from __future__ import annotations

import numpy as np

from .base import Estimator, check_xy
from .linear import Ridge
from .model_selection import KFold, clone, cross_val_predict

__all__ = ["StackingRegressor"]


class StackingRegressor(Estimator):
    """Two-level stack: a meta-learner over out-of-fold base predictions.

    Parameters
    ----------
    estimators:
        ``(name, estimator)`` base prototypes.
    final_estimator:
        Meta-learner fit on the matrix of OOF base predictions; defaults
        to a lightly-regularised :class:`~repro.ml.linear.Ridge`.
    cv_folds:
        Folds used to generate the leakage-free training predictions.
    random_state:
        Seed for the (shuffled) stacking folds.
    """

    def __init__(self, estimators, final_estimator=None, cv_folds: int = 5,
                 random_state=None):
        if not estimators:
            raise ValueError("need at least one estimator")
        if cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        self.estimators = list(estimators)
        self.final_estimator = (
            final_estimator if final_estimator is not None
            else Ridge(alpha=1.0)
        )
        self.cv_folds = cv_folds
        self.random_state = random_state
        self.fitted_: list = []
        self.meta_: object | None = None
        self.n_features_in_: int | None = None

    def get_params(self) -> dict:
        """Constructor parameters (the clone/grid-search protocol)."""
        return {
            "estimators": self.estimators,
            "final_estimator": self.final_estimator,
            "cv_folds": self.cv_folds,
            "random_state": self.random_state,
        }

    def fit(self, X, y) -> "StackingRegressor":
        """Fit the estimator on (X, y); returns self."""
        X, y = check_xy(X, y)
        self.n_features_in_ = X.shape[1]
        cv = KFold(self.cv_folds, shuffle=True,
                   random_state=self.random_state)
        oof = np.column_stack([
            cross_val_predict(proto, X, y, cv=cv)
            for _, proto in self.estimators
        ])
        self.meta_ = clone(self.final_estimator).fit(oof, y)
        self.fitted_ = [
            clone(proto).fit(X, y) for _, proto in self.estimators
        ]
        return self

    def predict(self, X) -> np.ndarray:
        """Predict targets for every row of X."""
        if self.meta_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        base = np.column_stack([m.predict(X) for m in self.fitted_])
        return self.meta_.predict(base)
