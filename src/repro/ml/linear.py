"""Ridge regression: the stacking meta-learner.

Not one of the paper's model families. By default
:class:`~repro.ml.ensemble.StackingRegressor` blends its base models'
out-of-fold predictions with it.
"""

from __future__ import annotations

import numpy as np

from .base import Estimator

__all__ = ["Ridge"]


class Ridge(Estimator):
    """L2-regularised least squares (closed form)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_features_in_: int | None = None

    def get_params(self) -> dict:
        """Constructor parameters (the clone/grid-search protocol)."""
        return {"alpha": self.alpha, "fit_intercept": self.fit_intercept}

    def fit(self, X, y) -> "Ridge":
        """Fit the estimator on (X, y); returns self."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.size:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_in_ = X.shape[1]
        if self.fit_intercept:
            x_mean, y_mean = X.mean(axis=0), y.mean()
            Xc, yc = X - x_mean, y - y_mean
        else:
            x_mean, y_mean = np.zeros(X.shape[1]), 0.0
            Xc, yc = X, y
        n_features = X.shape[1]
        gram = Xc.T @ Xc + self.alpha * np.eye(n_features)
        self.coef_ = np.linalg.solve(gram, Xc.T @ yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X) -> np.ndarray:
        """Predict targets for every row of X."""
        if self.coef_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_in_} features"
            )
        return X @ self.coef_ + self.intercept_
