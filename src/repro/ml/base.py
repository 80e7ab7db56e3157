"""What every model shares: its parameter protocol and its input checks.

Each estimator names its constructor parameters in ``get_params()``;
:meth:`Estimator.set_params` is the one way to change them after
construction, for cloning and grid search alike. :func:`check_xy` and
:func:`check_features` are the one coercion and check of training and
prediction inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Estimator", "check_features", "check_xy"]


def check_xy(X, y, fitting: bool = True):
    """``X`` as a 2-D float64 matrix and ``y`` as a float64 vector of
    the same length; ``fitting`` also rejects an empty dataset."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] != y.size:
        raise ValueError("X and y have inconsistent lengths")
    if fitting and X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y


def check_features(X, n_features: int) -> np.ndarray:
    """``X`` as a float64 matrix of ``n_features`` columns, the shape a
    fitted model predicts from."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"X must be 2-D with {n_features} features")
    return X


class Estimator:
    """Mixin giving every estimator the same :meth:`set_params`."""

    def set_params(self, **params):
        """Update constructor parameters in place; returns self.

        Only ``get_params()`` names are accepted, so fitted state such as
        ``estimators_`` cannot be overwritten, and the merged parameters
        pass the constructor's checks before any of them is set.
        """
        current = self.get_params()
        for key in params:
            if key not in current:
                raise ValueError(f"unknown parameter {key!r}")
        checked = type(self)(**{**current, **params})
        for key in params:
            setattr(self, key, getattr(checked, key))
        return self
