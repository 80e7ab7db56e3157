"""Cross-validation and hyper-parameter search.

The paper fine-tunes RF and XGB "using 5-fold cross-validation grid search
with minimum mean squared error as the objective for each of the 10
different scenarios" (§3.2); :class:`GridSearchCV` reproduces that recipe
over this package's estimators. :class:`TimeSeriesSplit` is the
chronological alternative used by the ablation benches. It has no purge
gap, so with a ``w``-day-ahead target its folds still leak labels (see
its docstring).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

import numpy as np

from .metrics import mean_squared_error

__all__ = [
    "GridSearchCV",
    "KFold",
    "ParameterGrid",
    "TimeSeriesSplit",
    "clone",
    "cross_val_predict",
]


def clone(estimator):
    """Fresh unfitted copy of an estimator via its get/set-params protocol."""
    return type(estimator)(**estimator.get_params())


class KFold:
    """K consecutive (optionally shuffled) folds.

    ``shuffle=False`` yields deterministic contiguous folds; with
    ``shuffle=True`` a ``random_state`` keeps splits reproducible.
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = False,
                 random_state=None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X):
        """Yield (train_indices, test_indices) pairs."""
        n_samples = len(X)
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into "
                f"{self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits,
                             dtype=np.int64)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start:start + size]
            train = np.concatenate(
                [indices[:start], indices[start + size:]]
            )
            yield train, test
            start += size


class TimeSeriesSplit:
    """Expanding-window splits: each test fold strictly follows its train set.

    With ``n_splits=k`` the data is cut into ``k + 1`` blocks; fold *i*
    trains on blocks ``0..i`` and tests on block ``i + 1``. The *rows*
    are chronological, but there is no gap between train and test: with
    the study's target ``y[i] = target[i + w]``, the labels of the last
    ``w`` training rows are index values inside the test block, so
    future information leaks into training for ``w > 1``. ROADMAP item
    5 adds the ``w``-row purge gap that closes this.
    """

    def __init__(self, n_splits: int = 5):
        if n_splits < 1:
            raise ValueError("n_splits must be >= 1")
        self.n_splits = n_splits

    def split(self, X):
        """Yield (train_indices, test_indices) pairs."""
        n_samples = len(X)
        n_blocks = self.n_splits + 1
        if n_samples < n_blocks:
            raise ValueError(
                f"cannot make {self.n_splits} time-series splits from "
                f"{n_samples} samples"
            )
        indices = np.arange(n_samples)
        test_size = n_samples // n_blocks
        for i in range(1, n_blocks):
            train_end = n_samples - (n_blocks - i) * test_size
            test_end = train_end + test_size
            yield indices[:train_end], indices[train_end:test_end]


class ParameterGrid:
    """Cartesian product over a mapping of parameter-name -> value list."""

    def __init__(self, grid: Mapping[str, Sequence]):
        if not isinstance(grid, Mapping):
            raise TypeError("grid must be a mapping of name -> values")
        for name, values in grid.items():
            if isinstance(values, str) or not isinstance(values, Sequence):
                raise TypeError(
                    f"grid entry {name!r} must be a sequence of values"
                )
            if len(values) == 0:
                raise ValueError(f"grid entry {name!r} is empty")
        self.grid = {name: list(values) for name, values in grid.items()}

    def __len__(self) -> int:
        out = 1
        for values in self.grid.values():
            out *= len(values)
        return out

    def __iter__(self):
        names = list(self.grid)
        for combo in itertools.product(*(self.grid[n] for n in names)):
            yield dict(zip(names, combo))


def _fit_and_score(template, params, X, y, train_idx, test_idx, scoring):
    """Fit one (params, fold) cell and return its test score.

    Every candidate carries its own ``random_state`` inside
    ``params``/``template``, so a cell's score depends only on its
    inputs.
    """
    model = clone(template).set_params(**params)
    model.fit(X[train_idx], y[train_idx])
    return float(scoring(y[test_idx], model.predict(X[test_idx])))


def cross_val_predict(estimator, X, y, cv=None):
    """Out-of-fold predictions for every sample.

    Each row's prediction comes from the fold model that did *not* train
    on it, giving an honest full-length forecast series (used by the
    Diebold-Mariano significance analyses). The CV scheme must cover
    every index exactly once (``KFold`` does; ``TimeSeriesSplit`` does
    not and is rejected).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    cv = cv if cv is not None else KFold(5)
    out = np.full(y.shape, np.nan)
    for train_idx, test_idx in cv.split(X):
        model = clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        out[test_idx] = model.predict(X[test_idx])
    if np.isnan(out).any():
        raise ValueError(
            "cv scheme did not cover every sample exactly once"
        )
    return out


class GridSearchCV:
    """Exhaustive grid search minimising mean CV score (MSE by default).

    After :meth:`fit`, exposes ``best_params_``, ``best_score_`` (mean CV
    score of the winner), ``best_estimator_`` (refit on all data), and
    ``cv_results_`` (one record per candidate). Ties resolve to the
    earliest candidate in grid order.
    """

    def __init__(self, estimator, param_grid: Mapping[str, Sequence],
                 cv=None, scoring=mean_squared_error, refit: bool = True):
        self.estimator = estimator
        self.param_grid = ParameterGrid(param_grid)
        # Fail fast on names the template does not accept: a misspelled
        # axis (e.g. "spliter") would otherwise only surface as a
        # set_params error deep inside a fit cell.
        if hasattr(estimator, "get_params"):
            unknown = set(self.param_grid.grid) - set(estimator.get_params())
            if unknown:
                raise ValueError(
                    "param_grid names not accepted by "
                    f"{type(estimator).__name__}: {sorted(unknown)}"
                )
        self.cv = cv if cv is not None else KFold(5)
        self.scoring = scoring
        self.refit = refit
        self.best_params_: dict | None = None
        self.best_score_: float | None = None
        self.best_estimator_ = None
        self.cv_results_: list[dict] = []

    def fit(self, X, y) -> "GridSearchCV":
        """Fit the estimator on (X, y); returns self."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        self.cv_results_ = []
        folds = list(self.cv.split(X))
        candidates = list(self.param_grid)
        flat = [
            _fit_and_score(self.estimator, params, X, y, train_idx,
                           test_idx, self.scoring)
            for params in candidates
            for train_idx, test_idx in folds
        ]
        best_score = np.inf
        best_params: dict | None = None
        for index, params in enumerate(candidates):
            scores = np.asarray(
                flat[index * len(folds):(index + 1) * len(folds)]
            )
            mean_score = float(scores.mean())
            self.cv_results_.append(
                {
                    "params": dict(params),
                    "mean_score": mean_score,
                    "std_score": float(scores.std()),
                    "fold_scores": scores.tolist(),
                }
            )
            if mean_score < best_score:
                best_score = mean_score
                best_params = dict(params)
        self.best_score_ = best_score
        self.best_params_ = best_params
        if self.refit and best_params is not None:
            self.best_estimator_ = (
                clone(self.estimator).set_params(**best_params).fit(X, y)
            )
        return self

    def predict(self, X) -> np.ndarray:
        """Predict targets for every row of X."""
        if self.best_estimator_ is None:
            raise RuntimeError(
                "grid search has no refitted estimator; "
                "call fit() with refit=True first"
            )
        return self.best_estimator_.predict(X)
