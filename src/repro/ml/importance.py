"""Feature-importance evaluation methods.

The Feature Reduction Algorithm combines four importance signals (§3.2):
Pearson correlation with the target, Mean Decrease in Impurity from RF and
XGB, and Permutation Feature Importance from RF and XGB. This module
implements the correlation and permutation signals (MDI is each tree
model's ``feature_importances_``); :mod:`repro.core.fra` wires them into
Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from .base import check_xy
from .compiled import maybe_compile
from .metrics import mean_squared_error

__all__ = [
    "pearson_correlation",
    "target_correlations",
    "permutation_importance",
]


def pearson_correlation(x, y) -> float:
    """Pearson r between two 1-D arrays; 0.0 when either is constant.

    Returning zero (rather than NaN) for constant inputs matches how the
    FRA treats dead features: no linear association, lowest possible rank.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("inputs must have equal length")
    if x.size < 2:
        raise ValueError("correlation needs at least two observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc @ xc) * (yc @ yc))
    if denom == 0.0:
        return 0.0
    return float(np.clip((xc @ yc) / denom, -1.0, 1.0))


def target_correlations(X, y) -> np.ndarray:
    """|Pearson r| of every column of ``X`` against ``y`` (vectorised)."""
    X, y = check_xy(X, y, fitting=False)
    if X.shape[0] < 2:
        raise ValueError("correlation needs at least two observations")
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    cov = Xc.T @ yc
    # Square the centred copy in place: it is not read again.
    denom = np.sqrt(np.square(Xc, out=Xc).sum(axis=0) * (yc @ yc))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / denom, 0.0)
    return np.abs(np.clip(corr, -1.0, 1.0))


def _mean_delta(predictions, y, baseline, scoring, n_repeats, n_samples):
    """Mean per-repeat score increase over the baseline."""
    deltas = np.empty(n_repeats)
    for r in range(n_repeats):
        deltas[r] = float(scoring(
            y, predictions[r * n_samples:(r + 1) * n_samples]
        )) - baseline
    return float(deltas.mean())


def _feature_pfi(j, perms, estimator, X, y, baseline, scoring):
    """Mean score increase for feature ``j`` of a non-compiled estimator.

    ``perms`` is the full ``(n_features, n_repeats, n_samples)`` block
    of pre-drawn permutation index rows. All repeats are stacked into
    one matrix and predicted in a single call — tree ensembles amortise
    their per-call Python overhead across every repeat.
    """
    reps = perms[j]
    n_repeats, n_samples = reps.shape
    stacked = np.tile(X, (n_repeats, 1))
    # One gather fills the permuted column for every repeat at once:
    # X[:, j][reps] is (n_repeats, n_samples) laid out in repeat order.
    stacked[:, j] = X[:, j][reps].ravel()
    predictions = estimator.predict(stacked)
    return _mean_delta(predictions, y, baseline, scoring,
                       n_repeats, n_samples)


def _pfi_batched(compiled, X, codes, y, perms, baseline, scoring):
    """All features' PFI through incremental compiled walks.

    One :class:`~repro.ml.compiled.PermutationScorer` runs the baseline
    traversal once, then each feature's permuted predictions re-walk
    only the (tree, row) pairs whose baseline path compared that
    feature — bit-identical to stacked full predicts at a fraction of
    the traversal work. Hist-fit ensembles walk ``uint8`` bin ``codes``
    instead of ``X`` (binning is elementwise per column, so permuting a
    code column equals binning the permuted raw column). Scoring per
    feature is byte-for-byte the :func:`_feature_pfi` computation.
    """
    n_features, n_repeats, n_samples = perms.shape
    base = codes if codes is not None else X
    scorer = compiled.permutation_scorer(base, binned=codes is not None)
    values = np.empty(n_features, dtype=np.float64)
    for j in range(n_features):
        predictions = scorer.predict_feature(j, perms[j])
        values[j] = _mean_delta(predictions, y, baseline, scoring,
                                n_repeats, n_samples)
    return values


def permutation_importance(
    estimator,
    X,
    y,
    n_repeats: int = 5,
    scoring=mean_squared_error,
    random_state=None,
) -> np.ndarray:
    """Permutation Feature Importance (mean score increase per feature).

    For each feature, shuffles its column ``n_repeats`` times and records
    the increase of ``scoring`` (a loss — higher is worse) relative to the
    baseline score on intact data. Features whose shuffling does not hurt
    the model get importance ~0 (possibly slightly negative).

    Unlike MDI this "directly measures the effect on each model's
    predictive performance, mitigating issues caused by bias during
    training" (§3.2).

    All permutation indices are drawn up front from ``random_state``, so
    the per-feature evaluations are pure functions of the drawn block.
    Compiled tree ensembles score every feature through incremental
    re-walks (:func:`_pfi_batched`); any other estimator predicts one
    stacked matrix per feature (:func:`_feature_pfi`).
    """
    X, y = check_xy(X, y, fitting=False)
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    rng = np.random.default_rng(random_state)
    compiled = maybe_compile(estimator)
    baseline = float(scoring(y, estimator.predict(X)))
    n_samples, n_features = X.shape
    perms = np.empty((n_features, n_repeats, n_samples), dtype=np.intp)
    for j in range(n_features):
        for r in range(n_repeats):
            perms[j, r] = rng.permutation(n_samples)
    if compiled is not None:
        codes = compiled.bin(X) if compiled.has_bins else None
        return _pfi_batched(compiled, X, codes, y, perms, baseline, scoring)
    return np.array([
        _feature_pfi(j, perms, estimator, X, y, baseline, scoring)
        for j in range(n_features)
    ], dtype=np.float64)
