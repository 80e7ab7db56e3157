"""The Feature Reduction Algorithm — Algorithm 1 of the paper (§3.2).

FRA iteratively removes features that *consistently* rank in the bottom
half of four complementary importance signals — MDI from a random forest,
MDI from a gradient booster (the XGBoost stand-in), and Permutation
Feature Importance from both models — while also failing a Pearson
correlation threshold against the target. The threshold starts at 0.5 and
tightens by 0.025 per iteration, so late iterations remove features on
rank consensus alone; the loop ends once the vector is at or below the
target size (default 100).

Deviation note: the paper re-tunes RF/XGB by grid search inside every
scenario before extracting importances. The default here uses fixed,
documented hyper-parameters per iteration (grid search inside the
reduction loop multiplies runtime by the grid size without changing which
features consistently rank bottom); the pipeline's improvement study does
run the paper's grid search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ml.boosting import GradientBoostingRegressor
from ..ml.forest import RandomForestRegressor
from ..ml.importance import permutation_importance, target_correlations
from ..obs import current_metrics, get_logger, span

_log = get_logger("fra")

__all__ = ["FRAConfig", "FRAResult", "fra_reduce"]


@dataclass(frozen=True)
class FRAConfig:
    """Knobs for one FRA run.

    The defaults favour runtime (small ensembles, subsampled PFI); the
    benches scale them up. ``corr_start``/``corr_step`` are the paper's
    Algorithm 1 constants.
    """

    target_size: int = 100
    corr_start: float = 0.5
    corr_step: float = 0.025
    rf_params: dict = field(default_factory=lambda: {
        "n_estimators": 20, "max_depth": 10, "max_features": "sqrt",
        "min_samples_leaf": 2,
    })
    gb_params: dict = field(default_factory=lambda: {
        "n_estimators": 40, "max_depth": 4, "learning_rate": 0.1,
        "max_features": "sqrt", "subsample": 0.8, "reg_lambda": 1.0,
    })
    pfi_repeats: int = 2
    pfi_max_rows: int = 400
    max_iterations: int = 80
    random_state: int = 0

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")
        if self.corr_step <= 0:
            raise ValueError("corr_step must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class FRAResult:
    """Outcome of a reduction run."""

    selected: list[str]
    """Surviving feature names, ranked most-important first."""

    importances: dict[str, float]
    """Final consensus importance (higher = better) per surviving feature."""

    history: list[dict]
    """One record per iteration: n_features, corr_threshold, n_removed."""

    @property
    def n_iterations(self) -> int:
        """Number of reduction iterations executed."""
        return len(self.history)


def _bottom_half_mask(scores: np.ndarray) -> np.ndarray:
    """True for features ranked in the bottom 50 % of ``scores``."""
    order = np.argsort(np.argsort(scores, kind="stable"), kind="stable")
    return order < scores.size // 2


def _consensus_scores(X, y, names, config, rng) -> np.ndarray:
    """Stack the four method scores as rows of a (4, n_features) matrix."""
    rf = RandomForestRegressor(
        random_state=int(rng.integers(2**31)), **config.rf_params
    ).fit(X, y)
    gb = GradientBoostingRegressor(
        random_state=int(rng.integers(2**31)), **config.gb_params
    ).fit(X, y)

    if X.shape[0] > config.pfi_max_rows:
        rows = rng.choice(X.shape[0], size=config.pfi_max_rows,
                          replace=False)
        X_pfi, y_pfi = X[rows], y[rows]
    else:
        X_pfi, y_pfi = X, y
    rf_pfi = permutation_importance(
        rf, X_pfi, y_pfi, n_repeats=config.pfi_repeats,
        random_state=int(rng.integers(2**31)),
    )
    gb_pfi = permutation_importance(
        gb, X_pfi, y_pfi, n_repeats=config.pfi_repeats,
        random_state=int(rng.integers(2**31)),
    )
    return np.vstack([
        rf.feature_importances_,
        gb.feature_importances_,
        rf_pfi,
        gb_pfi,
    ])


def fra_reduce(X, y, feature_names, config: FRAConfig | None = None
               ) -> FRAResult:
    """Run Algorithm 1 on a supervised matrix.

    Parameters
    ----------
    X, y:
        Feature matrix and target (NaN-free).
    feature_names:
        One name per column of ``X``.
    config:
        Reduction configuration; defaults to :class:`FRAConfig()`.

    Returns
    -------
    FRAResult
        Surviving features ranked by final consensus importance.
    """
    config = config if config is not None else FRAConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    names = list(feature_names)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ValueError("X width must match feature_names length")
    rng = np.random.default_rng(config.random_state)

    active = np.arange(len(names))
    corr_threshold = config.corr_start
    history: list[dict] = []
    scores = None
    metrics = current_metrics()

    with span("fra.reduce", n_candidates=len(names),
              target_size=config.target_size):
        for iteration in range(config.max_iterations):
            if active.size <= config.target_size:
                break
            with span("fra.iteration", iteration=iteration) as record:
                # Nothing is removed before the first iteration, so it
                # reads ``X`` itself rather than a full copy.
                X_cur = X if active.size == X.shape[1] else X[:, active]
                scores = _consensus_scores(X_cur, y, names, config, rng)
                correlations = target_correlations(X_cur, y)

                bottom = np.ones(active.size, dtype=bool)
                for row in scores:
                    bottom &= _bottom_half_mask(row)
                removable = bottom & (correlations < corr_threshold)
                # Removing every consensus-bottom feature can overshoot
                # below the target — the paper's Table 1 shows exactly
                # that (final sizes of 79-88 against a target of 100),
                # so no budget cap is applied.
                idx_removable = np.flatnonzero(removable)

                if idx_removable.size == 0 and corr_threshold > 1.0:
                    # Rank consensus exhausted: force progress by
                    # dropping the single worst feature by mean rank
                    # (keeps termination).
                    mean_rank = np.zeros(active.size)
                    for row in scores:
                        mean_rank += np.argsort(
                            np.argsort(row, kind="stable"), kind="stable"
                        )
                    idx_removable = np.array([int(np.argmin(mean_rank))])

                history.append({
                    "n_features": int(active.size),
                    "corr_threshold": float(corr_threshold),
                    "n_removed": int(idx_removable.size),
                })
                record.attrs["n_features"] = int(active.size)
                record.attrs["n_removed"] = int(idx_removable.size)
                _log.debug("iteration", iteration=iteration,
                           n_features=int(active.size),
                           n_removed=int(idx_removable.size),
                           corr_threshold=corr_threshold)
                metrics.counter("fra.iterations").inc()
                metrics.counter("fra.features_eliminated").inc(
                    int(idx_removable.size)
                )
                if idx_removable.size:
                    keep = np.ones(active.size, dtype=bool)
                    keep[idx_removable] = False
                    active = active[keep]
                corr_threshold += config.corr_step

        # Final consensus importance over survivors: always refit, also
        # when the last iteration removed nothing and its scores would
        # still do.  Skipping that refit would shift the RNG stream and
        # with it every result digest.
        with span("fra.final_scores", n_survivors=int(active.size)):
            X_cur = X[:, active]
            scores = _consensus_scores(X_cur, y, names, config, rng)
    mean_rank = np.zeros(active.size)
    for row in scores:
        mean_rank += np.argsort(np.argsort(row, kind="stable"),
                                kind="stable")
    # higher mean rank = more important
    order = np.argsort(-mean_rank, kind="stable")
    selected = [names[active[i]] for i in order]
    importances = {
        names[active[i]]: float(mean_rank[i]) for i in order
    }
    return FRAResult(selected=selected, importances=importances,
                     history=history)
