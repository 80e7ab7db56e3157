"""Scenario construction (§3.1.2).

A *scenario* is a (period, prediction-window) pair: the paper studies
two periods — set 2017 (Jan 2017 – Jun 2023) and set 2019 (Jan 2019 –
Jun 2023) — crossed with five windows (1, 7, 30, 90, 180 days), giving
10 scenarios. For each one this module produces the supervised matrix:
features observed at day *t*, target = Crypto100 price at day *t + w*.

Metrics that began recording after a period's start date (e.g. USDC
metrics in the 2017 set) are discarded from that period, exactly as in
the paper; the remaining cleaning is delegated to
:mod:`repro.core.cleaning`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache import fingerprint_parts, range_digest
from ..categories import DataCategory
from ..obs import span
from ..synth.dataset import RawDataset
from .cleaning import CleaningReport, clean_features

__all__ = [
    "PERIODS",
    "PREDICTION_WINDOWS",
    "Scenario",
    "ScenarioInfo",
    "build_scenario",
    "build_all_scenarios",
    "period_digests",
    "scenario_key",
]

#: The paper's two chronological periods: name → (start, end).
PERIODS = {
    "2017": ("2017-01-01", "2023-06-30"),
    "2019": ("2019-01-01", "2023-06-30"),
}

#: The paper's prediction windows, in days.
PREDICTION_WINDOWS = (1, 7, 30, 90, 180)


def scenario_key(period: str, window: int) -> str:
    """The paper's ``year_window`` naming, e.g. ``"2017_30"``."""
    return f"{period}_{window}"


@dataclass(frozen=True)
class ScenarioInfo:
    """One scenario without its matrices: what a scenario task keeps.

    The period, the window, the candidate features with their
    categories and what cleaning removed — everything the report,
    Table 1 and the contribution factors read.  A task's cache entry
    holds this, not the ``X``/``y`` it fitted on; whoever needs the
    matrices rebuilds them from the run's dataset with
    ``build_scenario(results.raw, info.period, info.window)``.
    """

    period: str
    window: int
    feature_names: list[str]
    categories: dict[str, DataCategory] = field(repr=False)
    cleaning_report: CleaningReport = field(repr=False)

    @property
    def key(self) -> str:
        """The paper's ``year_window`` scenario name."""
        return scenario_key(self.period, self.window)

    @property
    def n_features(self) -> int:
        """Number of candidate features."""
        return len(self.feature_names)

    def columns_in(self, category: DataCategory) -> list[str]:
        """Feature names belonging to one category."""
        return [
            name for name in self.feature_names
            if self.categories[name] is category
        ]


@dataclass(frozen=True)
class Scenario(ScenarioInfo):
    """One supervised forecasting problem: a :class:`ScenarioInfo` with
    its matrices.

    ``X`` rows are observation days; ``y[i]`` is the Crypto100 price
    ``window`` days after the day of row ``i``.
    """

    X: np.ndarray = field(kw_only=True)
    y: np.ndarray = field(kw_only=True)

    @property
    def info(self) -> ScenarioInfo:
        """This scenario without its matrices."""
        return ScenarioInfo(
            period=self.period,
            window=self.window,
            feature_names=self.feature_names,
            categories=self.categories,
            cleaning_report=self.cleaning_report,
        )

    @property
    def n_samples(self) -> int:
        """Number of supervised rows."""
        return int(self.X.shape[0])

    def select_features(self, names: list[str]) -> "Scenario":
        """A scenario restricted to a subset of features (same rows)."""
        positions = [self.feature_names.index(n) for n in names]
        return Scenario(
            period=self.period,
            window=self.window,
            feature_names=list(names),
            X=self.X[:, positions],
            y=self.y,
            categories={n: self.categories[n] for n in names},
            cleaning_report=self.cleaning_report,
        )

    def split(self, test_frac: float = 0.2):
        """Chronological train/test split (no look-ahead leakage)."""
        if not 0.0 < test_frac < 1.0:
            raise ValueError("test_frac must be in (0, 1)")
        cut = int(round(self.n_samples * (1.0 - test_frac)))
        cut = min(max(cut, 1), self.n_samples - 1)
        return (
            self.X[:cut], self.X[cut:], self.y[:cut], self.y[cut:],
        )


def build_scenario(
    raw: RawDataset,
    period: str,
    window: int,
    max_nan_run_frac: float = 0.05,
    max_flat_run_frac: float = 0.25,
) -> Scenario:
    """Slice, clean and supervise one scenario from the raw dataset."""
    if period not in PERIODS:
        raise ValueError(f"unknown period {period!r}; choose from {PERIODS}")
    if window < 1:
        raise ValueError("prediction window must be >= 1 day")
    start, end = PERIODS[period]

    with span("scenarios.build", period=period, window=window):
        features = raw.features.loc_range(start, end)
        target_sliced = raw.target.loc_range(start, end)["crypto100"]

        cleaned, report = clean_features(
            features,
            max_nan_run_frac=max_nan_run_frac,
            max_flat_run_frac=max_flat_run_frac,
        )

        if window >= cleaned.n_rows:
            raise ValueError(
                f"window {window} leaves no supervised rows in "
                f"period {period}"
            )
        X = cleaned.to_matrix()[:-window]
        y = target_sliced[window:]
        names = cleaned.columns
        return Scenario(
            period=period,
            window=window,
            feature_names=names,
            X=X,
            y=np.asarray(y, dtype=np.float64),
            categories={n: raw.categories[n] for n in names},
            cleaning_report=report,
        )


def period_digests(raw: RawDataset, periods=None) -> dict[str, str]:
    """Per-period content digests for range-granular cache keys.

    A scenario sees only the feature/target rows inside its period's
    fixed ``[start, end]`` range (see :data:`PERIODS`), so its cache
    address only needs to cover those bytes. Keying scenario artifacts
    by these digests instead of a monolithic whole-dataset digest is
    what lets an append-only dataset extension (:mod:`repro.incremental`)
    reuse every cached scenario whose range the new rows do not touch:
    extending past a period's ``end`` leaves that period's digest — and
    every key built from it — unchanged, while any change *inside* the
    range (different seed, fault corruption, in-range extension) shifts
    it and forces a recompute.
    """
    periods = list(PERIODS) if periods is None else list(periods)
    unknown = [p for p in periods if p not in PERIODS]
    if unknown:
        raise ValueError(
            f"unknown periods {unknown}; choose from {list(PERIODS)}"
        )
    out = {}
    for period in periods:
        start, end = PERIODS[period]
        out[period] = fingerprint_parts(
            "period-data",
            (start, end),
            range_digest(raw.features, start, end),
            range_digest(raw.target, start, end),
        )
    return out


def build_all_scenarios(
    raw: RawDataset,
    periods=None,
    windows=PREDICTION_WINDOWS,
) -> dict[str, Scenario]:
    """All (period × window) scenarios, keyed by ``year_window``."""
    periods = list(PERIODS) if periods is None else list(periods)
    out = {}
    for period in periods:
        for window in windows:
            scenario = build_scenario(raw, period, window)
            out[scenario.key] = scenario
    return out
