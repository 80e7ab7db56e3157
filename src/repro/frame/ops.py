"""Frame-level operations: joins, lags, returns, rolling windows.

These are the relational/time-series primitives the dataset-assembly and
feature-engineering stages are built on. Joins align heterogeneous data
sources onto one calendar; ``shift``/``lag_features`` build the supervised
learning matrix (features at day *t*, target at day *t + w*); the rolling
helpers back the technical-indicator suite.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .frame import Frame
from .index import DateIndex

__all__ = [
    "outer_join",
    "inner_join",
    "concat_columns",
    "shift",
    "pct_change",
    "log_returns",
    "rolling_apply",
    "rolling_mean",
    "rolling_std",
    "rolling_min",
    "rolling_max",
    "rolling_sum",
]


def _join(frames: Sequence[Frame], index: DateIndex) -> Frame:
    columns: dict[str, np.ndarray] = {}
    for frame in frames:
        aligned = frame.reindex(index)
        for name in aligned.columns:
            if name in columns:
                raise ValueError(f"duplicate column {name!r} across frames")
            columns[name] = aligned[name]
    return Frame(index, columns)


def outer_join(*frames: Frame) -> Frame:
    """Join frames on the union of their date indices (NaN where absent)."""
    if not frames:
        raise ValueError("need at least one frame")
    index = frames[0].index
    for frame in frames[1:]:
        index = index.union(frame.index)
    return _join(frames, index)


def inner_join(*frames: Frame) -> Frame:
    """Join frames on the intersection of their date indices."""
    if not frames:
        raise ValueError("need at least one frame")
    index = frames[0].index
    for frame in frames[1:]:
        index = index.intersection(frame.index)
    return _join(frames, index)


def concat_columns(*frames: Frame) -> Frame:
    """Concatenate columns of frames sharing an identical index."""
    if not frames:
        raise ValueError("need at least one frame")
    index = frames[0].index
    for frame in frames[1:]:
        if frame.index != index:
            raise ValueError("concat_columns requires identical indices")
    return _join(frames, index)


def shift(values: np.ndarray, periods: int) -> np.ndarray:
    """Shift a series by ``periods`` (positive = move values later), NaN-padding."""
    values = np.asarray(values, dtype=np.float64)
    out = np.full_like(values, np.nan)
    if periods == 0:
        return values.copy()
    if abs(periods) >= values.size:
        return out
    if periods > 0:
        out[periods:] = values[:-periods]
    else:
        out[:periods] = values[-periods:]
    return out


def pct_change(values: np.ndarray, periods: int = 1) -> np.ndarray:
    """Fractional change over ``periods`` steps; NaN where undefined."""
    values = np.asarray(values, dtype=np.float64)
    prev = shift(values, periods)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (values - prev) / np.abs(prev)
    out[~np.isfinite(out)] = np.nan
    return out


def log_returns(values: np.ndarray, periods: int = 1) -> np.ndarray:
    """Log returns over ``periods`` steps; NaN for non-positive prices."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values)
    logs[~np.isfinite(logs)] = np.nan
    return logs - shift(logs, periods)


def _sliding(values: np.ndarray, window: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(values, window)


def rolling_apply(values: np.ndarray, window: int, func) -> np.ndarray:
    """Apply ``func(axis=-1)``-style reducer over trailing windows.

    The first ``window - 1`` outputs are NaN; a window containing any NaN
    yields NaN (propagating missingness, as the cleaning phase runs first).
    """
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    out = np.full(values.size, np.nan)
    if values.size < window:
        return out
    out[window - 1:] = func(_sliding(values, window), -1)
    return out


def _window_sums(values: np.ndarray, window: int):
    """Trailing-window sums via cumulative-sum differences.

    Returns ``(sums, bad)`` for the ``size - window + 1`` complete
    windows, where ``bad`` flags windows containing any NaN (their sum
    is meaningless — NaNs were zero-substituted before accumulating).
    Callers must have excluded ±inf inputs: ``inf - inf`` in the
    difference would poison every window after the first infinity.
    """
    isnan = np.isnan(values)
    safe = np.where(isnan, 0.0, values)
    csum = np.concatenate(([0.0], np.cumsum(safe)))
    sums = csum[window:] - csum[:-window]
    ncsum = np.concatenate(([0], np.cumsum(isnan)))
    bad = (ncsum[window:] - ncsum[:-window]) > 0
    return sums, bad


def _closed_form_ok(values: np.ndarray, window: int) -> bool:
    """Whether the cumsum closed forms apply to this input.

    ``window == 1`` must return an exact copy (cumsum round-trips are
    not exact identities for arbitrary floats), and infinities break
    cumulative differencing — both route back to :func:`rolling_apply`.
    """
    return (window > 1 and values.size >= window
            and not np.isinf(values).any())


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window mean (NaN warm-up; NaNs propagate).

    Computed in closed form from cumulative sums — one vectorised pass
    rather than a per-window reduction over a strided view (the
    indicator suite calls this for every feature × window pair).
    :func:`rolling_apply` remains the behavioural reference and the
    fallback for inputs the closed form cannot serve exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if not _closed_form_ok(values, window):
        return rolling_apply(values, window, np.mean)
    sums, bad = _window_sums(values, window)
    result = sums / window
    result[bad] = np.nan
    out = np.full(values.size, np.nan)
    out[window - 1:] = result
    return out


def _std_center(values: np.ndarray) -> float:
    """The centring offset :func:`rolling_std` subtracts before summing.

    The *first finite* value: it kills the large common offset that
    makes the raw ``E[x²] − E[x]²`` identity cancel catastrophically,
    and — unlike the global mean — it depends only on the series head,
    so appending rows never changes the outputs of the existing rows
    (the prefix check of :func:`repro.synth.extend_raw_dataset` needs
    every indicator to be prefix-stable).
    """
    finite = np.flatnonzero(~np.isnan(values))
    return float(values[finite[0]]) if finite.size else 0.0


def rolling_std(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window standard deviation (population, ddof=0).

    Closed form over cumulative sums of the *centred* series (offset =
    first finite value, see :func:`_std_center`): variance is
    shift-invariant, and centring first suppresses the catastrophic
    cancellation the raw ``E[x²] − E[x]²`` identity suffers on
    large-offset series (a constant series still yields an exact 0).
    Falls back to :func:`rolling_apply` like :func:`rolling_mean`.
    """
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if not _closed_form_ok(values, window):
        return rolling_apply(values, window, np.std)
    centred = values - _std_center(values)
    sums, bad = _window_sums(centred, window)
    squares, _ = _window_sums(centred * centred, window)
    mean = sums / window
    variance = np.maximum(squares / window - mean * mean, 0.0)
    result = np.sqrt(variance)
    result[bad] = np.nan
    out = np.full(values.size, np.nan)
    out[window - 1:] = result
    return out


def _rolling_extremum(values: np.ndarray, window: int, ufunc) -> np.ndarray:
    """O(n) trailing-window extremum via block prefix/suffix scans.

    The van Herk–Gil–Werman decomposition (the vectorised equivalent of
    a monotonic deque): split the series into blocks of ``window``,
    compute running extrema forward (prefix) and backward (suffix)
    within each block, and every trailing window is the extremum of one
    suffix and one prefix value. Two accumulate passes + one binary op
    — ~3 comparisons per element regardless of window size, versus the
    ``O(n · window)`` reduction over a strided view.

    NaNs propagate exactly as in the :func:`rolling_apply` reference:
    ``ufunc`` (``np.minimum``/``np.maximum``) carries NaN through both
    scans, so any window containing a NaN yields NaN.
    """
    n = values.size
    out = np.full(n, np.nan)
    if n < window:
        return out
    if window == 1:
        return values.copy()
    n_blocks = -(-n // window)
    pad = n_blocks * window - n
    # NaN padding never leaks: suffix values are only read at window
    # starts (positions <= n - window), which always land in a block
    # that either is unpadded or precedes the padded one.
    padded = np.concatenate((values, np.full(pad, np.nan))) if pad else values
    blocks = padded.reshape(n_blocks, window)
    prefix = ufunc.accumulate(blocks, axis=1).ravel()
    suffix = ufunc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    out[window - 1:] = ufunc(suffix[:n - window + 1], prefix[window - 1:n])
    return out


def rolling_min(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window minimum (O(n) block scans; NaN head/propagation).

    Value-identical to ``rolling_apply(values, window, np.min)``
    including NaN placement; only the sign of a zero may differ when a
    window holds both ``0.0`` and ``-0.0`` (the reductions associate
    differently, and IEEE min is sign-ambiguous on equal zeros).
    """
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    return _rolling_extremum(values, window, np.minimum)


def rolling_max(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window maximum (O(n) block scans; see :func:`rolling_min`)."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    return _rolling_extremum(values, window, np.maximum)


def rolling_sum(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window sum (closed form; see :func:`rolling_mean`)."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if not _closed_form_ok(values, window):
        return rolling_apply(values, window, np.sum)
    sums, bad = _window_sums(values, window)
    result = sums
    result[bad] = np.nan
    out = np.full(values.size, np.nan)
    out[window - 1:] = result
    return out
