"""Frame-level operations: column concatenation, lags, rolling windows.

These are the time-series primitives the dataset-assembly and
feature-engineering stages are built on. ``concat_columns`` puts the
data sources, all on one calendar, side by side; ``shift``/
``lag_features`` build the supervised learning matrix (features at day
*t*, target at day *t + w*); the resumable running sums back the
technical-indicator suite.
"""

from __future__ import annotations

import numpy as np

from .frame import Frame

__all__ = [
    "concat_columns",
    "shift",
    "rolling_apply",
    "rolling_min",
    "rolling_max",
    "rolling_std_resume",
    "window_sums",
]


def concat_columns(*frames: Frame) -> Frame:
    """Concatenate columns of frames sharing an identical index."""
    if not frames:
        raise ValueError("need at least one frame")
    index = frames[0].index
    for frame in frames[1:]:
        if frame.index != index:
            raise ValueError("concat_columns requires identical indices")
    # The indices already match and frame columns are read-only, so the
    # result shares its inputs' arrays: nothing is copied.
    columns: dict[str, np.ndarray] = {}
    for frame in frames:
        for name in frame.columns:
            if name in columns:
                raise ValueError(f"duplicate column {name!r} across frames")
            columns[name] = frame[name]
    return Frame.__new__(Frame)._adopt(index, list(columns), columns)


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
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    out[window - 1:] = func(windows, -1)
    return out


def window_sums(values: np.ndarray, window: int, carry=None):
    """Trailing-window sums via cumulative-sum differences, resumable.

    Returns ``((totals, bad), carry)`` with one entry per value in
    ``totals`` and ``bad``, where ``bad`` flags positions whose window
    is incomplete or holds a NaN (their total is meaningless: NaNs were
    zero-substituted before accumulating).
    An infinity raises ``ValueError``: ``inf - inf`` in the difference
    would poison every window after it.

    ``carry`` is what a previous call over the series' earlier values
    returned: the number of values seen and the last ``window``
    running sums (value and NaN count). Resuming from it continues the
    same left-to-right accumulation, so a series summed in pieces gives
    the bytes of one call over the whole of it.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isinf(values).any():
        raise ValueError("window sums need values without infinities")
    if carry is None:
        count, csum, ncsum = 0, np.zeros(1), np.zeros(1, dtype=np.int64)
    else:
        count, csum, ncsum = carry
    isnan = np.isnan(values)
    safe = np.where(isnan, 0.0, values)
    if count == 0:
        new, new_nan = np.cumsum(safe), np.cumsum(isnan)
    else:
        new = np.cumsum(np.concatenate((csum[-1:], safe)))[1:]
        new_nan = np.cumsum(np.concatenate((ncsum[-1:], isnan)))[1:]
    # ext[j] is the running sum after value ``count - base + j`` (the
    # leading 0.0 is the sum of no values).
    ext = np.concatenate((csum, new))
    ext_nan = np.concatenate((ncsum, new_nan))
    base, k = csum.size, values.size
    totals = np.zeros(k)
    bad = np.ones(k, dtype=bool)
    first = max(0, window - 1 - count)
    if first < k:
        hi, lo = slice(base + first, base + k), \
            slice(base + first - window, base + k - window)
        totals[first:] = ext[hi] - ext[lo]
        bad[first:] = (ext_nan[hi] - ext_nan[lo]) > 0
    return (totals, bad), (count + k, ext[-window:], ext_nan[-window:])


def rolling_std_resume(values: np.ndarray, window: int, carry=None):
    """Trailing-window standard deviation (population, ddof=0),
    continued from ``carry``; returns ``(std, carry)``.

    The first ``window - 1`` outputs of a series are NaN, and a window
    holding a NaN reads NaN. Closed form over running sums of the
    *centred* series (offset = first value that is not NaN): variance is
    shift-invariant, and centring first suppresses the catastrophic
    cancellation the raw ``E[x²] − E[x]²`` identity suffers on
    large-offset series (a constant series still yields an exact 0).
    Unlike the global mean, the offset depends only on the series head,
    so appending values never changes the outputs of the earlier ones.

    ``carry`` holds the centring offset and the two running sums (see
    :func:`window_sums`), so a series fed in pieces gives the bytes of
    one call over the whole of it. For ``window > 1`` an infinity raises
    ``ValueError`` (see :func:`window_sums`).
    """
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1:
        # A finite value deviates from itself by exactly 0; the running
        # sums would only approximate that.
        return np.where(np.isfinite(values), 0.0, np.nan), carry
    center, sums_carry, squares_carry = carry or (None, None, None)
    if center is None:
        finite = np.flatnonzero(~np.isnan(values))
        if finite.size:
            center = float(values[finite[0]])
    # Until the first value that is not NaN every window is bad, so the
    # offset those positions are centred on never shows.
    centred = values - (0.0 if center is None else center)
    (total, bad), sums_carry = window_sums(centred, window, sums_carry)
    (square_total, _), squares_carry = window_sums(
        centred * centred, window, squares_carry
    )
    mean = total / window
    variance = np.maximum(square_total / window - mean * mean, 0.0)
    out = np.sqrt(variance)
    out[bad] = np.nan
    return out, (center, sums_carry, squares_carry)


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
