"""Daily calendar index for columnar frames.

The paper's pipeline operates exclusively on *daily* time series (prices,
on-chain metrics, macro indicators are all collected at daily frequency).
:class:`DateIndex` is a thin, immutable wrapper around an int64 array of
proleptic-Gregorian day ordinals (``datetime.date.toordinal``), giving us

* O(log n) date lookup via binary search,
* position lookups (:meth:`DateIndex.indexer`) for aligning one index
  onto another,
* zero-copy slicing by position and by date range.

Dates are accepted as ISO strings (``"2017-01-01"``), ``datetime.date`` /
``datetime.datetime`` objects, or raw ordinals.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["DateIndex", "as_ordinal", "date_range"]

_DateLike = "str | _dt.date | _dt.datetime | int | np.integer"


def as_ordinal(value) -> int:
    """Convert a date-like value to a proleptic-Gregorian day ordinal.

    Accepts ISO-format strings, ``date``/``datetime`` instances and plain
    integers (already-converted ordinals pass through unchanged).
    """
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, _dt.datetime):
        return value.date().toordinal()
    if isinstance(value, _dt.date):
        return value.toordinal()
    if isinstance(value, str):
        return _dt.date.fromisoformat(value).toordinal()
    raise TypeError(f"cannot interpret {value!r} as a date")


def date_range(start, end=None, periods: int | None = None) -> "DateIndex":
    """Build a contiguous daily :class:`DateIndex`.

    Exactly one of ``end`` (inclusive) or ``periods`` must be given.

    >>> date_range("2017-01-01", periods=3).isoformat()
    ['2017-01-01', '2017-01-02', '2017-01-03']
    """
    start_ord = as_ordinal(start)
    if (end is None) == (periods is None):
        raise ValueError("specify exactly one of `end` or `periods`")
    if end is not None:
        end_ord = as_ordinal(end)
        if end_ord < start_ord:
            raise ValueError("end date precedes start date")
        ordinals = np.arange(start_ord, end_ord + 1, dtype=np.int64)
    else:
        if periods is None or periods < 0:
            raise ValueError("periods must be a non-negative integer")
        ordinals = np.arange(start_ord, start_ord + periods, dtype=np.int64)
    return DateIndex(ordinals, _validated=True)


class DateIndex:
    """Immutable, strictly-increasing index of daily dates.

    Parameters
    ----------
    dates:
        Iterable of date-like values (ISO strings, ``date`` objects, or
        ordinals). Must be strictly increasing after conversion.
    """

    __slots__ = ("_ordinals",)

    def __init__(self, dates: Iterable, *, _validated: bool = False):
        if _validated and isinstance(dates, np.ndarray):
            ordinals = dates
        else:
            ordinals = np.asarray(
                [as_ordinal(d) for d in dates], dtype=np.int64
            )
            if ordinals.size > 1 and not np.all(np.diff(ordinals) > 0):
                raise ValueError("DateIndex dates must be strictly increasing")
        self._ordinals = ordinals
        self._ordinals.flags.writeable = False

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._ordinals.size)

    def __iter__(self):
        for o in self._ordinals:
            yield _dt.date.fromordinal(int(o))

    def __getitem__(self, item):
        if isinstance(item, slice):
            sub = self._ordinals[item]
            if sub.size > 1 and not np.all(np.diff(sub) > 0):
                raise ValueError("slicing must preserve increasing order")
            return DateIndex(sub, _validated=True)
        if isinstance(item, (np.ndarray, list)):
            sub = self._ordinals[np.asarray(item)]
            return DateIndex(np.sort(sub), _validated=True)
        return _dt.date.fromordinal(int(self._ordinals[int(item)]))

    def __contains__(self, value) -> bool:
        try:
            ordinal = as_ordinal(value)
        except (TypeError, ValueError):
            return False
        pos = int(np.searchsorted(self._ordinals, ordinal))
        return pos < len(self) and int(self._ordinals[pos]) == ordinal

    def __eq__(self, other) -> bool:
        if not isinstance(other, DateIndex):
            return NotImplemented
        return bool(np.array_equal(self._ordinals, other._ordinals))

    def __hash__(self):
        return hash(self._ordinals.tobytes())

    def __repr__(self) -> str:
        if len(self) == 0:
            return "DateIndex([])"
        return (
            f"DateIndex({self[0].isoformat()}..{self[-1].isoformat()},"
            f" n={len(self)})"
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def ordinals(self) -> np.ndarray:
        """The underlying read-only int64 ordinal array."""
        return self._ordinals

    def isoformat(self) -> list[str]:
        """All dates as ISO-format strings."""
        return [d.isoformat() for d in self]

    @property
    def is_contiguous(self) -> bool:
        """True when the index covers every calendar day in its span."""
        if len(self) <= 1:
            return True
        return bool(np.all(np.diff(self._ordinals) == 1))

    # ------------------------------------------------------------------
    # Lookup / alignment
    # ------------------------------------------------------------------
    def position(self, date) -> int:
        """Return the integer position of ``date``; raise ``KeyError`` if absent."""
        ordinal = as_ordinal(date)
        pos = int(np.searchsorted(self._ordinals, ordinal))
        if pos >= len(self) or int(self._ordinals[pos]) != ordinal:
            raise KeyError(f"date {date!r} not in index")
        return pos

    def slice_positions(self, start=None, end=None) -> slice:
        """Positional slice covering dates in ``[start, end]`` (inclusive)."""
        lo = 0 if start is None else int(
            np.searchsorted(self._ordinals, as_ordinal(start), side="left")
        )
        hi = len(self) if end is None else int(
            np.searchsorted(self._ordinals, as_ordinal(end), side="right")
        )
        return slice(lo, hi)

    def indexer(self, other: "DateIndex") -> np.ndarray:
        """Positions of ``other``'s dates within self; -1 where missing."""
        pos = np.searchsorted(self._ordinals, other._ordinals)
        pos_clipped = np.clip(pos, 0, max(len(self) - 1, 0))
        if len(self) == 0:
            return np.full(len(other), -1, dtype=np.int64)
        found = self._ordinals[pos_clipped] == other._ordinals
        out = np.where(found, pos_clipped, -1).astype(np.int64)
        return out

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_ordinals(cls, ordinals: Sequence[int]) -> "DateIndex":
        """Build from increasing day ordinals."""
        arr = np.asarray(ordinals, dtype=np.int64)
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("ordinals must be strictly increasing")
        return cls(arr, _validated=True)

    def shift(self, days: int) -> "DateIndex":
        """Return a new index with every date moved by ``days``."""
        return DateIndex(self._ordinals + int(days), _validated=True)
