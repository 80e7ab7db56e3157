"""A lightweight columnar data frame over a :class:`~repro.frame.index.DateIndex`.

``Frame`` is the substrate replacing pandas in this reproduction. It stores
named float64 columns of equal length aligned to a shared daily date index,
and supports exactly the operations the paper's pipeline needs:

* column selection / addition / removal / renaming,
* positional and date-range row slicing,
* reindexing onto another date index (introducing NaNs where data is
  missing — how late-starting series such as USDC metrics are aligned),
* conversion to a dense ``(n_rows, n_cols)`` matrix for model training,
* elementwise arithmetic between columns and scalars.

All mutating operations return **new** frames; column arrays are copied on
construction and exposed read-only, so frames behave as immutable values
(and frames built from other frames, such as ``concat_columns``'s result,
may share those read-only arrays).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .index import DateIndex

__all__ = ["Frame"]


def _rebuild_frame(index, names, data) -> "Frame":
    """Reconstruct a frame from sanitised parts (no derived caches, no
    shared-memory references) — the unpickle hook used by the artifact
    codec so on-disk entries never name a ``/dev/shm`` segment."""
    for arr in data.values():
        arr.flags.writeable = False
    return Frame.__new__(Frame)._adopt(index, list(names), data)


class Frame:
    """Immutable columnar table of float64 series sharing a ``DateIndex``.

    Parameters
    ----------
    index:
        The shared daily date index.
    columns:
        Mapping of column name to 1-D array-like of the same length as
        ``index``. Values are converted to float64; ``None`` entries become
        NaN.
    """

    __slots__ = ("_index", "_names", "_data", "_matrix", "_row_digests",
                 "_column_summary")

    def __init__(self, index: DateIndex, columns: Mapping[str, Iterable]):
        if not isinstance(index, DateIndex):
            raise TypeError("index must be a DateIndex")
        names: list[str] = []
        data: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            arr = np.asarray(values, dtype=np.float64).copy()
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if arr.size != len(index):
                raise ValueError(
                    f"column {name!r} has length {arr.size}, "
                    f"index has length {len(index)}"
                )
            arr.flags.writeable = False
            if name in data:
                raise ValueError(f"duplicate column name {name!r}")
            names.append(str(name))
            data[str(name)] = arr
        self._adopt(index, names, data)

    def _adopt(self, index, names, data, matrix=None, row_digests=None,
               column_summary=None) -> "Frame":
        """Set every slot from parts taken as they are; returns self.

        ``data`` maps each of ``names``, in order, to a read-only 1-D
        float64 array as long as ``index``: nothing is copied or checked,
        so frames can share columns. The derived caches start empty
        unless given.
        """
        self._index = index
        self._names = names
        self._data = data
        # The dense matrix, memoised by :meth:`to_matrix`.
        self._matrix = matrix
        # Positional row slice ``(lo, hi)`` -> digest of those rows,
        # written and read only by :func:`repro.cache.keys.range_digest`.
        self._row_digests = {} if row_digests is None else row_digests
        # Per-column statistics of the first rows, written and read only
        # by :func:`repro.frame.validation.validate_frame`.
        self._column_summary = column_summary
        return self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls, index: DateIndex, matrix: np.ndarray, names: Sequence[str]
    ) -> "Frame":
        """Build a frame from a dense ``(n_rows, n_cols)`` matrix.

        Copies the input exactly once (column-major), so every column is
        a contiguous read-only view into the copy — the constructor's
        per-column slice-then-copy double pass is bypassed. The copy
        also seeds the :meth:`to_matrix` cache.
        """
        if not isinstance(index, DateIndex):
            raise TypeError("index must be a DateIndex")
        matrix = np.array(matrix, dtype=np.float64, order="F", copy=True)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if matrix.shape[1] != len(names):
            raise ValueError("matrix width does not match number of names")
        if matrix.shape[0] != len(index):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, "
                f"index has length {len(index)}"
            )
        matrix.flags.writeable = False
        data: dict[str, np.ndarray] = {}
        for j, name in enumerate(names):
            if name in data:
                raise ValueError(f"duplicate column name {name!r}")
            data[str(name)] = matrix[:, j]
        return cls.__new__(cls)._adopt(index, list(data), data, matrix)

    @classmethod
    def empty(cls, index: DateIndex) -> "Frame":
        """A frame with the given index and no columns."""
        return cls(index, {})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def index(self) -> DateIndex:
        """The shared daily date index."""
        return self._index

    @property
    def columns(self) -> list[str]:
        """Column names, in insertion order."""
        return list(self._names)

    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_cols)."""
        return (len(self._index), len(self._names))

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return len(self._index)

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return len(self._names)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __repr__(self) -> str:
        return f"Frame(n_rows={self.n_rows}, n_cols={self.n_cols})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        if self._index != other._index or self._names != other._names:
            return False
        return all(
            np.array_equal(self._data[n], other._data[n], equal_nan=True)
            for n in self._names
        )

    __hash__ = None  # frames hold arrays; equality is deep

    def __getstate__(self):
        # The memoised dense matrix, row-range digests and column
        # summary are derived state: drop them from pickles so cached
        # frames don't double in size and cache entries don't depend on
        # what was hashed or validated before (all rebuild lazily after
        # load).
        return {"_index": self._index, "_names": self._names,
                "_data": self._data}

    def __setstate__(self, state):
        self._adopt(state["_index"], state["_names"], state["_data"])

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        """Return the (read-only) array of a single column."""
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    def get(self, name: str, default=None):
        """Column array by name, or ``default`` when absent."""
        return self._data.get(name, default)

    def select(self, names: Sequence[str]) -> "Frame":
        """Return a new frame with only the given columns, in that order."""
        missing = [n for n in names if n not in self._data]
        if missing:
            raise KeyError(f"columns not found: {missing}")
        return Frame(self._index, {n: self._data[n] for n in names})

    def drop(self, names: Sequence[str]) -> "Frame":
        """Return a new frame without the given columns (missing names error)."""
        to_drop = set(names)
        missing = to_drop - set(self._names)
        if missing:
            raise KeyError(f"columns not found: {sorted(missing)}")
        kept = [n for n in self._names if n not in to_drop]
        return Frame(self._index, {n: self._data[n] for n in kept})

    def rename(self, mapping: Mapping[str, str]) -> "Frame":
        """Return a frame with columns renamed via ``mapping``."""
        missing = [n for n in mapping if n not in self._data]
        if missing:
            raise KeyError(f"columns not found: {missing}")
        new_names = [mapping.get(n, n) for n in self._names]
        if len(set(new_names)) != len(new_names):
            raise ValueError("rename would create duplicate column names")
        return Frame(
            self._index,
            {new: self._data[old] for old, new in zip(self._names, new_names)},
        )

    def with_column(self, name: str, values: Iterable) -> "Frame":
        """Return a frame with ``name`` added (or replaced)."""
        cols = {n: self._data[n] for n in self._names}
        cols[name] = np.asarray(values, dtype=np.float64)
        return Frame(self._index, cols)

    def with_prefix(self, prefix: str) -> "Frame":
        """Return a frame with every column name prefixed."""
        return Frame(
            self._index, {prefix + n: self._data[n] for n in self._names}
        )

    # ------------------------------------------------------------------
    # Row slicing
    # ------------------------------------------------------------------
    def iloc(self, item) -> "Frame":
        """Positional row slicing (slice or integer/boolean array)."""
        if isinstance(item, slice):
            new_index = self._index[item]
            return Frame(
                new_index, {n: self._data[n][item] for n in self._names}
            )
        sel = np.asarray(item)
        if sel.dtype == bool:
            sel = np.flatnonzero(sel)
        new_index = DateIndex(
            self._index.ordinals[sel], _validated=True
        )
        return Frame(new_index, {n: self._data[n][sel] for n in self._names})

    def loc_range(self, start=None, end=None) -> "Frame":
        """Rows with dates in the inclusive range ``[start, end]``."""
        return self.iloc(self._index.slice_positions(start, end))

    def head(self, n: int = 5) -> "Frame":
        """The first ``n`` rows as a new frame."""
        return self.iloc(slice(0, n))

    def tail(self, n: int = 5) -> "Frame":
        """The last ``n`` rows as a new frame."""
        return self.iloc(slice(max(len(self) - n, 0), len(self)))

    def append_rows(self, other: "Frame") -> "Frame":
        """Return a frame with ``other``'s rows appended below this one.

        ``other`` must have exactly this frame's columns (same order)
        and an index starting strictly after this frame's last date.
        Each column is concatenated with a single allocation — the
        constructor's convert-then-copy pass is bypassed — which is
        what the incremental update path (:mod:`repro.incremental`)
        relies on for cheap row growth.

        The result's rows ``0..n-1`` are this frame's bytes, index and
        column order, so it inherits this frame's memoised row-range
        digests (a range that ends before the new rows is not hashed
        again, and one they enter resolves to a new slice) and its
        column summary (validation scans only the new rows).
        """
        if not isinstance(other, Frame):
            raise TypeError("append_rows expects a Frame")
        if other._names != self._names:
            raise ValueError("column names/order differ")
        if len(other) == 0:
            return self
        if len(self) and (
            other._index.ordinals[0] <= self._index.ordinals[-1]
        ):
            raise ValueError(
                "appended rows must start after the frame's last date"
            )
        index = DateIndex(
            np.concatenate((self._index.ordinals, other._index.ordinals)),
            _validated=True,
        )
        data: dict[str, np.ndarray] = {}
        for name in self._names:
            arr = np.concatenate((self._data[name], other._data[name]))
            arr.flags.writeable = False
            data[name] = arr
        return Frame.__new__(Frame)._adopt(
            index, list(self._names), data,
            row_digests=dict(self._row_digests),
            column_summary=self._column_summary,
        )

    # ------------------------------------------------------------------
    # Alignment
    # ------------------------------------------------------------------
    def reindex(self, new_index: DateIndex) -> "Frame":
        """Align onto ``new_index``; dates absent from self become NaN rows."""
        pos = self._index.indexer(new_index)
        found = pos >= 0
        cols = {}
        for n in self._names:
            out = np.full(len(new_index), np.nan)
            out[found] = self._data[n][pos[found]]
            cols[n] = out
        return Frame(new_index, cols)

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Dense float64 matrix ``(n_rows, n_cols)`` in column order.

        Full-frame calls (``names=None`` or the frame's own column
        order) materialise the matrix once and return the same
        *read-only* array on every subsequent call — the model-training
        and cache-keying hot paths convert the same frame repeatedly.
        Callers that need to write into the result should copy it.
        Subset or reordered calls build a fresh writable matrix.
        """
        use = list(names) if names is not None else self._names
        if not use:
            return np.empty((self.n_rows, 0))
        if use == self._names:
            # getattr: frames unpickled from before the cache slot
            # existed arrive without it.
            cached = getattr(self, "_matrix", None)
            if cached is None:
                cached = np.column_stack([self._data[n] for n in use])
                cached.flags.writeable = False
            self._matrix = cached
            return cached
        return np.column_stack([self[n] for n in use])

    def to_dict(self) -> dict[str, np.ndarray]:
        """Shallow mapping of column name to (read-only) array."""
        return {n: self._data[n] for n in self._names}

    # ------------------------------------------------------------------
    # Elementwise helpers
    # ------------------------------------------------------------------
    def map_columns(self, func) -> "Frame":
        """Apply ``func(array) -> array`` to every column."""
        return Frame(
            self._index,
            {n: np.asarray(func(self._data[n]), dtype=np.float64)
             for n in self._names},
        )

    def nan_fraction(self) -> dict[str, float]:
        """Per-column fraction of NaN entries."""
        n = max(self.n_rows, 1)
        return {
            name: float(np.isnan(self._data[name]).sum()) / n
            for name in self._names
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-column mean/std/min/max ignoring NaNs (NaN when all-NaN)."""
        out = {}
        for name in self._names:
            col = self._data[name]
            valid = col[~np.isnan(col)]
            if valid.size == 0:
                stats = {k: float("nan") for k in ("mean", "std", "min", "max")}
            else:
                stats = {
                    "mean": float(valid.mean()),
                    "std": float(valid.std()),
                    "min": float(valid.min()),
                    "max": float(valid.max()),
                }
            out[name] = stats
        return out
