"""Columnar daily-time-series substrate (the reproduction's pandas stand-in).

Public surface:

* :class:`DateIndex`, :func:`date_range` — daily calendar indices.
* :class:`Frame` — immutable named float64 columns over a ``DateIndex``.
* column, lag and rolling-window ops in :mod:`repro.frame.ops`.
* missing-data primitives in :mod:`repro.frame.missing`.
* CSV round-trip in :mod:`repro.frame.io`.
"""

from .frame import Frame
from .index import DateIndex, as_ordinal, date_range
from .io import read_csv, write_csv
from .missing import (
    backward_fill,
    fill_frame,
    forward_fill,
    interpolate_linear,
    leading_nan_count,
    longest_flat_run,
    longest_nan_run,
)
from .transform import diff, zscore
from .validation import (
    ColumnRule,
    ValidationIssue,
    ValidationReport,
    validate_frame,
)
from .ops import (
    concat_columns,
    pct_change,
    rolling_apply,
    rolling_max,
    rolling_min,
    shift,
)

__all__ = [
    "ColumnRule",
    "DateIndex",
    "Frame",
    "ValidationIssue",
    "ValidationReport",
    "as_ordinal",
    "backward_fill",
    "concat_columns",
    "date_range",
    "diff",
    "fill_frame",
    "forward_fill",
    "interpolate_linear",
    "leading_nan_count",
    "longest_flat_run",
    "longest_nan_run",
    "pct_change",
    "read_csv",
    "rolling_apply",
    "rolling_max",
    "rolling_min",
    "shift",
    "validate_frame",
    "write_csv",
    "zscore",
]
