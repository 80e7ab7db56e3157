"""Data-quality validation for frames.

The dataset-assembly pipeline joins many independently-generated (or, in
a real deployment, independently-collected) sources; this module gives
it a declarative sanity check: value bounds, missingness limits,
finiteness, and non-negativity per column pattern, collected into a
single report instead of failing at the first issue.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .frame import Frame

__all__ = ["ColumnRule", "ValidationIssue", "ValidationReport",
           "validate_frame"]


@dataclass(frozen=True)
class ColumnRule:
    """Constraints applied to every column matching a glob pattern."""

    pattern: str
    """fnmatch-style pattern, e.g. ``"usdc_*"`` or ``"*_Close"``."""

    min_value: float | None = None
    max_value: float | None = None
    allow_nan: bool = True
    max_nan_fraction: float = 1.0
    require_finite: bool = True

    def matches(self, name: str) -> bool:
        """True when the column name matches this rule's pattern."""
        return fnmatch.fnmatch(name, self.pattern)


@dataclass(frozen=True)
class ValidationIssue:
    """One violated constraint on one column."""

    column: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.column}: {self.rule} ({self.detail})"


@dataclass
class ValidationReport:
    """Everything that failed (empty = frame passed)."""

    issues: list[ValidationIssue] = field(default_factory=list)
    n_columns_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no constraint was violated."""
        return not self.issues

    def raise_if_failed(self):
        """Raise ``ValueError`` summarising all issues (if any)."""
        if self.issues:
            summary = "; ".join(str(issue) for issue in self.issues[:10])
            more = (f" (+{len(self.issues) - 10} more)"
                    if len(self.issues) > 10 else "")
            raise ValueError(
                f"frame validation failed with {len(self.issues)} "
                f"issue(s): {summary}{more}"
            )


def validate_frame(frame: Frame, rules: list[ColumnRule]
                   ) -> ValidationReport:
    """Check every column of ``frame`` against all matching rules.

    Every issue derives from per-column summaries (NaN count, ±inf
    presence, and the count/min/max over non-NaN and over finite
    values), so the report depends only on the frame's values. A frame
    built by :meth:`Frame.append_rows` from a validated frame inherits
    the summary of those rows, and only the appended rows are scanned.
    """
    summary = _summarise(frame)
    plan = _plan(tuple(frame._names), tuple(rules))
    flagged = np.zeros(len(plan.rules_of), dtype=bool)
    for rule, cols in zip(rules, plan.columns):
        flagged[cols] |= _may_fail(summary, rule, cols)
    report = ValidationReport(n_columns_checked=plan.n_checked)
    for j in np.flatnonzero(flagged):
        for rule in plan.rules_of[j]:
            _apply_rule(frame._names[j], summary, j, rule, report)
    return report


@dataclass(frozen=True)
class _Plan:
    """Which rules apply to which columns, for one (names, rules) pair."""

    rules_of: tuple[tuple[ColumnRule, ...], ...]
    """Per column, the rules matching it, in rule order."""
    columns: tuple[np.ndarray, ...]
    """Per rule, the positions of the columns it matches."""
    n_checked: int
    """Columns at least one rule matches."""


@lru_cache(maxsize=16)
def _plan(names: tuple[str, ...], rules: tuple[ColumnRule, ...]) -> _Plan:
    matches = [[rule.matches(name) for rule in rules] for name in names]
    columns = []
    for i in range(len(rules)):
        cols = np.array([j for j, row in enumerate(matches) if row[i]],
                        dtype=np.intp)
        cols.flags.writeable = False  # shared by every cache hit
        columns.append(cols)
    return _Plan(
        rules_of=tuple(
            tuple(rule for rule, hit in zip(rules, row) if hit)
            for row in matches
        ),
        columns=tuple(columns),
        n_checked=sum(any(row) for row in matches),
    )


#: Most bytes of column values one scan step stacks at a time.
_SCAN_BYTES = 1 << 20


@dataclass(frozen=True)
class _Summary:
    """Per-column statistics of a frame's first ``rows`` rows.

    Extremes are NaN where a column has no value of that kind, and a
    zero extreme is stored as ``+0.0``: which signed zero a reduction
    returns depends on the order it visits them, and the summary must
    not depend on how the rows were split into scans.
    """

    rows: int
    nan: np.ndarray
    """NaN count."""
    inf: np.ndarray
    """Whether any ±inf is present."""
    lo: np.ndarray
    """Min over non-NaN values (their count is ``rows - nan``)."""
    hi: np.ndarray
    """Max over non-NaN values."""
    finite: np.ndarray
    """Count of finite values."""
    finite_lo: np.ndarray
    finite_hi: np.ndarray

    def merge(self, tail: "_Summary") -> "_Summary":
        """The summary of these rows followed by ``tail``'s."""
        return _Summary(
            rows=self.rows + tail.rows,
            nan=self.nan + tail.nan,
            inf=self.inf | tail.inf,
            lo=np.fmin(self.lo, tail.lo),
            hi=np.fmax(self.hi, tail.hi),
            finite=self.finite + tail.finite,
            finite_lo=np.fmin(self.finite_lo, tail.finite_lo),
            finite_hi=np.fmax(self.finite_hi, tail.finite_hi),
        )


def _summarise(frame: Frame) -> _Summary:
    """The frame's column summary: its memo extended by a scan of the
    rows after it, memoised on the frame."""
    memo = frame._column_summary
    if memo is not None and memo.rows == frame.n_rows:
        return memo
    start = memo.rows if memo is not None else 0
    columns = [frame._data[name] for name in frame._names]
    tail = _scan(columns, start, frame.n_rows)
    summary = memo.merge(tail) if memo is not None else tail
    frame._column_summary = summary
    return summary


def _scan(columns: list[np.ndarray], start: int, stop: int) -> _Summary:
    """Summarise rows ``start:stop`` of ``columns``, stacking as many
    columns at a time as fit in :data:`_SCAN_BYTES`."""
    n_cols, rows = len(columns), stop - start
    nan = np.zeros(n_cols, dtype=np.int64)
    lo = np.full(n_cols, np.nan)
    hi = np.full(n_cols, np.nan)
    step = max(1, _SCAN_BYTES // max(1, 8 * rows))
    for first in range(0, n_cols if rows else 0, step):
        part = slice(first, first + step)
        block = np.concatenate(
            [col[start:stop] for col in columns[part]]
        ).reshape(-1, rows)
        nan[part] = np.isnan(block).sum(axis=1)
        lo[part] = np.fmin.reduce(block, axis=1)
        hi[part] = np.fmax.reduce(block, axis=1)
    np.add(lo, 0.0, out=lo)
    np.add(hi, 0.0, out=hi)
    inf = (lo == -np.inf) | (hi == np.inf)
    finite = rows - nan
    finite_lo, finite_hi = lo.copy(), hi.copy()
    for j in np.flatnonzero(inf):
        col = columns[j][start:stop]
        values = col[np.isfinite(col)]
        finite[j] = values.size
        if values.size:
            finite_lo[j] = values.min() + 0.0
            finite_hi[j] = values.max() + 0.0
        else:
            finite_lo[j] = finite_hi[j] = np.nan
    return _Summary(rows, nan, inf, lo, hi, finite, finite_lo, finite_hi)


def _may_fail(summary: _Summary, rule: ColumnRule, cols: np.ndarray
              ) -> np.ndarray:
    """Which of ``cols`` ``rule`` may report an issue on: every column
    :func:`_apply_rule` would flag, and perhaps a few more (the min/max
    tests read the non-NaN extremes, which bound the finite ones)."""
    nan = summary.nan[cols]
    fail = nan / max(summary.rows, 1) > rule.max_nan_fraction
    if not rule.allow_nan:
        fail |= nan > 0
    if rule.require_finite:
        fail |= summary.inf[cols]
    if rule.min_value is not None:
        fail |= summary.lo[cols] < rule.min_value
    if rule.max_value is not None:
        fail |= summary.hi[cols] > rule.max_value
    return fail


def _apply_rule(name: str, summary: _Summary, j: int, rule: ColumnRule,
                report: ValidationReport) -> None:
    n_nan = int(summary.nan[j])
    if not rule.allow_nan and n_nan:
        report.issues.append(ValidationIssue(
            name, f"{rule.pattern}:allow_nan", f"{n_nan} NaN values",
        ))
    nan_frac = n_nan / summary.rows if summary.rows else 0.0
    if nan_frac > rule.max_nan_fraction:
        report.issues.append(ValidationIssue(
            name, f"{rule.pattern}:max_nan_fraction",
            f"{nan_frac:.1%} > {rule.max_nan_fraction:.1%}",
        ))
    count, lo, hi = summary.rows - n_nan, summary.lo[j], summary.hi[j]
    if rule.require_finite and count and summary.inf[j]:
        report.issues.append(ValidationIssue(
            name, f"{rule.pattern}:require_finite", "inf values present",
        ))
    if rule.require_finite:
        count = int(summary.finite[j])
        lo, hi = summary.finite_lo[j], summary.finite_hi[j]
    if rule.min_value is not None and count and float(lo) < rule.min_value:
        report.issues.append(ValidationIssue(
            name, f"{rule.pattern}:min_value",
            f"min {lo:.6g} < {rule.min_value:.6g}",
        ))
    if rule.max_value is not None and count and float(hi) > rule.max_value:
        report.issues.append(ValidationIssue(
            name, f"{rule.pattern}:max_value",
            f"max {hi:.6g} > {rule.max_value:.6g}",
        ))
