"""Property tests: ``validate_frame``'s report does not depend on how a
frame was built.

A frame grown by :meth:`Frame.append_rows` from a validated frame
inherits the column summary of its prefix, and validation scans only
the appended rows. Whatever the split into appends, and whether or not
a prefix was validated in between, the report must equal the report on
a freshly built copy of the same values.
"""

import fnmatch
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frame.validation as validation
from repro.cache import dump_artifact, load_artifact
from repro.frame import (
    ColumnRule,
    Frame,
    ValidationIssue,
    ValidationReport,
    date_range,
    validate_frame,
)

NAN, INF = float("nan"), float("inf")

COLUMNS = ("BTC_Close", "ETH_Close", "usdc_SplyCur", "fear_greed_index")

values = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1.0]),
)


@st.composite
def column(draw, n_rows):
    """``n_rows`` values laid out as runs, so NaN and inf come in
    stretches as well as singly."""
    out = []
    while len(out) < n_rows:
        out.extend([draw(values)] * draw(st.integers(1, 6)))
    return out[:n_rows]


@st.composite
def frames(draw):
    n_rows = draw(st.integers(0, 40))
    return Frame(date_range("2021-01-01", periods=n_rows),
                 {name: draw(column(n_rows)) for name in COLUMNS})


rule = st.builds(
    ColumnRule,
    pattern=st.sampled_from(["*", "*_Close", "usdc_*", "BTC_Close"]),
    min_value=st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.5])),
    max_value=st.one_of(st.none(), st.sampled_from([0.0, 1.0, 4.0])),
    allow_nan=st.booleans(),
    max_nan_fraction=st.sampled_from([0.0, 0.25, 0.98, 1.0]),
    require_finite=st.booleans(),
)

#: The pipeline's pre-flight rules, and rule lists hypothesis draws.
rule_lists = st.one_of(
    st.just([ColumnRule("*", max_nan_fraction=0.98, require_finite=True),
             ColumnRule("*_Close", min_value=0.0)]),
    st.lists(rule, max_size=4),
)


def _fresh(frame):
    return Frame(frame.index, frame.to_dict())


def _cuts(draw, n_rows):
    """Sorted cut points ``0 = c0 <= ... <= ck = n_rows``; equal
    neighbours make empty appends."""
    inner = draw(st.lists(st.integers(0, n_rows), max_size=5))
    return [0, *sorted(inner), n_rows]


def _loop_validate(frame, rules):
    """Reference: one pass per (column, rule) over the column's values,
    the implementation the summaries replaced."""
    report = ValidationReport()
    for name in frame.columns:
        col = frame[name]
        matched = [r for r in rules if fnmatch.fnmatch(name, r.pattern)]
        for rule in matched:
            _loop_apply(name, col, rule, report)
        report.n_columns_checked += bool(matched)
    return report


def _loop_apply(name, col, rule, report):
    def issue(check, detail):
        report.issues.append(
            ValidationIssue(name, f"{rule.pattern}:{check}", detail))

    nan_mask = np.isnan(col)
    valid = col[~nan_mask]
    if not rule.allow_nan and nan_mask.any():
        issue("allow_nan", f"{int(nan_mask.sum())} NaN values")
    nan_frac = float(nan_mask.mean()) if col.size else 0.0
    if nan_frac > rule.max_nan_fraction:
        issue("max_nan_fraction",
              f"{nan_frac:.1%} > {rule.max_nan_fraction:.1%}")
    if rule.require_finite and valid.size and not np.isfinite(valid).all():
        issue("require_finite", "inf values present")
        valid = valid[np.isfinite(valid)]
    # A zero extreme prints unsigned: which signed zero ``min``/``max``
    # return depends on the order they visit them.
    if rule.min_value is not None and valid.size \
            and float(valid.min()) < rule.min_value:
        issue("min_value", f"min {valid.min() + 0.0:.6g} < "
                           f"{rule.min_value:.6g}")
    if rule.max_value is not None and valid.size \
            and float(valid.max()) > rule.max_value:
        issue("max_value", f"max {valid.max() + 0.0:.6g} > "
                           f"{rule.max_value:.6g}")


class TestMatchesPerColumnLoop:
    @settings(max_examples=300, deadline=None)
    @given(frame=frames(), rules=rule_lists)
    def test_same_report(self, frame, rules):
        assert validate_frame(frame, rules) == _loop_validate(frame, rules)


class TestAppendedEqualsFresh:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), full=frames(), rules=rule_lists)
    def test_chained_appends(self, data, full, rules):
        cuts = _cuts(data.draw, full.n_rows)
        validate_each = data.draw(
            st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
        grown = full.iloc(slice(0, 0))
        for (lo, hi), check in zip(zip(cuts, cuts[1:]), validate_each):
            grown = grown.append_rows(full.iloc(slice(lo, hi)))
            if check:
                assert (validate_frame(grown, rules)
                        == validate_frame(_fresh(grown), rules))
        assert grown == full
        assert (validate_frame(grown, rules)
                == validate_frame(_fresh(full), rules))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), parent=frames(), rules=rule_lists)
    def test_two_tails_on_one_validated_parent(self, data, parent, rules):
        validate_frame(parent, rules)
        start = 2021 + len(parent) // 365 + 1
        tails = [Frame(date_range(f"{start}-01-01", periods=n),
                       {name: data.draw(column(n)) for name in COLUMNS})
                 for n in data.draw(st.lists(st.integers(0, 10),
                                             min_size=2, max_size=2))]
        branches = [parent.append_rows(tail) for tail in tails]
        for branch in branches:
            assert (validate_frame(branch, rules)
                    == validate_frame(_fresh(branch), rules))
        assert (validate_frame(parent, rules)
                == validate_frame(_fresh(parent), rules))


class TestScanReuse:
    @pytest.fixture
    def scanned(self, monkeypatch):
        rows = []
        real = validation._scan

        def spy(columns, start, stop):
            rows.append(stop - start)
            return real(columns, start, stop)

        monkeypatch.setattr(validation, "_scan", spy)
        return rows

    def test_only_appended_rows_are_scanned(self, scanned):
        full = Frame(date_range("2021-01-01", periods=10),
                     {"a_Close": [1.0, NAN, -2.0, INF, 3.0, 0.0, NAN,
                                  4.0, 5.0, -INF]})
        rules = [ColumnRule("*", max_nan_fraction=0.1),
                 ColumnRule("*_Close", min_value=0.0)]
        parent = full.iloc(slice(0, 6))
        validate_frame(parent, rules)
        grown = parent.append_rows(full.iloc(slice(6, 9))).append_rows(
            full.iloc(slice(9, 10)))
        report = validate_frame(grown, rules)
        validate_frame(grown, rules)
        assert scanned == [6, 4]
        assert report == validate_frame(_fresh(grown), rules)
        assert [issue.rule for issue in report.issues] == [
            "*:max_nan_fraction", "*:require_finite",
            "*_Close:require_finite", "*_Close:min_value"]

    def test_detail_strings(self):
        frame = Frame(date_range("2021-01-01", periods=3),
                      {"x": [NAN, -INF, -0.5]})
        report = validate_frame(frame, [
            ColumnRule("x", allow_nan=False, max_nan_fraction=0.25,
                       min_value=0.0),
            ColumnRule("x", min_value=0.0, require_finite=False),
        ])
        assert [str(issue) for issue in report.issues] == [
            "x: x:allow_nan (1 NaN values)",
            "x: x:max_nan_fraction (33.3% > 25.0%)",
            "x: x:require_finite (inf values present)",
            "x: x:min_value (min -0.5 < 0)",
            "x: x:min_value (min -inf < 0)",
        ]

    def test_memo_is_never_serialised(self):
        frame = Frame(date_range("2021-01-01", periods=3),
                      {"x": [1.0, 2.0, 3.0]})
        cold = pickle.dumps(frame)
        validate_frame(frame, [ColumnRule("*")])
        assert frame._column_summary is not None
        assert pickle.dumps(frame) == cold
        assert pickle.loads(cold)._column_summary is None
        assert dump_artifact(frame) == dump_artifact(_fresh(frame))
        assert load_artifact(dump_artifact(frame))._column_summary is None
