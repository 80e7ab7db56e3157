"""Bit-identity of the rank-keyed exact splitter against a float oracle.

The exact kernel sorts per-fit integer ranks (``rank_features``) at
every node instead of the float values. The oracle below is the plain
algorithm it replaces: a recursive depth-first grower that runs a
float64 stable ``argsort`` at every node and draws per-node feature
subsets from the RNG in the same order as the kernel. Every fitted
``TreeStructure`` array must equal the oracle's bit for bit.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
    TreeStructure,
)
from repro.ml.tree import _BLOCK_CELLS, rank_features
from repro.parallel import spawn_seeds

_FIELDS = ("children_left", "children_right", "feature", "threshold",
           "value", "n_node_samples", "impurity")


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def _k_features(max_features, n_features):
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    return min(max_features, n_features)


def _float_best_split(X, y, idx, feats, lam, msl):
    """Float-sort split search: stable argsort of the values per node."""
    n = idx.size
    Xs = X[np.ix_(idx, feats)].T                   # (f, n)
    order = np.argsort(Xs, axis=1, kind="stable")
    sorted_x = np.take_along_axis(Xs, order, axis=1)
    cum = np.cumsum(y[idx][order], axis=1)
    total = cum[:, -1]
    counts_left = np.arange(1, n, dtype=np.float64)[None, :]
    counts_right = n - counts_left
    sum_left = cum[:, :-1]
    sum_right = total[:, None] - sum_left
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (sum_left**2 / (counts_left + lam)
                + sum_right**2 / (counts_right + lam)
                - total[:, None] ** 2 / (n + lam))
    valid = sorted_x[:, :-1] < sorted_x[:, 1:]
    if msl > 1:
        pos = np.arange(1, n)[None, :]
        valid &= (pos >= msl) & ((n - pos) >= msl)
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    # Ties break in (position, feature) order.
    row, col = np.unravel_index(int(np.argmax(gain.T)), (n - 1, len(feats)))
    best_gain = gain[col, row]
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    lo, hi = float(sorted_x[col, row]), float(sorted_x[col, row + 1])
    thr = 0.5 * (lo + hi)
    if not thr < hi:            # rounded onto hi, or NaN (-inf, +inf)
        thr = lo
    return float(best_gain), int(feats[col]), float(thr), Xs[col] <= thr


def oracle_tree(X, y, max_depth=None, min_samples_split=2,
                min_samples_leaf=1, max_features=None,
                min_impurity_decrease=0.0, reg_lambda=0.0,
                random_state=None) -> TreeStructure:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_samples, n_features = X.shape
    rng = np.random.default_rng(random_state)
    k = _k_features(max_features, n_features)
    lam = float(reg_lambda)
    out = {name: [] for name in _FIELDS}

    def new_node(idx):
        y_node = y[idx]
        total = float(y_node.sum())
        n = idx.size
        for name, v in zip(_FIELDS, (-1, -1, -1, np.nan, total / (n + lam),
                                     n, float(np.mean((y_node - total / n)
                                                      ** 2)))):
            out[name].append(v)
        return len(out["value"]) - 1

    def grow(node, idx, depth):
        n = idx.size
        if (n < min_samples_split or n < 2 * min_samples_leaf
                or (max_depth is not None and depth >= max_depth)
                or out["impurity"][node] == 0.0):
            return
        feats = (rng.choice(n_features, size=k, replace=False)
                 if k < n_features else np.arange(n_features))
        best = _float_best_split(X, y, idx, feats, lam, min_samples_leaf)
        if best is None:
            return
        gain, feat, thr, left_mask = best
        if gain / n_samples < min_impurity_decrease:
            return
        left = new_node(idx[left_mask])
        right = new_node(idx[~left_mask])
        out["children_left"][node] = left
        out["children_right"][node] = right
        out["feature"][node] = feat
        out["threshold"][node] = thr
        # Both children exist before either grows; the right subtree
        # grows first, so RNG draws follow the kernel's stack order.
        grow(right, idx[~left_mask], depth + 1)
        grow(left, idx[left_mask], depth + 1)

    root_idx = np.arange(n_samples)
    grow(new_node(root_idx), root_idx, 0)
    dtypes = (np.int64, np.int64, np.int64, np.float64, np.float64,
              np.int64, np.float64)
    return TreeStructure(**{name: np.asarray(out[name], dtype=dt)
                            for name, dt in zip(_FIELDS, dtypes)})


def oracle_forest(X, y, n_estimators, random_state, **tree_params):
    trees = []
    for seed in spawn_seeds(random_state, n_estimators):
        rng = np.random.default_rng(seed)
        state = int(rng.integers(0, 2**32 - 1))
        sample = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(oracle_tree(X[sample], y[sample], random_state=state,
                                 **tree_params))
    return trees


def oracle_boosting(X, y, n_estimators, learning_rate, subsample,
                    random_state, **tree_params):
    rng = np.random.default_rng(random_state)
    n = X.shape[0]
    current = np.full(n, float(y.mean()))
    size = max(1, int(round(subsample * n)))
    trees = []
    for _ in range(n_estimators):
        residual = y - current
        state = rng.integers(0, 2**32 - 1)
        if size < n:
            rows = rng.choice(n, size=size, replace=False)
            tree = oracle_tree(X[rows], residual[rows], random_state=state,
                               **tree_params)
        else:
            tree = oracle_tree(X, residual, random_state=state,
                               **tree_params)
        current += learning_rate * tree.predict(X)
        trees.append(tree)
    return trees


def assert_bit_identical(got: TreeStructure, want: TreeStructure):
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
_SPECIALS = np.array([-np.inf, -0.0, 0.0, np.inf])


@st.composite
def awkward_problem(draw, max_n=60, max_f=5):
    """Small regressions full of ties, duplicates and special values."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=2, max_value=max_n))
    f = draw(st.integers(min_value=1, max_value=max_f))
    kinds = draw(st.lists(
        st.sampled_from(["normal", "ties", "constant", "specials"]),
        min_size=f, max_size=f))
    duplicate_rows = draw(st.booleans())
    rng = np.random.default_rng(seed)
    X = np.empty((n, f))
    for j, kind in enumerate(kinds):
        if kind == "normal":
            X[:, j] = rng.normal(size=n)
        elif kind == "ties":
            X[:, j] = rng.integers(-2, 3, size=n) * 0.5
        elif kind == "constant":
            X[:, j] = rng.normal()
        else:
            pool = np.concatenate([_SPECIALS, rng.normal(size=3)])
            X[:, j] = rng.choice(pool, size=n)
    y = rng.normal(size=n) + X[:, 0].clip(-3.0, 3.0)
    if duplicate_rows and n >= 4:
        half = n // 2
        X[half:2 * half] = X[:half]
        y[half:2 * half] = y[:half] + 0.25 * rng.normal(size=half)
    return X, y


@st.composite
def wide_problem(draw):
    """Nodes wider than one split-search block, with cross-block ties.

    At the root, block ``j`` holds the features from ``j * step`` up to
    ``(j + 1) * step``, with ``step = _BLOCK_CELLS // n``. Column
    ``step`` copies column ``step - 1``, so equal gains straddle the
    first boundary at equal positions and the earlier feature must win.
    Column ``step + 1`` negates column ``step - 2``: with an integer
    target every prefix sum is exact and ``a + b == b + a``, so a split
    after position ``p`` of one and after ``n - 2 - p`` of the other
    have bit-equal gains, and the lower position must win. Optionally
    one target value is infinite, which makes every gain NaN.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=500, max_value=700))
    step = _BLOCK_CELLS // n
    f = draw(st.integers(min_value=max(40, step + 2),
                         max_value=2 * step + 8))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    X[:, ::3] = rng.integers(-3, 4, size=(n, X[:, ::3].shape[1]))
    X[:, step] = X[:, step - 1]
    X[:, step + 1] = -X[:, step - 2]
    if f > 2 * step:
        X[:, 2 * step] = X[:, step - 1]
    y = np.round(2.0 * X[:, step - 1] + X[:, step - 2]
                 + rng.normal(size=n))
    if draw(st.booleans()):
        y[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([-np.inf, np.inf]))
    return X, y


tree_params = st.fixed_dictionaries({
    "min_samples_leaf": st.sampled_from([1, 2, 5]),
    "reg_lambda": st.sampled_from([0.0, 1.0]),
    "max_features": st.sampled_from([None, "sqrt", 3]),
    "max_depth": st.sampled_from([None, 3]),
    "random_state": st.integers(min_value=0, max_value=2**31 - 1),
})


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestTreeMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(awkward_problem(), tree_params)
    def test_single_tree(self, problem, params):
        X, y = problem
        got = DecisionTreeRegressor(**params).fit(X, y).tree_
        assert_bit_identical(got, oracle_tree(X, y, **params))

    @settings(max_examples=12, deadline=None)
    @given(wide_problem(), st.fixed_dictionaries({
        "min_samples_leaf": st.sampled_from([1, 3, 7]),
        "reg_lambda": st.sampled_from([0.0, 1.0]),
        "max_depth": st.sampled_from([None, 4]),
    }))
    def test_nodes_span_several_blocks(self, problem, params):
        X, y = problem
        with np.errstate(invalid="ignore"):
            got = DecisionTreeRegressor(max_features=None,
                                        **params).fit(X, y)
            assert_bit_identical(got.tree_, oracle_tree(X, y, **params))
        if not np.isfinite(y).all():
            # inf - inf in the prefix sums: every gain is NaN.
            assert got.tree_.node_count == 1

    def test_overflowing_gain_in_a_later_block_means_no_split(self):
        # Every feature of the first block orders the +-1e154 targets
        # alternately, so their gains stay finite; the last feature
        # puts two +1e154 side by side and its gains overflow to +inf.
        # One argmax over the node would stop on that +inf, so the
        # finite winner of the first block must not split either.
        n = 400
        step = _BLOCK_CELLS // n
        y = np.where(np.arange(n) % 2 == 0, 1e154, -1e154)
        X = np.tile(np.arange(n, dtype=np.float64)[:, None], (1, step + 1))
        X[:, step] = np.argsort(np.argsort(-y, kind="stable"))
        with np.errstate(over="ignore", invalid="ignore"):
            tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
            assert tree.tree_.node_count == 1
            assert_bit_identical(tree.tree_,
                                 oracle_tree(X, y, max_depth=1))
            # Without the overflowing feature the first block splits.
            assert DecisionTreeRegressor(max_depth=1).fit(
                X[:, :step], y).tree_.node_count == 3

    @settings(max_examples=40, deadline=None)
    @given(awkward_problem(max_n=40, max_f=4), tree_params)
    def test_forest_shared_ranks(self, problem, params):
        X, y = problem
        seed = params.pop("random_state")
        params.pop("reg_lambda")  # forests grow plain CART trees
        rf = RandomForestRegressor(n_estimators=3, random_state=seed,
                                   **params).fit(X, y)
        want = oracle_forest(X, y, 3, seed, **params)
        for tree, oracle in zip(rf.estimators_, want, strict=True):
            assert_bit_identical(tree.tree_, oracle)

    @settings(max_examples=40, deadline=None)
    @given(awkward_problem(max_n=40, max_f=4), tree_params)
    def test_boosting_subsampled_shared_ranks(self, problem, params):
        X, y = problem
        seed = params.pop("random_state")
        gb = GradientBoostingRegressor(
            n_estimators=4, learning_rate=0.3, subsample=0.8,
            random_state=seed, **params).fit(X, y)
        want = oracle_boosting(X, y, 4, 0.3, 0.8, seed, **params)
        for tree, oracle in zip(gb.estimators_, want, strict=True):
            assert_bit_identical(tree.tree_, oracle)

    def test_infinite_extremes_split_cleanly(self):
        # Only -inf and +inf at the root: the midpoint is NaN, so the
        # threshold falls back to the lower value.
        X = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.tree_.threshold[0] == -np.inf
        assert tree.tree_.n_node_samples.tolist() == [4, 2, 2]
        assert_bit_identical(tree.tree_, oracle_tree(X, y))
        assert tree.predict(X).tolist() == y.tolist()


# Node-array digests recorded with the float-sort exact kernel the rank
# kernel replaced; the rank kernel must reproduce them unchanged.
_RF_SHA256 = "dde71ac1c6d99a7cb449ffb9d9e3e173ea10bbe77fc3cae909b812ecc3ae876f"
_GB_SHA256 = "4bb90820d5e00a6909e0afe44824b1020c2f387d6275d2d793e51ec90ff00aff"


def _pinned_data():
    rng = np.random.default_rng(20240701)
    X = rng.normal(size=(300, 8))
    X[:, 0] = np.round(X[:, 0], 1)          # heavy ties
    X[:, 1] = rng.integers(0, 4, size=300)  # four levels
    X[:, 2] = 1.5                           # constant
    y = X[:, 0] - 2.0 * X[:, 1] + X[:, 3] * X[:, 4] + rng.normal(size=300)
    return X, y


def _node_digest(model) -> str:
    h = hashlib.sha256()
    for tree in model.estimators_:
        for name in _FIELDS:
            h.update(np.ascontiguousarray(getattr(tree.tree_, name)).tobytes())
    return h.hexdigest()


class TestPinnedDigests:
    def test_forest_nodes(self):
        X, y = _pinned_data()
        rf = RandomForestRegressor(n_estimators=8, max_depth=8,
                                   max_features="sqrt", min_samples_leaf=2,
                                   random_state=11).fit(X, y)
        assert _node_digest(rf) == _RF_SHA256

    def test_boosting_nodes(self):
        X, y = _pinned_data()
        gb = GradientBoostingRegressor(
            n_estimators=15, max_depth=3, learning_rate=0.15,
            max_features="sqrt", subsample=0.8, reg_lambda=1.0,
            random_state=11).fit(X, y)
        assert _node_digest(gb) == _GB_SHA256


class TestRankFeatures:
    def test_equal_values_share_a_rank_and_order_is_kept(self):
        X = np.array([[3.0, -0.0], [1.0, 0.0], [3.0, np.inf],
                      [-np.inf, -1.0], [1.0, 0.0]])
        ranks = rank_features(X)
        assert ranks.dtype == np.uint16
        assert ranks.shape == (2, 5)
        assert ranks[0].tolist() == [2, 1, 2, 0, 1]
        assert ranks[1].tolist() == [1, 1, 2, 0, 1]

    @settings(max_examples=50, deadline=None)
    @given(awkward_problem())
    def test_stable_rank_sort_equals_stable_value_sort(self, problem):
        X, _ = problem
        ranks = rank_features(X)
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(
                np.argsort(ranks[j], kind="stable"),
                np.argsort(X[:, j], kind="stable"))

    def test_wide_ranks_beyond_uint16(self):
        # 70k distinct values do not fit uint16 ranks: the kernel falls
        # back to a wider dtype (comparison sort) and stays exact.
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.permutation(70_000) * 0.5,
                             rng.integers(0, 50, size=70_000)])
        y = np.sin(X[:, 0] / 5000.0) + 0.1 * X[:, 1]
        ranks = rank_features(X)
        assert ranks.dtype == np.uint32
        assert int(ranks[0].max()) == 69_999
        assert ranks[1].dtype == np.uint32
        got = DecisionTreeRegressor(max_depth=2).fit(X, y).tree_
        assert got.node_count == 7
        assert_bit_identical(got, oracle_tree(X, y, max_depth=2))


class TestWorkingMemory:
    def test_root_search_stays_within_a_few_mb(self):
        # A 3,000 x 200 root holds 600,000 (feature, row) cells: one
        # float64 temporary over all of them is 4.8 MB. Scored in
        # bounded blocks, the fit allocates its 1.2 MB of ranks, a
        # 0.6 MB NaN mask and a few sub-128 KiB block buffers.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3000, 200))
        y = X[:, 0] + rng.normal(size=3000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            DecisionTreeRegressor(max_depth=1).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 3e6


class TestRankMisuse:
    def test_ranks_for_hist_splitter_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = X[:, 0]
        with pytest.raises(ValueError, match="splitter"):
            DecisionTreeRegressor(splitter="hist").fit(
                X, y, ranks=rank_features(X))

    @pytest.mark.parametrize("bad", ["rows", "transposed", "features"])
    def test_mismatched_shape_rejected(self, bad):
        X = np.random.default_rng(0).normal(size=(30, 3))
        ranks = {
            "rows": rank_features(X[:20]),
            "transposed": rank_features(X).T,
            "features": rank_features(X[:, :2]),
        }[bad]
        with pytest.raises(ValueError, match="shape"):
            DecisionTreeRegressor().fit(X, X[:, 0], ranks=ranks)
