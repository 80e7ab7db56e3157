"""CART regression trees with exact and histogram split-finding kernels.

This is the foundation of the model substrate: both
:class:`~repro.ml.forest.RandomForestRegressor` and
:class:`~repro.ml.boosting.GradientBoostingRegressor` grow these trees.

Split quality uses the regularised-gain form

    gain(split) = G_L^2 / (n_L + lambda) + G_R^2 / (n_R + lambda)
                  - G_T^2 / (n_T + lambda)

where ``G`` is the sum of targets in a partition and ``n`` its size. With
``reg_lambda = 0`` this is *exactly* the classic CART variance-reduction
criterion (the SSE decrease); with ``reg_lambda > 0`` it is the XGBoost
split gain for squared loss (unit hessians), which is how the boosting
module obtains Newton-style regularised trees from the same code path.
Leaf predictions are correspondingly ``G / (n + lambda)``.

Two split-finding kernels are available via ``splitter``:

``"exact"`` (default)
    Every distinct value boundary is a candidate. Features are ranked
    once per *ensemble* fit (:func:`rank_features`, one
    ``O(F * N log N)`` pass; a standalone tree ranks its own ``X``) and
    member trees gather their rows' ranks. A node then sorts the
    ``uint16`` ranks of its ``k`` candidate features — an ``O(k * n)``
    radix sort, where a float sort would be ``O(k * n log n)`` on values
    that never change within the fit — and scores every position at
    once with prefix sums. A stable sort on (rank, position) is the
    stable sort on (value, position), so the trees are exactly those of
    a float search.
``"hist"``
    LightGBM-style histogram splitting. Each feature is quantile-binned
    once per ``fit`` (at most :data:`MAX_BINS` = 256 bins, ``uint8``
    codes); nodes then score only bin boundaries from per-node
    ``(sum, count)`` histograms accumulated with ``bincount`` —
    ``O(n * f)`` per node, no sorting. When every feature is scored at
    every node the sibling histogram is derived with the classic
    parent-minus-child subtraction trick, so only the smaller child pays
    for accumulation. Ensembles bin once per *ensemble* fit and share
    the :class:`FeatureBins` across member trees.

Both kernels grow the same :class:`TreeStructure`; ``"exact"`` output is
bit-for-bit identical across kernels refactors and worker counts,
``"hist"`` trades exactness of the split grid for asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..obs import current_metrics
from .base import Estimator, check_features, check_xy

__all__ = [
    "MAX_BINS",
    "DecisionTreeRegressor",
    "FeatureBins",
    "TreeStructure",
    "bin_features",
    "rank_features",
]

_LEAF = -1

#: Histogram-splitter resolution: at most this many bins per feature, so
#: bin codes always fit in ``uint8``.
MAX_BINS = 256

_SPLITTERS = ("exact", "hist")

#: Exact-splitter nodes with more rows than this sort their ``uint16``
#: ranks with numpy's radix sort; smaller nodes widen them first, since
#: a comparison sort beats the radix sort's fixed per-row cost there.
_RADIX_MIN_ROWS = 48


@dataclass(frozen=True)
class FeatureBins:
    """Per-feature quantile binning of a feature matrix (``splitter="hist"``).

    Attributes
    ----------
    codes:
        ``(n_samples, n_features) uint8`` bin code of every value. A code
        ``c`` means ``cuts[f][c - 1] < x <= cuts[f][c]`` (open-ended at
        the extremes), so ``code <= b`` is exactly ``x <= cuts[f][b]``.
    cuts:
        One ascending array of cut values per feature (at most
        ``MAX_BINS - 1`` cuts). Thresholds of fitted hist trees are
        always cut values, so prediction on raw features routes training
        rows exactly as the binned search did.
    """

    codes: np.ndarray
    cuts: tuple

    @property
    def n_features(self) -> int:
        """Number of binned feature columns."""
        return int(self.codes.shape[1])

    @property
    def n_bins(self) -> int:
        """Histogram width: one more than the longest cut array.

        The level-wise kernel sizes its ``(slots, features, bins)``
        arrays with this, so an adaptive (small) bin budget shrinks the
        scoring pass proportionally instead of always paying for
        :data:`MAX_BINS` columns.
        """
        return max(2, 1 + max((len(c) for c in self.cuts), default=1))

    def take(self, rows: np.ndarray) -> "FeatureBins":
        """Bins restricted to a row subset (shares the cut arrays).

        Used by bootstrap ensembles: the expensive quantile pass runs
        once on the full matrix and each tree gathers its sample's
        codes.
        """
        return FeatureBins(codes=self.codes[rows], cuts=self.cuts)


def default_max_bins(n_samples: int) -> int:
    """Adaptive bin budget for a sample of ``n_samples`` rows.

    The hist kernel's level-wise scoring pass costs ``O(slots × features
    × bins)`` regardless of how many rows actually occupy the bins, so a
    small sample with the full ``MAX_BINS`` resolution spends most of
    its time on empty bins. An eighth of the rows (floored at 32, capped at
    ``MAX_BINS``) keeps ~8 samples per bin — plenty of split
    resolution — while shrinking the scoring arrays on small fits.
    """
    return int(min(MAX_BINS, max(32, n_samples // 8)))


#: Most cells (features x samples) :func:`rank_features` sorts at once,
#: so its transients stay near 2 MB whatever the matrix size.
_RANK_CHUNK_CELLS = 1 << 16


def rank_features(X) -> np.ndarray:
    """Feature-major dense ranks of ``X``: ``(n_features, n_samples)``.

    Within a column equal values share a rank and a larger value has a
    larger rank (``-0.0`` and ``0.0`` are equal, as ``<`` sees them), so
    a stable sort of any subset of a column's ranks gives the same
    permutation as a stable sort of its values. Ranks are ``uint16``,
    which numpy sorts with an O(n) radix sort, unless a column has more
    than 65,536 distinct values; then they widen to ``uint32``.
    Ensembles rank once per fit and each member tree gathers its rows'
    columns. Features are ranked a bounded chunk at a time, so beside
    the result only about :data:`_RANK_CHUNK_CELLS` cells of sort
    transients are live.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n_samples, n_features = X.shape
    ranks = np.empty((n_features, n_samples), dtype=np.uint16)
    step = max(1, _RANK_CHUNK_CELLS // max(1, n_samples))
    for lo in range(0, n_features, step):
        XT = np.ascontiguousarray(X[:, lo:lo + step].T)
        # Tied values get one rank whatever their order, so any sort
        # will do.
        order = XT.argsort(axis=1)
        rows = np.arange(XT.shape[0])[:, None]
        sorted_x = XT[rows, order]
        del XT
        dense = np.zeros(sorted_x.shape, dtype=np.int64)
        np.greater(sorted_x[:, 1:], sorted_x[:, :-1], out=dense[:, 1:],
                   casting="unsafe")
        del sorted_x
        np.cumsum(dense, axis=1, out=dense)
        if dense.size and dense[:, -1].max() > np.iinfo(ranks.dtype).max:
            ranks = ranks.astype(np.uint32)
        ranks[lo + rows, order] = dense
    return ranks


def bin_features(X, max_bins: int | None = None) -> FeatureBins:
    """Quantile-bin every feature column of ``X`` into ``<= max_bins`` bins.

    ``max_bins=None`` (the default) resolves to
    :func:`default_max_bins` of the row count. Features with fewer than
    ``max_bins`` distinct values get one bin per value (cuts at
    midpoints — the hist search then sees exactly the candidate grid the
    exact splitter would), denser features get quantile cuts so every
    bin holds roughly the same number of samples.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if max_bins is None:
        max_bins = default_max_bins(X.shape[0])
    if not 2 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [2, {MAX_BINS}]")
    n_samples, n_features = X.shape
    codes = np.empty((n_samples, n_features), dtype=np.uint8)
    cuts: list[np.ndarray] = []
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    # Interpolation positions for linear quantiles on a sorted column
    # (equivalent to np.quantile's default method, but one sort per
    # feature instead of repeated selection passes).
    pos = quantiles * (n_samples - 1)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, n_samples - 1)
    frac = pos - lo
    for f in range(n_features):
        col_sorted = np.sort(X[:, f])
        is_new = np.empty(n_samples, dtype=bool)
        is_new[0] = True
        np.greater(col_sorted[1:], col_sorted[:-1], out=is_new[1:])
        if int(is_new.sum()) <= max_bins:
            unique = col_sorted[is_new]
            cut = 0.5 * (unique[:-1] + unique[1:])
        else:
            cut = np.unique(
                col_sorted[lo] * (1.0 - frac) + col_sorted[hi] * frac
            )
        codes[:, f] = np.searchsorted(cut, X[:, f], side="left")
        cuts.append(cut)
    return FeatureBins(codes=codes, cuts=tuple(cuts))


@dataclass
class TreeStructure:
    """Flat array encoding of a fitted binary regression tree.

    Attributes mirror sklearn's ``tree_`` object so downstream consumers
    (prediction, MDI, TreeSHAP) can work off plain arrays:

    * ``children_left`` / ``children_right`` — child node ids, -1 at leaves.
    * ``feature`` — split feature per node, -1 at leaves.
    * ``threshold`` — split threshold per node (``x <= t`` goes left).
    * ``value`` — prediction per node (leaf values are used for output;
      internal values are the regularised node means, used by SHAP).
    * ``n_node_samples`` — training rows routed through each node.
    * ``impurity`` — node variance (MSE around the node mean).
    """

    children_left: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    children_right: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    feature: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    threshold: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    value: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    n_node_samples: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    impurity: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))

    @property
    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return int(self.children_left.size)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.sum(self.children_left == _LEAF))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root alone = depth 0)."""
        depth = np.zeros(self.node_count, dtype=np.int64)
        for node in range(self.node_count):
            left, right = self.children_left[node], self.children_right[node]
            if left != _LEAF:
                depth[left] = depth[node] + 1
                depth[right] = depth[node] + 1
        return int(depth.max()) if self.node_count else 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row of ``X`` to its leaf and return leaf values."""
        leaf = self.apply(X)
        return self.value[leaf]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by every row of ``X``.

        Batched traversal with active-set compaction: rows that reach a
        leaf drop out of the working set instead of being re-scanned
        every level, so the per-level cost tracks the rows still in
        flight (this is the path under forest prediction, PFI's stacked
        predict and TreeSHAP's hot/cold routing).
        """
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        if self.node_count == 0 or self.children_left[0] == _LEAF:
            return nodes
        rows = np.arange(X.shape[0], dtype=np.int64)
        cur = nodes[rows]
        while rows.size:
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            cur = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            nodes[rows] = cur
            active = self.children_left[cur] != _LEAF
            rows = rows[active]
            cur = cur[active]
        return nodes

    def mdi_importances(self, n_features: int) -> np.ndarray:
        """Unnormalised Mean-Decrease-in-Impurity per feature.

        Sums, over every internal node splitting on a feature, the weighted
        impurity decrease ``n*I - n_L*I_L - n_R*I_R`` (weights in sample
        counts). Callers normalise across trees.
        """
        out = np.zeros(n_features, dtype=np.float64)
        for node in range(self.node_count):
            left = self.children_left[node]
            if left == _LEAF:
                continue
            right = self.children_right[node]
            decrease = (
                self.n_node_samples[node] * self.impurity[node]
                - self.n_node_samples[left] * self.impurity[left]
                - self.n_node_samples[right] * self.impurity[right]
            )
            out[self.feature[node]] += max(decrease, 0.0)
        return out


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate a ``max_features`` spec into a concrete column count."""
    if max_features is None or max_features == 1.0:
        return n_features
    if max_features == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(math.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    if isinstance(max_features, int):
        if max_features < 1:
            raise ValueError("int max_features must be >= 1")
        return min(max_features, n_features)
    raise ValueError(f"unsupported max_features spec: {max_features!r}")


def _best_split(X, y, ranks, idx, feats, feat_rows, left_den, right_den,
                node_den, msl):
    """Vectorised exact search over all (feature, position) candidates.

    ``ranks`` are the :func:`rank_features` ranks of the training matrix
    ``X``, which is read only to place the threshold. A stable sort of a
    node's ranks orders its rows exactly as a stable sort of their
    values would, so the candidate grid, the gains and the tie-breaking
    are those of a float search. ``left_den``/``right_den`` hold
    ``count + lambda`` of each candidate's children, ``node_den`` the
    node's, and ``feat_rows`` is the ``(k, 1)`` column ``arange(k)``.
    Returns ``(gain, feature, threshold, left_mask)`` for the best valid
    split, or ``None`` when no candidate satisfies the
    ``min_samples_leaf`` and strict-ordering constraints.
    """
    n = idx.size
    R = ranks[feats[:, None], idx]                     # (k, n)
    # Radix sort for 16-bit keys is O(n) but has a fixed cost per row;
    # on small nodes a comparison sort of wider ints is faster.
    keys = R if n > _RADIX_MIN_ROWS else R.astype(np.intp)
    order = keys.argsort(axis=1, kind="stable")        # (k, n)
    sorted_r = R[feat_rows, order]
    cum = y[idx][order].cumsum(axis=1)                 # prefix target sums
    total = cum[:, -1:]                                # (k, 1)

    # Candidate split after position i: left = [0..i], right = [i+1..].
    sum_left = cum[:, :-1]
    sum_right = total - sum_left
    gain = (sum_left**2 / left_den + sum_right**2 / right_den
            - total**2 / node_den)

    # Invalid where equal adjacent values (can't separate) or leaf-size
    # constraints would be violated.
    valid = sorted_r[:, :-1] < sorted_r[:, 1:]
    if msl > 1:
        valid[:, :msl - 1] = False
        valid[:, n - msl:] = False
    if not valid.any():
        # Degenerate node (e.g. every candidate feature constant):
        # argmax over an all--inf gain matrix would return index 0.
        return None
    gain[~valid] = -np.inf

    # Scan the transposed view so ties break in (position, feature)
    # order — the same flat order the sample-major layout used, which
    # keeps exact-mode trees bit-identical across kernel refactors.
    row, col = divmod(int(gain.T.argmax()), feats.size)
    best_gain = float(gain[col, row])
    if not math.isfinite(best_gain) or best_gain <= 0.0:
        return None
    feat = int(feats[col])
    lo = float(X[idx[order[col, row]], feat])
    hi = float(X[idx[order[col, row + 1]], feat])
    thr = 0.5 * (lo + hi)
    # Guard against the midpoint rounding onto the upper value, or being
    # NaN (lo = -inf, hi = +inf).
    if not thr < hi:
        thr = lo
    # Node values are either <= lo or >= hi, so ``x <= thr`` is
    # ``rank <= rank(lo)``.
    left_mask = R[col] <= sorted_r[col, row]
    return best_gain, feat, thr, left_mask


class DecisionTreeRegressor(Estimator):
    """Binary regression tree grown by greedy regularised-gain splitting.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0); ``None`` for unlimited.
    min_samples_split:
        Minimum samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum samples each child must retain.
    max_features:
        Features examined per split: ``None``/1.0 (all), ``"sqrt"``,
        ``"log2"``, an int count, or a float fraction. When fewer than all
        features are examined the subset is drawn fresh at every node
        (random-forest style decorrelation).
    min_impurity_decrease:
        Minimum per-sample SSE decrease required to accept a split.
    reg_lambda:
        L2 leaf regularisation (XGBoost's lambda). Zero recovers CART.
    splitter:
        ``"exact"`` (default) scores every value boundary; ``"hist"``
        scores quantile-bin boundaries from per-node histograms (see the
        module docstring for the complexity trade-off).
    random_state:
        Seed (or ``numpy.random.Generator``) for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        min_impurity_decrease: float = 0.0,
        reg_lambda: float = 0.0,
        splitter: str = "exact",
        random_state=None,
    ):
        if max_depth is not None and max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        if reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if splitter not in _SPLITTERS:
            raise ValueError(
                f"splitter must be one of {_SPLITTERS}, got {splitter!r}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.reg_lambda = reg_lambda
        self.splitter = splitter
        self.random_state = random_state
        self.tree_: TreeStructure | None = None
        self.n_features_in_: int | None = None
        self.bin_cuts_: tuple | None = None
        self._compiled_ = None

    # ------------------------------------------------------------------
    def get_params(self) -> dict:
        """Constructor parameters (grid-search / cloning protocol)."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "min_impurity_decrease": self.min_impurity_decrease,
            "reg_lambda": self.reg_lambda,
            "splitter": self.splitter,
            "random_state": self.random_state,
        }

    # ------------------------------------------------------------------
    def fit(self, X, y, bins: FeatureBins | None = None,
            ranks: np.ndarray | None = None) -> "DecisionTreeRegressor":
        """Fit the estimator on (X, y); returns self.

        ``bins`` (hist splitter only) short-circuits the per-fit
        quantile binning with a precomputed :class:`FeatureBins` whose
        rows match ``X``; ``ranks`` (exact splitter only) does the same
        for the per-fit :func:`rank_features` pass with ``(n_features,
        n_samples)`` ranks of ``X``. Ensembles compute either once and
        share it across member trees.
        """
        X, y = check_xy(X, y)
        if np.isnan(X).any() or np.isnan(y).any():
            raise ValueError("training data must be NaN-free")
        if bins is not None:
            if self.splitter != "hist":
                raise ValueError(
                    "precomputed bins require splitter='hist'"
                )
            if bins.codes.shape != X.shape:
                raise ValueError(
                    "bins shape does not match X "
                    f"({bins.codes.shape} vs {X.shape})"
                )
        if ranks is not None:
            if self.splitter != "exact":
                raise ValueError(
                    "precomputed ranks require splitter='exact'"
                )
            if ranks.shape != X.shape[::-1]:
                raise ValueError(
                    "ranks shape does not match X.T "
                    f"({ranks.shape} vs {X.shape[::-1]})"
                )
        n_samples, n_features = X.shape
        self.n_features_in_ = n_features
        rng = np.random.default_rng(self.random_state)
        k_features = _resolve_max_features(self.max_features, n_features)

        lam = float(self.reg_lambda)
        children_left: list[int] = []
        children_right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        value: list[float] = []
        n_node: list[int] = []
        impurity: list[float] = []
        lists = (children_left, children_right, feature, threshold,
                 value, n_node, impurity)

        self._compiled_ = None
        if self.splitter == "hist":
            current_metrics().counter("ml.tree_fit.hist").inc()
            if bins is None:
                bins = bin_features(X)
            # The cut grid is what post-fit compilation needs to map
            # thresholds back to bin codes (repro.ml.compiled); the
            # per-row codes stay fit-local.
            self.bin_cuts_ = bins.cuts
            self._grow_hist(X, y, bins, lam, rng, k_features, lists)
        else:
            current_metrics().counter("ml.tree_fit.exact").inc()
            self.bin_cuts_ = None
            if ranks is None:
                ranks = rank_features(X)
            with np.errstate(divide="ignore", invalid="ignore"):
                self._grow_exact(X, y, ranks, lam, rng, k_features, lists)

        self.tree_ = TreeStructure(
            children_left=np.asarray(children_left, dtype=np.int64),
            children_right=np.asarray(children_right, dtype=np.int64),
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=np.float64),
            value=np.asarray(value, dtype=np.float64),
            n_node_samples=np.asarray(n_node, dtype=np.int64),
            impurity=np.asarray(impurity, dtype=np.float64),
        )
        return self

    # ------------------------------------------------------------------
    # exact kernel
    # ------------------------------------------------------------------
    def _grow_exact(self, X, y, ranks, lam, rng, k_features, lists) -> None:
        """Depth-first growth with an explicit stack of (id, idx, depth).

        Nodes sort integer ``ranks`` (see :func:`rank_features`), never
        floats; a float is read only to place the winning threshold.
        """
        (children_left, children_right, feature, threshold,
         value, n_node, impurity) = lists
        n_samples, n_features = X.shape
        msl = self.min_samples_leaf
        mss = self.min_samples_split
        max_depth = self.max_depth
        min_decrease = self.min_impurity_decrease
        all_feats = np.arange(n_features)
        feat_rows = np.arange(k_features)[:, None]
        # ``counts + lambda`` for every child size: an n-row node's
        # left and right denominators are a view and a reversed view.
        dens = np.arange(1, max(n_samples, 2), dtype=np.float64) + lam

        def new_node(idx: np.ndarray) -> int:
            node_id = len(value)
            y_node = y[idx]
            n = idx.size
            total = float(np.add.reduce(y_node))
            children_left.append(_LEAF)
            children_right.append(_LEAF)
            feature.append(_LEAF)
            threshold.append(np.nan)
            value.append(total / (n + lam))
            n_node.append(n)
            # np.add.reduce(d) / n is what np.mean computes, bit for bit.
            dev = y_node - total / n
            impurity.append(float(np.add.reduce(dev * dev) / n))
            return node_id

        root_idx = np.arange(n_samples)
        stack: list[tuple[int, np.ndarray, int]] = [
            (new_node(root_idx), root_idx, 0)
        ]
        while stack:
            node_id, idx, depth = stack.pop()
            n = idx.size
            if (n < mss or n < 2 * msl
                    or (max_depth is not None and depth >= max_depth)
                    or impurity[node_id] == 0.0):
                continue
            if k_features < n_features:
                feats = rng.choice(n_features, size=k_features,
                                   replace=False)
            else:
                feats = all_feats
            best = _best_split(X, y, ranks, idx, feats, feat_rows,
                               dens[:n - 1], dens[n - 2::-1], n + lam, msl)
            if best is None:
                continue
            gain, feat, thr, left_mask = best
            if gain / n_samples < min_decrease:
                continue

            left_idx = idx[left_mask]
            right_idx = idx[~left_mask]
            left_id = new_node(left_idx)
            right_id = new_node(right_idx)
            children_left[node_id] = left_id
            children_right[node_id] = right_id
            feature[node_id] = feat
            threshold[node_id] = thr
            stack.append((left_id, left_idx, depth + 1))
            stack.append((right_id, right_idx, depth + 1))

    # ------------------------------------------------------------------
    # histogram kernel
    # ------------------------------------------------------------------
    # Above this many histogram cells per level the full-feature path
    # stops carrying parent histograms (subtraction trick off) and falls
    # back to direct accumulation, bounding peak memory at ~100 MB.
    _HIST_CELL_CAP = 4_000_000

    def _grow_hist(self, X, y, bins, lam, rng, k_features, lists) -> None:
        """Level-wise histogram growth.

        All nodes of a depth level are scored together: one ``bincount``
        keyed by ``(node-slot, feature, bin)`` accumulates every node's
        histograms at once and one vectorised pass over the resulting
        ``(slots, features, bins)`` arrays scores every candidate split.
        Per-level cost is ``O(n * k)`` accumulation plus
        ``O(slots * k * bins)`` scoring, with a *constant* number of
        numpy calls per level — per-node python overhead, which
        dominates deep trees of small nodes, disappears entirely.

        In full-feature mode successive levels reuse parent histograms:
        only each split's *smaller* child is accumulated and the sibling
        is derived by the parent-minus-child subtraction (capped by
        :data:`_HIST_CELL_CAP`; beyond it the level accumulates
        directly). With per-node feature subsampling the scored subset
        differs node to node, so every level accumulates its own subset
        histograms.
        """
        (children_left, children_right, feature, threshold,
         value, n_node, impurity) = lists
        n_samples, n_features = X.shape
        if bins is None:
            bins = bin_features(X)
        codes = bins.codes
        cuts = bins.cuts
        y2 = y * y
        msl = self.min_samples_leaf
        mss = self.min_samples_split
        full = k_features == n_features
        B = bins.n_bins

        def add_node(s: float, sq: float, c: int) -> int:
            node_id = len(value)
            children_left.append(_LEAF)
            children_right.append(_LEAF)
            feature.append(_LEAF)
            threshold.append(np.nan)
            value.append(s / (c + lam))
            n_node.append(int(c))
            mean = s / c
            impurity.append(max(sq / c - mean * mean, 0.0))
            return node_id

        root_sum = float(y.sum())
        root = add_node(root_sum, float(y2.sum()), n_samples)
        if (
            n_samples < mss
            or n_samples < 2 * msl
            or self.max_depth == 0
            or impurity[root] == 0.0
        ):
            return

        if full:
            # Flattened (feature, bin) keys; a slot offset is added per
            # level so one bincount covers every active node.
            codes_off = codes.astype(np.int64)
            codes_off += np.arange(n_features, dtype=np.int64)[None, :] * B

        # Active level state: node ids, per-slot totals, and the row ->
        # slot assignment for every training row still inside an active
        # node. ``hist`` carries (sums, counts) parent histograms for
        # the subtraction trick (full mode only).
        node_ids = np.array([root], dtype=np.int64)
        tot_n = np.array([n_samples], dtype=np.int64)
        tot_s = np.array([root_sum], dtype=np.float64)
        rows = np.arange(n_samples, dtype=np.int64)
        slot = np.zeros(n_samples, dtype=np.int64)
        hist = None
        depth = 0

        while node_ids.size:
            S = node_ids.size
            if full:
                if hist is None:
                    key = (slot[:, None] * (n_features * B)
                           + codes_off[rows])
                    flat = key.ravel()
                    length = S * n_features * B
                    cnt = np.bincount(flat, minlength=length)
                    sm = np.bincount(
                        flat, weights=np.repeat(y[rows], n_features),
                        minlength=length)
                    hist = (sm.reshape(S, n_features, B),
                            cnt.reshape(S, n_features, B))
                hist_s, hist_c = hist
                feats_mat = None
                k = n_features
            else:
                k = k_features
                # One uniform k-subset per slot: argsort of random keys
                # is a batch draw-without-replacement.
                feats_mat = np.argsort(
                    rng.random((S, n_features)), axis=1)[:, :k]
                sub = codes[rows[:, None], feats_mat[slot]]
                key = (slot[:, None] * k
                       + np.arange(k, dtype=np.int64)[None, :]) * B + sub
                flat = key.ravel()
                length = S * k * B
                cnt = np.bincount(flat, minlength=length)
                sm = np.bincount(flat, weights=np.repeat(y[rows], k),
                                 minlength=length)
                hist_s = sm.reshape(S, k, B)
                hist_c = cnt.reshape(S, k, B)

            # Score every (slot, feature, bin) candidate at once. A
            # split at bin b sends codes <= b left, i.e. x <= cuts[b].
            cum_s = np.cumsum(hist_s, axis=2)[:, :, : B - 1]
            cum_c = np.cumsum(hist_c, axis=2)[:, :, : B - 1]
            nl = cum_c.astype(np.float64)
            nr = tot_n[:, None, None] - nl
            rs = tot_s[:, None, None] - cum_s
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = (
                    cum_s**2 / (nl + lam)
                    + rs**2 / (nr + lam)
                    - (tot_s**2 / (tot_n + lam))[:, None, None]
                )
            valid = (cum_c >= msl) & (tot_n[:, None, None] - cum_c >= msl)
            gain = np.where(valid, gain, -np.inf)

            gain2 = gain.reshape(S, k * (B - 1))
            best = np.argmax(gain2, axis=1)
            best_gain = gain2[np.arange(S), best]
            ok = (
                np.isfinite(best_gain)
                & (best_gain > 0.0)
                & (best_gain / n_samples >= self.min_impurity_decrease)
            )
            if not ok.any():
                break
            best_j, best_b = np.divmod(best, B - 1)
            if full:
                best_f = best_j
            else:
                best_f = feats_mat[np.arange(S), best_j]

            # Partition rows of splitting slots into 2 children each.
            ok_slots = np.flatnonzero(ok)
            P = ok_slots.size
            split_rank = np.cumsum(ok) - 1          # slot -> split index
            keep = ok[slot]
            rows_ok = rows[keep]
            slot_ok = slot[keep]
            go_left = codes[rows_ok, best_f[slot_ok]] <= best_b[slot_ok]
            child = 2 * split_rank[slot_ok] + (~go_left)

            c_n = np.bincount(child, minlength=2 * P)
            c_s = np.bincount(child, weights=y[rows_ok], minlength=2 * P)
            c_q = np.bincount(child, weights=y2[rows_ok], minlength=2 * P)

            # Append the whole level's children in bulk (the per-node
            # ``add_node`` path costs a python call per node, which at
            # thousands of nodes per fit is measurable).
            first_child = len(value)
            c_mean = c_s / c_n
            c_imp = np.maximum(c_q / c_n - c_mean * c_mean, 0.0)
            children_left.extend([_LEAF] * (2 * P))
            children_right.extend([_LEAF] * (2 * P))
            feature.extend([_LEAF] * (2 * P))
            threshold.extend([np.nan] * (2 * P))
            value.extend((c_s / (c_n + lam)).tolist())
            n_node.extend(c_n.tolist())
            impurity.extend(c_imp.tolist())
            for i, s_idx in enumerate(ok_slots):
                parent = node_ids[s_idx]
                children_left[parent] = first_child + 2 * i
                children_right[parent] = first_child + 2 * i + 1
                f = int(best_f[s_idx])
                feature[parent] = f
                threshold[parent] = float(cuts[f][best_b[s_idx]])

            # Next level's active set: children that can still split.
            depth += 1
            act = (c_n >= mss) & (c_n >= 2 * msl) & (c_imp > 0.0)
            if self.max_depth is not None and depth >= self.max_depth:
                act[:] = False
            if not act.any():
                break
            act_children = np.flatnonzero(act)
            new_slot = np.cumsum(act) - 1           # child -> new slot

            if full:
                hist = self._derive_child_hists(
                    hist_s, hist_c, codes_off, y, rows_ok, child,
                    ok_slots, act, act_children, c_n)

            keep_rows = act[child]
            rows = rows_ok[keep_rows]
            slot = new_slot[child[keep_rows]]
            node_ids = (first_child
                        + np.arange(2 * P, dtype=np.int64))[act]
            tot_n = c_n[act].astype(np.int64)
            tot_s = c_s[act]

    def _derive_child_hists(self, hist_s, hist_c, codes_off, y, rows_ok,
                            child, ok_slots, act, act_children, c_n):
        """Parent-minus-child histograms for the next level (full mode).

        For every split with at least one splittable child, only the
        *smaller* child's histogram is accumulated; an active sibling is
        derived as ``parent - smaller``. Returns ``(sums, counts)``
        aligned to the next level's slots, or ``None`` when the level
        would exceed :data:`_HIST_CELL_CAP` (the caller then accumulates
        directly, trading the trick for bounded memory).
        """
        F, B = hist_s.shape[1], hist_s.shape[2]
        n_features_b = F * B
        P = ok_slots.size
        fam_act = act[0::2] | act[1::2]
        small_child = 2 * np.arange(P) + (c_n[0::2] > c_n[1::2])
        acc_children = small_child[fam_act]
        n_acc = acc_children.size
        S_next = act_children.size
        if (S_next + n_acc) * n_features_b > self._HIST_CELL_CAP:
            return None

        acc_map = np.full(2 * P, -1, dtype=np.int64)
        acc_map[acc_children] = np.arange(n_acc)

        mask = acc_map[child] >= 0
        r_acc = rows_ok[mask]
        key = (acc_map[child[mask]][:, None] * n_features_b
               + codes_off[r_acc])
        flat = key.ravel()
        length = n_acc * n_features_b
        acc_c = np.bincount(flat, minlength=length).reshape(n_acc, F, B)
        acc_s = np.bincount(flat, weights=np.repeat(y[r_acc], F),
                            minlength=length).reshape(n_acc, F, B)

        own = acc_map[act_children]
        sib = acc_map[act_children ^ 1]
        parent_slot = ok_slots[act_children >> 1]
        is_acc = own >= 0
        new_s = np.empty((S_next, F, B), dtype=np.float64)
        new_c = np.empty((S_next, F, B), dtype=np.int64)
        new_s[is_acc] = acc_s[own[is_acc]]
        new_c[is_acc] = acc_c[own[is_acc]]
        big = ~is_acc
        new_s[big] = hist_s[parent_slot[big]] - acc_s[sib[big]]
        new_c[big] = hist_c[parent_slot[big]] - acc_c[sib[big]]
        return new_s, new_c

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Predict targets for every row of X."""
        self._check_fitted()
        X = check_features(X, self.n_features_in_)
        return self.tree_.predict(X)

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each row."""
        self._check_fitted()
        return self.tree_.apply(np.asarray(X, dtype=np.float64))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalised MDI importances (sum to 1; zeros if no splits)."""
        self._check_fitted()
        raw = self.tree_.mdi_importances(self.n_features_in_)
        total = raw.sum()
        return raw / total if total > 0 else raw

    def _check_fitted(self):
        if self.tree_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
