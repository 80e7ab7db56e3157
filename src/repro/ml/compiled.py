"""Compiled flat-array inference for fitted tree ensembles.

This is the one inference path of every forest and booster ``predict``.
Walking one tree at a time would make a forest predict ``n_estimators``
Python-level traversals, and the pipeline's hot stages — PFI over
permutation matrices, grid-search fold scoring, the improvement
evaluations, backtest forecasting — each issue thousands of such calls.
This module compiles a *fitted* estimator once into
contiguous structure-of-arrays node tables (the LightGBM /
``HistGradientBoosting`` predictor-array design) and traverses **all
rows through all trees one depth level per vectorised step**, turning
prediction from Python-loop-bound into memory-bandwidth-bound.

Layout: every tree's nodes are concatenated into shared flat arrays
(``feature[int32]``, ``threshold[float64]``, ``left/right[int32]``,
``value[float64]`` and a leaf mask) with absolute child ids. Leaves are
encoded as *self-loops* (``left == right == self``) — an element parked
on one stays parked even if traversed again — and the kernel retires
(tree, row) cursors from its active set the moment they reach a leaf,
so per-level cost tracks the cursors still descending.

Bit-identity contract
---------------------
Compiled predictions are **bit-identical** to the interpreted per-tree
walk (kept only as the test oracle :func:`_interpreted_predict`) for
every splitter and ensemble shape:

* per-tree leaf routing performs the same ``x <= threshold``
  comparisons (NaN compares false and routes right, exactly as the
  interpreted traversal does);
* forests reduce the same ``(n_trees, n_rows)`` leaf-value matrix with
  the same ``mean(axis=0)``;
* boosting accumulates stages in fit order from the same base value
  with the same ``out += learning_rate * stage`` operations.

Hist-fit fast path
------------------
Ensembles fit with ``splitter="hist"`` store their quantile cut grid
(``bin_cuts_``). Their thresholds are always cut values, so at compile
time each threshold maps to a ``uint8`` bin code
(``code <= tcode`` is exactly ``x <= threshold``); callers that evaluate
many variants of one matrix bin it once (:meth:`CompiledEnsemble.bin`)
and traverse one-byte codes instead of float64s for every variant.
``numpy.searchsorted`` orders NaN after every cut, giving NaN rows the
maximal code — they route right, matching the raw comparison.
"""

from __future__ import annotations

import numpy as np

from ..obs import current_metrics
from .tree import _LEAF

__all__ = [
    "CompiledEnsemble",
    "PermutationScorer",
    "compile_ensemble",
    "ensemble_compiled",
    "maybe_compile",
]

#: ``predict_many`` concatenates inputs until a pass would exceed this
#: many kernel cells, bounding the ``(n_trees, n_rows)`` working set.
_BATCH_BUDGET_CELLS = 4_000_000

#: Rows per traversal block are chosen so ``n_trees * rows`` stays near
#: this many cells: per-level temporaries then fit in cache, which is
#: what keeps the flat kernel at interpreted-path speed on huge batches.
_KERNEL_BLOCK_CELLS = 16_384

_COMPILED_FORMAT = 1


class CompiledEnsemble:
    """Flat SoA node tables of a fitted ensemble plus the level kernel.

    Build instances with :func:`compile_ensemble`; the constructor takes
    pre-flattened arrays. ``kind`` selects the aggregation:
    ``"tree"`` (single tree), ``"forest"`` (mean across trees) or
    ``"boosting"`` (base + shrunken stage sum, in stage order).
    """

    def __init__(self, kind, n_features, feature, threshold, left, right,
                 value, leaf_mask, roots, depth, base=0.0,
                 learning_rate=1.0, cuts=None, bin_threshold=None):
        if kind not in ("tree", "forest", "boosting"):
            raise ValueError(f"unknown ensemble kind {kind!r}")
        self.kind = kind
        self.n_features = int(n_features)
        # Node tables are kept at native index width (intp) in memory:
        # every kernel op fancy-indexes with them, and int32 tables
        # would force a cast pass per gather. to_dict narrows them to
        # int32 for compact artifacts; loading widens them back.
        self.feature = np.ascontiguousarray(feature, dtype=np.intp)
        self.threshold = threshold
        self.left = np.ascontiguousarray(left, dtype=np.intp)
        self.right = np.ascontiguousarray(right, dtype=np.intp)
        self.value = value
        self.leaf_mask = leaf_mask
        self.roots = np.ascontiguousarray(roots, dtype=np.intp)
        self.depth = int(depth)
        self.base = float(base)
        self.learning_rate = float(learning_rate)
        self.cuts = cuts
        self.bin_threshold = bin_threshold

    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        """Number of member trees."""
        return int(self.roots.size)

    @property
    def n_nodes(self) -> int:
        """Total nodes across all trees."""
        return int(self.feature.size)

    @property
    def has_bins(self) -> bool:
        """True when the uint8 bin-code fast path is available."""
        return self.bin_threshold is not None

    def __repr__(self) -> str:
        return (f"CompiledEnsemble(kind={self.kind!r}, "
                f"n_trees={self.n_trees}, n_nodes={self.n_nodes}, "
                f"depth={self.depth}, binned={self.has_bins})")

    # ------------------------------------------------------------------
    def bin(self, X) -> np.ndarray:
        """``uint8`` bin codes of a raw matrix under the fit-time cuts.

        The codes reproduce :func:`repro.ml.tree.bin_features` exactly
        (same ``searchsorted`` call), so ``codes <= bin_threshold``
        routes every row as the raw ``x <= threshold`` comparison does —
        including NaN, which receives the maximal code and goes right.
        """
        if not self.has_bins:
            raise RuntimeError("ensemble was not compiled with bins")
        X = np.asarray(X, dtype=np.float64)
        codes = np.empty(X.shape, dtype=np.uint8)
        for f, cut in enumerate(self.cuts):
            codes[:, f] = np.searchsorted(cut, X[:, f], side="left")
        return codes

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Ensemble prediction for every row of ``X``.

        Bit-identical to the interpreted estimator's ``predict``.

        Always walks raw float64 thresholds: binning a matrix costs more
        than the one-byte walk saves, so the binned path only pays when
        codes are reused across calls — bin once with :meth:`bin`, then
        :meth:`predict_binned` (PFI's permutation sweep does this).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X must be 2-D with {self.n_features} features"
            )
        return self._predict_resolved(X, False)

    def predict_binned(self, codes) -> np.ndarray:
        """Predict directly from ``uint8`` codes made by :meth:`bin`.

        Lets callers that evaluate many variants of one matrix (PFI's
        permuted columns) bin once and reuse the codes.
        """
        if not self.has_bins:
            raise RuntimeError("ensemble was not compiled with bins")
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 2 or codes.shape[1] != self.n_features:
            raise ValueError(
                f"codes must be 2-D with {self.n_features} features"
            )
        return self._predict_resolved(codes, True)

    def predict_many(self, matrices,
                     binned: bool = False) -> list[np.ndarray]:
        """Predict several matrices in batched kernel passes.

        Inputs are concatenated row-wise (up to a cell budget per pass)
        so one level-wise traversal serves many matrices — PFI scores
        every permutation of a feature sweep this way. Row-independence
        of the kernel makes the outputs bit-identical to per-matrix
        :meth:`predict` calls. ``binned=True`` treats the inputs as
        ``uint8`` code matrices from :meth:`bin`.
        """
        if binned:
            mats = [np.asarray(m, dtype=np.uint8) for m in matrices]
        else:
            mats = [np.asarray(m, dtype=np.float64) for m in matrices]
        for m in mats:
            if m.ndim != 2 or m.shape[1] != self.n_features:
                raise ValueError(
                    f"every matrix must be 2-D with {self.n_features} "
                    "features"
                )
        current_metrics().counter("predict.batched_matrices").inc(
            len(mats)
        )
        budget_rows = max(1, _BATCH_BUDGET_CELLS // max(1, self.n_trees))
        out: list[np.ndarray] = []
        group: list[np.ndarray] = []
        group_rows = 0

        def flush():
            nonlocal group, group_rows
            if not group:
                return
            big = (np.concatenate(group, axis=0) if len(group) > 1
                   else group[0])
            if binned:
                preds = self.predict_binned(big)
            else:
                preds = self._predict_resolved(big, False)
            start = 0
            for m in group:
                out.append(preds[start:start + m.shape[0]])
                start += m.shape[0]
            group, group_rows = [], 0

        for m in mats:
            if group and group_rows + m.shape[0] > budget_rows:
                flush()
            group.append(m)
            group_rows += m.shape[0]
        flush()
        return out

    # ------------------------------------------------------------------
    def _predict_resolved(self, mat, binned):
        metrics = current_metrics()
        metrics.counter("predict.compiled_calls").inc()
        metrics.counter("predict.compiled_rows").inc(mat.shape[0])
        return self._aggregate(self._kernel(mat, binned))

    def _kernel(self, mat, binned):
        """Per-tree leaf values: ``(n_trees, n_rows)`` float64.

        Large batches traverse in row blocks sized to
        ``_KERNEL_BLOCK_CELLS`` so the per-level working set stays
        cache-resident (rows are independent, so blocking cannot change
        a single bit of the result).
        """
        block = max(256, _KERNEL_BLOCK_CELLS // max(1, self.n_trees))
        n_rows = mat.shape[0]
        if n_rows <= block:
            return self.value[self._apply(mat, binned)]
        out = np.empty((self.n_trees, n_rows), dtype=np.float64)
        for lo in range(0, n_rows, block):
            leaves = self._apply(mat[lo:lo + block], binned)
            out[:, lo:lo + leaves.shape[1]] = self.value[leaves]
        return out

    def _apply(self, mat, binned):
        """Absolute leaf node id per (tree, row): level-wise traversal.

        All (tree, row) cursors advance one depth level per vectorised
        step, with active-set compaction: an element retires the moment
        it reaches a leaf, so per-level cost tracks the cursors still in
        flight — the same work profile as the interpreted ``apply``, but
        amortised over one flat array spanning every tree instead of a
        Python loop per tree.
        """
        threshold = self.bin_threshold if binned else self.threshold
        feature, left, right = self.feature, self.left, self.right
        leaf = self.leaf_mask
        n_rows = mat.shape[0]
        nodes = np.repeat(self.roots, n_rows)
        elems = np.flatnonzero(~leaf[nodes])
        erows = elems % n_rows if elems.size else elems
        cur = nodes[elems]
        while elems.size:
            go_left = mat[erows, feature[cur]] <= threshold[cur]
            cur = np.where(go_left, left[cur], right[cur])
            nodes[elems] = cur
            # Leaves self-loop, so ``left == self`` identifies them
            # without touching the boolean mask (one gather+compare,
            # the same test shape the interpreted ``apply`` uses).
            active = left[cur] != cur
            elems = elems[active]
            erows = erows[active]
            cur = cur[active]
        return nodes.reshape(self.roots.size, n_rows)

    @property
    def path_mask(self) -> np.ndarray:
        """Per-node bitmask of features compared on the root path.

        ``(n_nodes, n_words)`` uint64, where bit ``j`` of word
        ``j // 64`` is set iff some ancestor (the node itself excluded)
        splits on feature ``j``. A row parked on leaf ``L`` can only
        change its prediction under a permutation of feature ``j`` when
        ``path_mask[L]`` has bit ``j`` — the basis of the incremental
        PFI walk (:class:`PermutationScorer`). Computed lazily (one
        level-wise sweep) and cached.
        """
        cached = getattr(self, "_path_mask_", None)
        if cached is not None:
            return cached
        n_words = max(1, (self.n_features + 63) >> 6)
        mask = np.zeros((self.n_nodes, n_words), dtype=np.uint64)
        frontier = self.roots[~self.leaf_mask[self.roots]]
        while frontier.size:
            fc = self.feature[frontier]
            child = mask[frontier]
            child[np.arange(frontier.size), fc >> 6] |= (
                np.uint64(1) << (fc & 63).astype(np.uint64)
            )
            lchild = self.left[frontier]
            rchild = self.right[frontier]
            mask[lchild] = child
            mask[rchild] = child
            children = np.concatenate((lchild, rchild))
            frontier = children[~self.leaf_mask[children]]
        self._path_mask_ = mask
        return mask

    def permutation_scorer(self, mat, binned: bool = False
                           ) -> "PermutationScorer":
        """A :class:`PermutationScorer` bound to ``mat``.

        ``binned=True`` treats ``mat`` as ``uint8`` codes from
        :meth:`bin`.
        """
        return PermutationScorer(self, mat, binned=binned)

    def _aggregate(self, values):
        if self.kind == "forest":
            # Same stacked-matrix mean as the interpreted forest.
            return values.mean(axis=0)
        if self.kind == "boosting":
            # Stage-order accumulation: the interpreted path adds one
            # shrunken stage at a time, and float addition is not
            # associative, so a vectorised sum would drift in the last
            # bits. This loop is over stages only — cheap.
            out = np.full(values.shape[1], self.base, dtype=np.float64)
            for t in range(values.shape[0]):
                out += self.learning_rate * values[t]
            return out
        return values[0].copy()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Portable dict form (arrays kept as numpy; pickle-friendly)."""
        return {
            "format": _COMPILED_FORMAT,
            "kind": self.kind,
            "n_features": self.n_features,
            "depth": self.depth,
            "base": self.base,
            "learning_rate": self.learning_rate,
            "feature": self.feature.astype(np.int32),
            "threshold": self.threshold,
            "left": self.left.astype(np.int32),
            "right": self.right.astype(np.int32),
            "value": self.value,
            "leaf_mask": self.leaf_mask,
            "roots": self.roots.astype(np.int32),
            "cuts": self.cuts,
            "bin_threshold": self.bin_threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CompiledEnsemble":
        """Rebuild a compiled ensemble from :meth:`to_dict` output."""
        if doc.get("format") != _COMPILED_FORMAT:
            raise ValueError(
                f"unsupported compiled format {doc.get('format')!r}"
            )
        return cls(
            kind=doc["kind"], n_features=doc["n_features"],
            feature=doc["feature"], threshold=doc["threshold"],
            left=doc["left"], right=doc["right"], value=doc["value"],
            leaf_mask=doc["leaf_mask"], roots=doc["roots"],
            depth=doc["depth"], base=doc["base"],
            learning_rate=doc["learning_rate"], cuts=doc["cuts"],
            bin_threshold=doc["bin_threshold"],
        )


class PermutationScorer:
    """Incremental compiled predictions for PFI's permutation sweep.

    Binds one base matrix, runs the baseline traversal once, and then
    serves each feature's permuted predictions by re-walking **only the
    (tree, row) elements whose baseline path compared that feature**
    (via :attr:`CompiledEnsemble.path_mask`). A row whose path never
    touches feature ``j`` provably keeps its baseline leaf under any
    permutation of column ``j`` — decisions at other features are
    unchanged, so the walk cannot deviate — which makes the output
    bit-identical to predicting the fully stacked permuted matrices
    while doing roughly ``mean path length / n_features`` of the work.
    """

    def __init__(self, compiled: CompiledEnsemble, mat, binned=False):
        if binned:
            mat = np.asarray(mat, dtype=np.uint8)
        else:
            mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != compiled.n_features:
            raise ValueError(
                f"mat must be 2-D with {compiled.n_features} features"
            )
        self._compiled = compiled
        self._mat = mat
        self._binned = bool(binned)
        self._leaves = compiled._apply(mat, binned)
        self._base_values = compiled.value[self._leaves]

    def predict_feature(self, j: int, perms) -> np.ndarray:
        """Predictions for stacked copies of the base matrix with column
        ``j`` permuted by each row of ``perms``.

        ``perms`` is ``(n_repeats, n_rows)`` permutation indices; the
        result is ``(n_repeats * n_rows,)`` in repeat-major order —
        bit-identical to ``predict(vstack(permuted copies))``.
        """
        c, mat = self._compiled, self._mat
        perms = np.asarray(perms, dtype=np.intp)
        n_repeats, n_rows = perms.shape
        metrics = current_metrics()
        metrics.counter("predict.compiled_calls").inc()
        metrics.counter("predict.compiled_rows").inc(n_repeats * n_rows)
        permuted_col = mat[:, j][perms]
        word, bit = j >> 6, np.uint64(j & 63)
        affected = (c.path_mask[self._leaves, word] >> bit) & np.uint64(1)
        tree_idx, row_idx = np.nonzero(affected)
        values = np.tile(self._base_values, (1, n_repeats))
        if tree_idx.size:
            # One flat element list covers every (repeat, tree, row)
            # that needs re-walking; repeats only differ in the value
            # substituted at j-nodes.
            trees = np.tile(tree_idx, n_repeats)
            rows = np.tile(row_idx, n_repeats)
            reps = np.repeat(np.arange(n_repeats, dtype=np.intp),
                             tree_idx.size)
            metrics.counter("predict.pfi_rewalked").inc(trees.size)
            threshold = c.bin_threshold if self._binned else c.threshold
            feature, left, right = c.feature, c.left, c.right
            nodes = c.roots[trees]
            elems = np.arange(trees.size)
            cur = nodes.copy()
            active = left[cur] != cur
            elems, cur = elems[active], cur[active]
            while elems.size:
                erows = rows[elems]
                fc = feature[cur]
                vals = mat[erows, fc]
                is_j = fc == j
                if is_j.any():
                    vals[is_j] = permuted_col[reps[elems[is_j]],
                                              erows[is_j]]
                go_left = vals <= threshold[cur]
                cur = np.where(go_left, left[cur], right[cur])
                nodes[elems] = cur
                alive = left[cur] != cur
                elems = elems[alive]
                cur = cur[alive]
            values[trees, reps * n_rows + rows] = c.value[nodes]
        return c._aggregate(values)


def _ensemble_parts(estimator):
    """(kind, member trees, base, learning_rate) of a fitted estimator."""
    trees = getattr(estimator, "estimators_", None)
    if trees:
        if not all(getattr(t, "tree_", None) is not None for t in trees):
            raise TypeError(
                f"{type(estimator).__name__} members are not flat trees"
            )
        if getattr(estimator, "base_prediction_", None) is not None:
            return ("boosting", trees,
                    float(estimator.base_prediction_),
                    float(estimator.learning_rate))
        return "forest", trees, 0.0, 1.0
    if getattr(estimator, "tree_", None) is not None:
        return "tree", [estimator], 0.0, 1.0
    raise TypeError(
        f"{type(estimator).__name__} is not a fitted tree ensemble"
    )


def _interpreted_predict(estimator, X) -> np.ndarray:
    """The per-tree interpreted walk: the oracle the compiled kernel is
    tested against.

    Forests stack every member's predictions and take the same
    ``mean(axis=0)``; boosting adds one shrunken stage at a time from
    the base value. Not used by any estimator's ``predict``.
    """
    kind, trees, base, learning_rate = _ensemble_parts(estimator)
    X = np.asarray(X, dtype=np.float64)
    if kind == "forest":
        stacked = np.empty((len(trees), X.shape[0]), dtype=np.float64)
        for i, tree in enumerate(trees):
            stacked[i] = tree.tree_.predict(X)
        return stacked.mean(axis=0)
    if kind == "boosting":
        out = np.full(X.shape[0], base, dtype=np.float64)
        for tree in trees:
            out += learning_rate * tree.tree_.predict(X)
        return out
    return trees[0].tree_.predict(X)


def _bin_thresholds(feature, threshold, leaf_mask, cuts, n_features):
    """Per-node ``uint8`` bin code of each threshold, or ``None``.

    Valid only when every internal threshold is exactly a cut value
    (guaranteed for hist-fit trees, whose split grid *is* the cut grid);
    anything else disables the binned path rather than approximating.
    """
    if cuts is None or len(cuts) != n_features:
        return None
    out = np.zeros(feature.size, dtype=np.uint8)
    internal = ~leaf_mask
    for f in range(n_features):
        nodes = internal & (feature == f)
        if not nodes.any():
            continue
        cut = np.asarray(cuts[f], dtype=np.float64)
        thr = threshold[nodes]
        pos = np.searchsorted(cut, thr, side="left")
        in_range = pos < cut.size
        if not in_range.all():
            return None
        if not np.array_equal(cut[pos], thr):
            return None
        out[nodes] = pos
    return out


def _flatten_trees(trees, base_offset=0):
    """Flat SoA node tables of ``trees`` with absolute child ids.

    ``base_offset`` shifts every node id, so the tables can be appended
    after an existing compiled prefix of ``base_offset`` nodes. Returns
    ``(feature, threshold, left, right, value, leaf_mask, roots,
    depth)``.
    """
    counts = [t.tree_.node_count for t in trees]
    total = int(sum(counts))
    offsets = np.concatenate(
        ([0], np.cumsum(counts)[:-1])
    ).astype(np.int64) + int(base_offset)
    feature = np.zeros(total, dtype=np.intp)
    threshold = np.full(total, np.nan, dtype=np.float64)
    left = np.empty(total, dtype=np.intp)
    right = np.empty(total, dtype=np.intp)
    value = np.empty(total, dtype=np.float64)
    leaf_mask = np.empty(total, dtype=bool)
    roots = (offsets - int(base_offset)).astype(np.intp)
    depth = 0
    for local, off, tree in zip(roots, offsets, trees):
        t = tree.tree_
        n = t.node_count
        sl = slice(int(local), int(local) + n)
        leaf = t.children_left == _LEAF
        ids = np.arange(n, dtype=np.int64)
        # Leaves self-loop; their feature id is clamped to 0 so the
        # kernel's gather stays in-bounds (the comparison result is
        # irrelevant for a self-loop).
        feature[sl] = np.where(leaf, 0, t.feature)
        threshold[sl] = t.threshold
        left[sl] = np.where(leaf, ids, t.children_left) + off
        right[sl] = np.where(leaf, ids, t.children_right) + off
        value[sl] = t.value
        leaf_mask[sl] = leaf
        depth = max(depth, t.max_depth)
    return (feature, threshold, left, right, value, leaf_mask,
            offsets.astype(np.intp), depth)


def _cuts_equal(a, b) -> bool:
    """True when two hist cut grids are elementwise identical."""
    if a is None or b is None or len(a) != len(b):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _usable_prefix(estimator, reuse, kind, trees, base, learning_rate):
    """The previous compiled ensemble when it is a valid table prefix.

    ``reuse`` is the ``(prev_compiled, n_reused)`` hint a warm-start
    fit records (:mod:`repro.ml.warm`); it is honoured only when the
    previous tables cover exactly the leading ``n_reused`` member trees
    of this estimator under the same aggregation — anything else falls
    back to a full compile.
    """
    if reuse is None:
        return None
    prev, n_reused = reuse
    if (
        prev is None
        or prev.kind != kind
        or prev.n_trees != n_reused
        or n_reused < 1
        or n_reused > len(trees)
        or prev.n_features != int(estimator.n_features_in_)
        or prev.base != float(base)
        or prev.learning_rate != float(learning_rate)
    ):
        return None
    return prev


def _extend_compiled(prev, estimator, kind, trees, base,
                     learning_rate) -> CompiledEnsemble:
    """Compiled tables for ``trees`` reusing ``prev`` as a prefix.

    Member nodes concatenate in tree order, so the previous tables are
    copied wholesale and only the new tail trees are flattened — the
    result is identical to a from-scratch :func:`compile_ensemble`.
    """
    new_trees = trees[prev.n_trees:]
    metrics = current_metrics()
    if not new_trees:
        metrics.counter("predict.compile_reuse").inc()
        return prev
    (feature, threshold, left, right, value, leaf_mask, roots,
     depth) = _flatten_trees(new_trees, base_offset=prev.n_nodes)
    cuts = getattr(estimator, "bin_cuts_", None)
    bin_threshold = None
    if prev.bin_threshold is not None and _cuts_equal(cuts, prev.cuts):
        tail = _bin_thresholds(
            feature, threshold, leaf_mask, cuts, prev.n_features
        )
        if tail is not None:
            bin_threshold = np.concatenate((prev.bin_threshold, tail))
    metrics.counter("predict.compile_builds").inc()
    metrics.counter("predict.compile_nodes").inc(feature.size)
    metrics.counter("predict.compile_reused_nodes").inc(prev.n_nodes)
    return CompiledEnsemble(
        kind=kind, n_features=prev.n_features,
        feature=np.concatenate((prev.feature, feature)),
        threshold=np.concatenate((prev.threshold, threshold)),
        left=np.concatenate((prev.left, left)),
        right=np.concatenate((prev.right, right)),
        value=np.concatenate((prev.value, value)),
        leaf_mask=np.concatenate((prev.leaf_mask, leaf_mask)),
        roots=np.concatenate((prev.roots, roots)),
        depth=max(prev.depth, depth), base=base,
        learning_rate=learning_rate,
        cuts=tuple(cuts) if bin_threshold is not None else None,
        bin_threshold=bin_threshold,
    )


def compile_ensemble(estimator, reuse=None) -> CompiledEnsemble:
    """Flatten a fitted tree / forest / boosting estimator.

    Concatenates every member tree's nodes into shared SoA arrays with
    absolute child ids; leaves become self-loops. When the estimator
    carries ``bin_cuts_`` (hist splitter) the thresholds are also mapped
    to bin codes so prediction can run on ``uint8`` codes.

    ``reuse`` is an optional ``(prev_compiled, n_reused)`` pair from a
    warm-start refit: when the previous tables cover exactly the
    leading ``n_reused`` member trees, they are copied wholesale and
    only the changed (new) trees are flattened — same output, less
    work.

    Raises ``TypeError`` for estimators that are not fitted tree
    ensembles (use :func:`maybe_compile` for a soft probe).
    """
    kind, trees, base, learning_rate = _ensemble_parts(estimator)
    prev = _usable_prefix(estimator, reuse, kind, trees, base,
                          learning_rate)
    if prev is not None:
        return _extend_compiled(prev, estimator, kind, trees, base,
                                learning_rate)
    (feature, threshold, left, right, value, leaf_mask, roots,
     depth) = _flatten_trees(trees)
    n_features = int(estimator.n_features_in_)
    cuts = getattr(estimator, "bin_cuts_", None)
    bin_threshold = _bin_thresholds(
        feature, threshold, leaf_mask, cuts, n_features
    )
    metrics = current_metrics()
    metrics.counter("predict.compile_builds").inc()
    metrics.counter("predict.compile_nodes").inc(feature.size)
    return CompiledEnsemble(
        kind=kind, n_features=n_features, feature=feature,
        threshold=threshold, left=left, right=right, value=value,
        leaf_mask=leaf_mask, roots=roots, depth=depth, base=base,
        learning_rate=learning_rate,
        cuts=tuple(cuts) if bin_threshold is not None else None,
        bin_threshold=bin_threshold,
    )


def ensemble_compiled(estimator) -> CompiledEnsemble:
    """The estimator's compiled form, cached on the instance.

    ``fit`` resets the cached artifact, so refits never serve stale
    tables. A warm-start refit that reused the previous members leaves
    a ``(prev_compiled, n_reused)`` hint; compilation then extends the
    previous tables instead of rebuilding them. Raises ``TypeError``
    for non-ensemble estimators.
    """
    cached = getattr(estimator, "_compiled_", None)
    if cached is not None:
        current_metrics().counter("predict.compile_reuse").inc()
        return cached
    compiled = compile_ensemble(
        estimator, reuse=getattr(estimator, "_compile_reuse_", None)
    )
    try:
        estimator._compiled_ = compiled
        estimator._compile_reuse_ = None
    except AttributeError:
        pass
    return compiled


def maybe_compile(estimator) -> CompiledEnsemble | None:
    """:func:`ensemble_compiled` or ``None`` when not compilable.

    The soft probe for generic call sites (PFI over arbitrary
    estimators): stacking/MLP/grid-search objects return ``None`` and
    keep their ordinary ``predict``.
    """
    try:
        return ensemble_compiled(estimator)
    except TypeError:
        return None
