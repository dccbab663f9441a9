"""CART regression trees.

The paper trains its RBF networks with "a regression tree based method"
(Section 2.2, citing Orr et al. 2000): the tree recursively partitions the
design space, every node contributes one candidate RBF unit (center and
radius from the node's bounding box), and the split structure doubles as a
parameter-importance measure —

    "The microarchitecture parameters which cause the most output
    variation tend to be split earliest and most often in the constructed
    regression tree."  (Section 4, Figure 11)

This module implements the tree with exact variance-reduction splitting,
records per-feature *first-split depth* and *split frequency*, and exposes
every node's bounding box for RBF center extraction.

One grower serves every fit.  It takes a target matrix ``Y`` of shape
``(n, T)`` and grows ``T`` trees on the same ``X`` together, level by
level; :meth:`RegressionTree.fit` is the one-column case.  One stable
``argsort`` of ``X`` becomes a rank matrix.  At each level, the open
nodes of all trees are stacked into zero-padded ``(nodes, rows, d)``
blocks, and every candidate threshold of every feature of every node is
scored in one prefix-sum pass per block.  Two rules keep each tree
bit-identical to growing it alone with a per-node scan: prefix totals
are read at each node's true last row, and node statistics are summed
over the node's own rows, never a padded one.  Splits are applied in
each tree's own creation order, so split positions are unchanged.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro._validation import as_2d_float_array
from repro.errors import ModelError, NotFittedError


@dataclass
class TreeNode:
    """One node of a fitted regression tree.

    Attributes
    ----------
    depth:
        Root is depth 0.
    value:
        Mean of the training targets reaching this node (the prediction
        for leaves).
    n_samples:
        Number of training rows reaching this node.
    sse:
        Sum of squared errors of ``value`` over those rows.
    lower, upper:
        The node's axis-aligned bounding box in input space.  The root box
        is the full training-data range; children inherit their parent's
        box cut at the split threshold.
    feature, threshold:
        Split definition (``None`` for leaves); rows with
        ``x[feature] <= threshold`` go left.
    """

    depth: int
    value: float
    n_samples: int
    sse: float
    lower: np.ndarray
    upper: np.ndarray
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class SplitRecord:
    """Bookkeeping for one split, in construction (breadth-first) order."""

    position: int
    depth: int
    feature: int
    threshold: float
    improvement: float


#: Node-rows per block of one level's shared split search.  A block
#: stacks open nodes into ``(nodes, rows, d)`` arrays; the bound keeps
#: each of its dozen temporaries near 2,048 x ``d`` elements however
#: many trees grow together.  Paper-scale fits run equally fast from
#: 1,024 to 4,096; at 4,096 the fit's allocation peak is 1.5x higher.
LEVEL_BLOCK_ROWS = 2048


def _make_node(y: np.ndarray, depth: int, lower: np.ndarray,
               upper: np.ndarray) -> TreeNode:
    """A node holding the targets ``y``: their mean and SSE about it.

    The statistics are bit-equal to ``y.mean()`` and
    ``np.sum((y - mean) ** 2)`` at a fraction of their call overhead.
    Both sums must run over the node's own rows and nothing else:
    NumPy's pairwise summation groups terms by position, so summing a
    zero-padded row would change the bits.
    """
    value = float(np.add.reduce(y) / y.size)
    dev = y - value
    return TreeNode(depth=depth, value=value, n_samples=y.size,
                    sse=float(np.add.reduce(dev * dev)),
                    lower=lower, upper=upper)


def as_targets(Y, n_rows: int, ndim: int = 1) -> np.ndarray:
    """Coerce regression targets to a finite float array with ``n_rows`` rows.

    A NaN or infinite target would poison every node statistic on its
    path and, through them, every split and prediction, so it is
    rejected here.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != ndim or Y.shape[0] != n_rows:
        raise ModelError(
            f"targets must be {ndim}-D with {n_rows} rows (one per row of X), "
            f"got shape {Y.shape}"
        )
    if not np.all(np.isfinite(Y)):
        raise ModelError("targets contain non-finite values")
    return Y


def _search_level(level, rank, xsorted, ysorted, min_leaf: int):
    """Best split of every open node of one level, across all trees.

    ``level`` holds ``(node, splits, tree, rows)`` per open node.
    ``rank[r, f]`` is row ``r``'s position in feature ``f``'s stable
    order, ``xsorted[p, f]`` the ``p``-th smallest value of feature
    ``f`` and ``ysorted[t, p, f]`` tree ``t``'s target at that row; all
    three carry a pad row ``n`` that ranks last in every feature, with
    zero value and targets.

    Nodes are taken largest first, in blocks of at most
    :data:`LEVEL_BLOCK_ROWS` node-rows.  In a block, each node's rows
    are padded with row ``n`` to the block's width and their ranks
    sorted per feature, which lists the node's rows in their stable
    order ahead of its pads.  One ``cumsum`` along the row axis then
    gives every node's prefix sums.  A cumsum is a sequential sum, so
    each node's prefixes are those of its own 1-D scan; trailing zeros
    cannot reach them.  Totals are read at each node's true last row.
    Candidate thresholds are midpoints between consecutive distinct
    values.  On (near-)equal improvements the lowest feature wins.

    Returns per-node lists ``(improvement, feature, threshold)``, with
    ``feature == -1`` where no feature has a valid threshold.
    """
    n, d = rank.shape[0] - 1, rank.shape[1]
    cols = np.arange(d)
    sizes = np.array([rows.size for _, _, _, rows in level])
    trees = np.array([tree for _, _, tree, _ in level])
    total_sse = np.array([node.sse for node, _, _, _ in level])
    improvement = np.empty(len(level))
    feature = np.empty(len(level), dtype=np.intp)
    threshold = np.empty(len(level))
    by_size = np.argsort(-sizes, kind="stable")
    start = 0
    while start < by_size.size:
        width = int(sizes[by_size[start]])
        block = by_size[start:start + max(1, LEVEL_BLOCK_ROWS // width)]
        start += block.size
        n_rows = sizes[block]
        ids = np.full((block.size, width), n)
        ids[np.arange(width) < n_rows[:, None]] = np.concatenate(
            [level[k][3] for k in block])
        # Flat indices of the sorted cells: (nodes, rows, d).
        cells = np.sort(rank[ids], axis=1) * d + cols
        xs = xsorted.take(cells)
        ys = ysorted.take(cells + (trees[block] * xsorted.size)[:, None, None])
        csum = np.cumsum(ys, axis=1)
        csum2 = np.cumsum(ys * ys, axis=1)
        nodes = np.arange(block.size)
        total_sum = csum[nodes, n_rows - 1][:, None]
        total_sum2 = csum2[nodes, n_rows - 1][:, None]
        # Split after row i (count i+1 on the left).
        counts = np.arange(1, width)[:, None]
        right_cnt = n_rows[:, None, None] - counts
        left_sum = csum[:, :-1]
        left_sse = csum2[:, :-1] - left_sum ** 2 / counts
        right_sum = total_sum - left_sum
        # Past a node's last row right_cnt <= 0; those cells are invalid.
        right_sse = ((total_sum2 - csum2[:, :-1])
                     - right_sum ** 2 / np.maximum(right_cnt, 1))
        valid = ((counts >= min_leaf) & (right_cnt >= min_leaf)
                 & (xs[:, :-1] < xs[:, 1:]))
        sse = np.where(valid, left_sse + right_sse, np.inf)
        at = np.argmin(sse, axis=1)
        gain = (total_sse[block, None]
                - np.take_along_axis(sse, at[:, None], axis=1)[:, 0])
        usable = valid.any(axis=1)
        best = np.zeros(block.size)
        feat = np.full(block.size, -1)
        for f in range(d):
            take = usable[:, f] & ((feat < 0) | (gain[:, f] > best + 1e-12))
            best = np.where(take, gain[:, f], best)
            feat[take] = f
        f = np.maximum(feat, 0)
        i = at[nodes, f]
        improvement[block] = best
        feature[block] = feat
        threshold[block] = 0.5 * (xs[nodes, i, f] + xs[nodes, i + 1, f])
    return improvement.tolist(), feature.tolist(), threshold.tolist()


def _grow(X: np.ndarray, Y: np.ndarray, max_depth: int, min_leaf: int,
          min_split: int, min_decrease: float):
    """Grow one tree per column of ``Y`` on the shared ``X``, level by level.

    Returns ``[(root, splits), ...]`` in column order.  Every level's
    open nodes, across all trees, are searched together
    (:func:`_search_level`); the splits are then applied in each tree's
    creation order, so nodes and :class:`SplitRecord` positions come out
    in the breadth-first order of growing each tree on its own.
    """
    n, d = X.shape
    cols = np.arange(d)
    order = np.vstack([np.argsort(X, axis=0, kind="stable"),
                       np.full((1, d), n)])
    rank = np.empty((n + 1, d), dtype=np.int32)
    rank[order, cols] = np.arange(n + 1)[:, None]
    xsorted = np.zeros((n + 1, d))
    xsorted[:n] = X[order[:n], cols]
    targets = np.zeros((Y.shape[1], n + 1))
    targets[:, :n] = Y.T
    ysorted = targets[:, order]
    x_cols = np.ascontiguousarray(X.T)
    lower, upper = X.min(axis=0), X.max(axis=0)
    all_rows = np.arange(n)
    grown, level = [], []
    for tree, y in enumerate(targets[:, :n]):
        root, splits = _make_node(y, 0, lower.copy(), upper.copy()), []
        grown.append((root, splits))
        level.append((root, splits, tree, all_rows))
    for depth in range(max_depth):
        level = [item for item in level if item[3].size >= min_split]
        if not level:
            break
        found = _search_level(level, rank, xsorted, ysorted, min_leaf)
        children = []
        for (node, splits, tree, rows), improvement, feat, thr in zip(
                level, *found):
            if feat < 0 or improvement < min_decrease:
                continue
            mask = x_cols[feat][rows] <= thr
            node.feature, node.threshold = feat, thr
            splits.append(SplitRecord(
                position=len(splits), depth=depth, feature=feat,
                threshold=thr, improvement=improvement,
            ))
            up_l = node.upper.copy()
            up_l[feat] = thr
            lo_r = node.lower.copy()
            lo_r[feat] = thr
            left, right = rows[mask], rows[~mask]
            node.left = _make_node(targets[tree].take(left), depth + 1,
                                   node.lower.copy(), up_l)
            node.right = _make_node(targets[tree].take(right), depth + 1,
                                    lo_r, node.upper.copy())
            children.append((node.left, splits, tree, left))
            children.append((node.right, splits, tree, right))
        level = children
    return grown


class RegressionTree:
    """Least-squares CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = 0).
    min_samples_leaf:
        Minimum training rows in each child of a split.
    min_samples_split:
        Minimum rows required to consider splitting a node.
    min_impurity_decrease:
        Minimum absolute SSE reduction for a split to be accepted.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.linspace(0, 1, 64).reshape(-1, 1)
    >>> y = (X[:, 0] > 0.5).astype(float)
    >>> tree = RegressionTree(max_depth=2, min_samples_leaf=4).fit(X, y)
    >>> round(float(tree.predict([[0.9]])[0]), 6)
    1.0
    """

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 5,
                 min_samples_split: int = 10,
                 min_impurity_decrease: float = 1e-10):
        if max_depth < 0:
            raise ModelError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self.min_impurity_decrease = min_impurity_decrease
        self._root: Optional[TreeNode] = None
        self._n_features: Optional[int] = None
        self._splits: List[SplitRecord] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "RegressionTree":
        """Fit the tree on ``X`` of shape (n, d) and targets ``y`` of shape (n,)."""
        X = as_2d_float_array(X, name="X")
        y = as_targets(y, X.shape[0])
        (self._root, self._splits), = self._grow(X, y[:, None])
        self._n_features = X.shape[1]
        return self

    def fit_columns(self, X, Y) -> List["RegressionTree"]:
        """One tree per column of ``Y`` (n, T), all grown together on ``X``.

        Each returned tree is a copy of this one, fitted on its column,
        and equals a separate :meth:`fit` bit for bit; growing them
        together shares the presort of ``X`` and every level's split
        search.  ``self`` is not modified.
        """
        X = as_2d_float_array(X, name="X")
        Y = as_targets(Y, X.shape[0], ndim=2)
        trees = []
        for root, splits in self._grow(X, Y):
            tree = copy.copy(self)
            tree._root, tree._splits = root, splits
            tree._n_features = X.shape[1]
            trees.append(tree)
        return trees

    def _grow(self, X: np.ndarray, Y: np.ndarray):
        return _grow(X, Y, self.max_depth, self.min_samples_leaf,
                     self.min_samples_split, self.min_impurity_decrease)

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> TreeNode:
        """The fitted root node."""
        self._check_fitted()
        return self._root

    @property
    def n_features(self) -> int:
        """Number of input features seen at fit time."""
        self._check_fitted()
        return self._n_features

    def predict(self, X) -> np.ndarray:
        """Predict targets for rows of ``X``.

        Routing is batched per node: every row reaching a split is
        partitioned with one vectorized comparison, so prediction costs
        O(n_nodes) numpy operations instead of a Python loop over rows
        — the explorer evaluates candidate batches of thousands of
        configurations through this path.
        """
        self._check_fitted()
        X = as_2d_float_array(X, name="X")
        if X.shape[1] != self._n_features:
            raise ModelError(
                f"X has {X.shape[1]} features, tree was fitted with {self._n_features}"
            )
        out = np.empty(X.shape[0], dtype=float)
        stack = [(self._root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.value
                continue
            goes_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[goes_left]))
            stack.append((node.right, rows[~goes_left]))
        return out

    def nodes(self) -> Iterator[TreeNode]:
        """Yield every node, breadth-first from the root."""
        self._check_fitted()
        queue = deque([self._root])
        while queue:
            node = queue.popleft()
            yield node
            if not node.is_leaf:
                queue.append(node.left)
                queue.append(node.right)

    def leaves(self) -> Iterator[TreeNode]:
        """Yield the leaf nodes."""
        return (n for n in self.nodes() if n.is_leaf)

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return sum(1 for _ in self.nodes())

    @property
    def depth(self) -> int:
        """Maximum depth over all nodes (0 for a stump)."""
        return max(n.depth for n in self.nodes())

    @property
    def splits(self) -> List[SplitRecord]:
        """Splits in construction (breadth-first) order."""
        self._check_fitted()
        return list(self._splits)

    # ------------------------------------------------------------------
    # Parameter-importance measures (Figure 11)
    # ------------------------------------------------------------------
    def split_counts(self) -> np.ndarray:
        """Number of splits on each feature ("split frequency")."""
        self._check_fitted()
        counts = np.zeros(self._n_features, dtype=int)
        for rec in self._splits:
            counts[rec.feature] += 1
        return counts

    def first_split_positions(self) -> np.ndarray:
        """Breadth-first position of each feature's earliest split.

        Features that are never split get position ``n_splits`` (i.e.,
        strictly after every real split), so lower is more important.
        """
        self._check_fitted()
        pos = np.full(self._n_features, len(self._splits), dtype=int)
        for rec in self._splits:
            if rec.position < pos[rec.feature]:
                pos[rec.feature] = rec.position
        return pos

    def split_order_scores(self) -> np.ndarray:
        """Importance in ``[0, 1]`` derived from first-split position.

        Features split earliest score near 1; never-split features score 0
        — the quantity visualised by spoke length in the paper's Figure
        11(a) star plots.
        """
        self._check_fitted()
        n = len(self._splits)
        if n == 0:
            return np.zeros(self._n_features)
        pos = self.first_split_positions().astype(float)
        return np.clip(1.0 - pos / n, 0.0, 1.0)

    def importance_by_improvement(self) -> np.ndarray:
        """Total SSE reduction attributed to each feature, normalized to sum 1."""
        self._check_fitted()
        gain = np.zeros(self._n_features, dtype=float)
        for rec in self._splits:
            gain[rec.feature] += rec.improvement
        total = gain.sum()
        return gain / total if total > 0 else gain

    def _check_fitted(self) -> None:
        if self._root is None:
            raise NotFittedError("RegressionTree.predict called before fit")
