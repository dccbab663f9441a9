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

A fitted tree is one breadth-first :class:`NodeTable`: row 0 is the
root, and the children of the ``i``-th split node are rows ``2i + 1``
and ``2i + 2``.  Prediction, importance and RBF unit extraction read
its columns; there is no node object graph.

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
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from repro._validation import as_2d_float_array
from repro.errors import ModelError, NotFittedError


class NodeTable(NamedTuple):
    """Every node of one fitted tree, one row per node, breadth-first.

    ``feature`` is ``-1`` for a leaf, whose ``threshold``, ``left`` and
    ``right`` are then ``nan``, ``-1`` and ``-1`` and whose
    ``improvement`` is 0.  Rows with ``x[feature] <= threshold`` go to
    ``left``.  ``value`` is the mean of the training targets reaching
    the node (a leaf's prediction), ``sse`` their squared error about
    it, ``improvement`` the SSE reduction of the node's split.
    ``lower`` and ``upper`` are ``(nodes, d)`` bounding boxes: the
    root's is the training-data range, and each child's is its parent's
    cut at the split threshold.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    sse: np.ndarray
    depth: np.ndarray
    improvement: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


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


def _node_stats(y: np.ndarray):
    """Mean of the targets ``y`` and their SSE about it.

    Bit-equal to ``y.mean()`` and ``np.sum((y - mean) ** 2)`` at a
    fraction of their call overhead.  Both sums must run over the
    node's own rows and nothing else: NumPy's pairwise summation groups
    terms by position, so summing a zero-padded row would change the
    bits, and so does a segmented ``np.add.reduceat``.
    """
    value = float(np.add.reduce(y) / y.size)
    dev = y - value
    return value, float(np.add.reduce(dev * dev))


def as_training_data(X, Y, ndim: int = 1):
    """Coerce ``X`` to a non-empty 2-D float array and ``Y`` to finite
    targets with one row per row of ``X``.

    A NaN or infinite target would poison every node statistic on its
    path and, through them, every split and prediction, so it is
    rejected here.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ModelError(f"X must be 2-D with at least one row and one "
                         f"column, got shape {X.shape}")
    X = as_2d_float_array(X, name="X")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != ndim or Y.shape[0] != X.shape[0]:
        raise ModelError(
            f"targets must be {ndim}-D with {X.shape[0]} rows (one per row "
            f"of X), got shape {Y.shape}"
        )
    if not np.all(np.isfinite(Y)):
        raise ModelError("targets contain non-finite values")
    return X, Y


def _search_level(rows, trees, total_sse, rank, xsorted, ysorted,
                  min_leaf: int):
    """Best split of every open node of one level, across all trees.

    Open node ``k`` holds training rows ``rows[k]`` of tree
    ``trees[k]``, with SSE ``total_sse[k]``.  ``rank[r, f]`` is row
    ``r``'s position in feature ``f``'s stable order, ``xsorted[p, f]``
    the ``p``-th smallest value of feature ``f`` and ``ysorted[t, p,
    f]`` tree ``t``'s target at that row; all three carry a pad row
    ``n`` that ranks last in every feature, with zero value and targets.

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

    Returns per-node arrays ``(improvement, feature, threshold)``, with
    ``feature == -1`` where no feature has a valid threshold.
    """
    n, d = rank.shape[0] - 1, rank.shape[1]
    cols = np.arange(d)
    sizes = np.array([r.size for r in rows])
    improvement = np.empty(len(rows))
    feature = np.empty(len(rows), dtype=np.intp)
    threshold = np.empty(len(rows))
    by_size = np.argsort(-sizes, kind="stable")
    start = 0
    while start < by_size.size:
        width = int(sizes[by_size[start]])
        block = by_size[start:start + max(1, LEVEL_BLOCK_ROWS // width)]
        start += block.size
        n_rows = sizes[block]
        ids = np.full((block.size, width), n)
        ids[np.arange(width) < n_rows[:, None]] = np.concatenate(
            [rows[k] for k in block])
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
    return improvement, feature, threshold


def _grow(X: np.ndarray, Y: np.ndarray, max_depth: int, min_leaf: int,
          min_split: int, min_decrease: float) -> List[NodeTable]:
    """Grow one tree per column of ``Y`` on the shared ``X``, level by level.

    Returns one :class:`NodeTable` per column.  Every level's open
    nodes, across all trees, are searched together
    (:func:`_search_level`).  Each level's children are appended in
    their parents' order, left before right, so each tree's rows come
    out in the breadth-first order of growing it on its own.  A child's
    box is its parent's row with the split column overwritten.
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
    # The current level, all trees: each node's tree, rows and box.
    trees = np.arange(Y.shape[1])
    rows = [np.arange(n)] * trees.size
    lower = np.repeat(X.min(axis=0)[None], trees.size, axis=0)
    upper = np.repeat(X.max(axis=0)[None], trees.size, axis=0)
    levels = []
    for depth in range(max_depth + 1):
        sizes = np.array([r.size for r in rows])
        value, sse = np.array([_node_stats(targets[t].take(r))
                               for t, r in zip(trees.tolist(), rows)]).T
        feature = np.full(trees.size, -1)
        threshold = np.full(trees.size, np.nan)
        improvement = np.zeros(trees.size)
        # The tree id, then the NodeTable columns less left and right.
        levels.append((trees, feature, threshold, value, sizes, sse,
                       np.full(trees.size, depth), improvement, lower, upper))
        open_ = np.flatnonzero(sizes >= min_split) if depth < max_depth else []
        if not len(open_):
            break
        gain, feat, thr = _search_level([rows[k] for k in open_],
                                        trees[open_], sse[open_], rank,
                                        xsorted, ysorted, min_leaf)
        keep = (feat >= 0) & (gain >= min_decrease)
        split, feat, thr = open_[keep], feat[keep], thr[keep]
        if not split.size:
            break
        feature[split], threshold[split] = feat, thr
        improvement[split] = gain[keep]
        children = []
        for k, f, t in zip(split.tolist(), feat.tolist(), thr.tolist()):
            mask = x_cols[f][rows[k]] <= t
            children += [rows[k][mask], rows[k][~mask]]
        trees, rows = np.repeat(trees[split], 2), children
        left = 2 * np.arange(split.size)
        lower = np.repeat(lower[split], 2, axis=0)
        upper = np.repeat(upper[split], 2, axis=0)
        upper[left, feat] = thr
        lower[left + 1, feat] = thr
    tree, *columns = (np.concatenate(c) for c in zip(*levels))
    by_tree = np.argsort(tree, kind="stable")
    ends = np.cumsum(np.bincount(tree, minlength=Y.shape[1]))[:-1]
    tables = []
    for part in np.split(by_tree, ends):
        feature, threshold, *rest = (c[part] for c in columns)
        is_split = feature >= 0
        left = np.where(is_split, 2 * np.cumsum(is_split) - 1, -1)
        right = np.where(is_split, left + 1, -1)
        tables.append(NodeTable(feature, threshold, left, right, *rest))
    return tables


def check_growth_params(max_depth, min_samples_leaf,
                        min_impurity_decrease=1e-10) -> None:
    """Raise :class:`ModelError` unless ``max_depth >= 0`` and
    ``min_samples_leaf >= 1`` are integers and ``min_impurity_decrease``
    is finite and ``>= 0`` (a NaN one would fit a one-node stump)."""
    for name, value, low in (("max_depth", max_depth, 0),
                             ("min_samples_leaf", min_samples_leaf, 1)):
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral) or value < low:
            raise ModelError(f"{name} must be an integer >= {low}, "
                             f"got {value!r}")
    if not 0 <= min_impurity_decrease < np.inf:
        raise ModelError(f"min_impurity_decrease must be finite and >= 0, "
                         f"got {min_impurity_decrease}")


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
        check_growth_params(max_depth, min_samples_leaf,
                            min_impurity_decrease)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self.min_impurity_decrease = min_impurity_decrease
        self._table: Optional[NodeTable] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "RegressionTree":
        """Fit the tree on ``X`` of shape (n, d) and targets ``y`` of shape (n,)."""
        X, y = as_training_data(X, y)
        self._table, = self._grow(X, y[:, None])
        return self

    def fit_columns(self, X, Y) -> List["RegressionTree"]:
        """One tree per column of ``Y`` (n, T), all grown together on ``X``.

        Each returned tree is a copy of this one, fitted on its column,
        and equals a separate :meth:`fit` bit for bit; growing them
        together shares the presort of ``X`` and every level's split
        search.  ``self`` is not modified.
        """
        X, Y = as_training_data(X, Y, ndim=2)
        trees = []
        for table in self._grow(X, Y):
            tree = copy.copy(self)
            tree._table = table
            trees.append(tree)
        return trees

    def _grow(self, X: np.ndarray, Y: np.ndarray) -> List[NodeTable]:
        return _grow(X, Y, self.max_depth, self.min_samples_leaf,
                     self.min_samples_split, self.min_impurity_decrease)

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    @property
    def table(self) -> NodeTable:
        """The fitted nodes, one row each, breadth-first from the root."""
        if self._table is None:
            raise NotFittedError(
                "RegressionTree is not fitted; call fit or fit_columns first")
        return self._table

    @property
    def n_features(self) -> int:
        """Number of input features seen at fit time."""
        return self.table.lower.shape[1]

    def predict(self, X) -> np.ndarray:
        """Predict targets for rows of ``X``.

        Rows are routed level by level: each step moves every row still
        at a split node to its child with one vectorized comparison, so
        prediction costs O(depth) numpy operations instead of a Python
        loop over rows — the explorer evaluates candidate batches of
        thousands of configurations through this path.
        """
        table = self.table
        X = as_2d_float_array(X, name="X")
        if X.shape[1] != self.n_features:
            raise ModelError(
                f"X has {X.shape[1]} features, tree was fitted with "
                f"{self.n_features}"
            )
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            feature = table.feature[node]
            goes_left = X[rows, feature] <= table.threshold[node]
            node = np.where(feature < 0, node, np.where(
                goes_left, table.left[node], table.right[node]))
        return table.value[node]

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return self.table.feature.size

    @property
    def depth(self) -> int:
        """Maximum depth over all nodes (0 for a stump): the last row's."""
        return int(self.table.depth[-1])

    def _split_rows(self) -> np.ndarray:
        """Table rows of the split nodes, in construction order."""
        return np.flatnonzero(self.table.feature >= 0)

    @property
    def splits(self) -> List[SplitRecord]:
        """Splits in construction (breadth-first) order."""
        table, at = self.table, self._split_rows()
        return [SplitRecord(position, *fields) for position, fields in
                enumerate(zip(table.depth[at].tolist(),
                              table.feature[at].tolist(),
                              table.threshold[at].tolist(),
                              table.improvement[at].tolist()))]

    # ------------------------------------------------------------------
    # Parameter-importance measures (Figure 11)
    # ------------------------------------------------------------------
    def split_counts(self) -> np.ndarray:
        """Number of splits on each feature ("split frequency")."""
        return np.bincount(self.table.feature[self._split_rows()],
                           minlength=self.n_features)

    def first_split_positions(self) -> np.ndarray:
        """Breadth-first position of each feature's earliest split.

        Features that are never split get position ``n_splits`` (i.e.,
        strictly after every real split), so lower is more important.
        """
        features = self.table.feature[self._split_rows()]
        pos = np.full(self.n_features, features.size)
        np.minimum.at(pos, features, np.arange(features.size))
        return pos

    def split_order_scores(self) -> np.ndarray:
        """Importance in ``[0, 1]`` derived from first-split position.

        Features split earliest score near 1; never-split features score 0
        — the quantity visualised by spoke length in the paper's Figure
        11(a) star plots.
        """
        n = self._split_rows().size
        if n == 0:
            return np.zeros(self.n_features)
        pos = self.first_split_positions().astype(float)
        return np.clip(1.0 - pos / n, 0.0, 1.0)

    def importance_by_improvement(self) -> np.ndarray:
        """Total SSE reduction attributed to each feature, normalized to sum 1.

        ``np.bincount`` adds the weights in table order, the same
        sequential sums as accumulating the splits one by one.
        """
        at = self._split_rows()
        gain = np.bincount(self.table.feature[at],
                           weights=self.table.improvement[at],
                           minlength=self.n_features)
        total = gain.sum()
        return gain / total if total > 0 else gain
