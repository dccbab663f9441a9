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

The split search sorts the training data once per tree: the root takes a
stable ``argsort`` of every column of ``X``, and each child inherits its
parent's per-feature order filtered to the child's rows (the split mask
keeps relative row order, so the filtered stable order *is* the child's
stable order) and renumbered to the child's row indices.  Each node then
scores every candidate threshold of every feature in one vectorized
``(n - 1, d)`` prefix-sum pass; no node re-sorts.
"""

from __future__ import annotations

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


def _best_split(X: np.ndarray, y: np.ndarray, order: np.ndarray,
                total_sse: float, min_leaf: int):
    """Exact best (feature, threshold) by SSE reduction, or ``None``.

    ``order`` is the node's ``(n, d)`` per-feature stable sort order of
    ``X`` (column ``f`` lists the node's rows by ascending ``X[:, f]``),
    inherited from the parent rather than re-sorted; ``total_sse`` is
    the node's SSE about its mean (``TreeNode.sse``).  The candidate
    thresholds are midpoints between consecutive distinct sorted values.
    Column-wise prefix sums give every candidate's two-sided SSE for all
    features in one ``(n - 1, d)`` pass; each column's ``cumsum`` is the
    same sequential accumulation as a 1-D ``cumsum`` of that feature, so
    the scores match a per-feature scan bit for bit.  Features with no
    valid threshold are skipped, and on (near-)equal improvements the
    lowest feature index wins.
    """
    n, d = X.shape
    if n < 2 * min_leaf:
        return None
    cols = np.arange(d)
    xs = X[order, cols]
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(ys * ys, axis=0)
    total_sum, total_sum2 = csum[-1], csum2[-1]
    # Split after row i (count i+1 on the left), one column per feature.
    counts = np.arange(1, n)[:, None]
    left_sum = csum[:-1]
    left_sse = csum2[:-1] - left_sum ** 2 / counts
    right_cnt = n - counts
    right_sum = total_sum - left_sum
    right_sse = (total_sum2 - csum2[:-1]) - right_sum ** 2 / right_cnt
    sse = left_sse + right_sse
    valid = (counts >= min_leaf) & (right_cnt >= min_leaf) & (xs[:-1] < xs[1:])
    sse = np.where(valid, sse, np.inf)
    rows = np.argmin(sse, axis=0)
    minima = sse[rows, cols].tolist()
    best = None
    for feat in np.flatnonzero(valid.any(axis=0)).tolist():
        improvement = total_sse - minima[feat]
        if best is None or improvement > best[0] + 1e-12:
            i = rows[feat]
            threshold = 0.5 * (xs[i, feat] + xs[i + 1, feat])
            best = (improvement, feat, float(threshold))
    return best


def _child_order(order: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The parent's per-feature ``order`` restricted to the rows in ``mask``.

    Filtering keeps each column's relative order, and ``cumsum(mask) - 1``
    renumbers the surviving parent rows to the child's row indices.
    """
    keep = mask[order]
    rank = np.cumsum(mask) - 1
    kept = order.T[keep.T].reshape(order.shape[1], -1)
    return rank[kept].T


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
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size != X.shape[0]:
            raise ModelError(
                f"y must be 1-D with len(y) == X.shape[0], got {y.shape} vs {X.shape}"
            )
        self._n_features = X.shape[1]
        self._splits = []
        lower = X.min(axis=0)
        upper = X.max(axis=0)
        # Breadth-first construction so SplitRecord.position reflects the
        # order in which the most significant partitions were made.
        root = self._make_node(y, 0, lower.copy(), upper.copy())
        queue = deque([(root, X, y, np.argsort(X, axis=0, kind="stable"))])
        while queue:
            node, Xn, yn, order = queue.popleft()
            if node.depth >= self.max_depth or yn.size < self.min_samples_split:
                continue
            found = _best_split(Xn, yn, order, node.sse, self.min_samples_leaf)
            if found is None:
                continue
            improvement, feat, thr = found
            if improvement < self.min_impurity_decrease:
                continue
            mask = Xn[:, feat] <= thr
            node.feature, node.threshold = feat, thr
            self._splits.append(SplitRecord(
                position=len(self._splits), depth=node.depth,
                feature=feat, threshold=thr, improvement=improvement,
            ))
            lo_l, up_l = node.lower.copy(), node.upper.copy()
            up_l[feat] = thr
            lo_r, up_r = node.lower.copy(), node.upper.copy()
            lo_r[feat] = thr
            node.left = self._make_node(yn[mask], node.depth + 1, lo_l, up_l)
            node.right = self._make_node(yn[~mask], node.depth + 1, lo_r, up_r)
            queue.append((node.left, Xn[mask], yn[mask],
                          _child_order(order, mask)))
            queue.append((node.right, Xn[~mask], yn[~mask],
                          _child_order(order, ~mask)))
        self._root = root
        return self

    @staticmethod
    def _make_node(y: np.ndarray, depth: int,
                   lower: np.ndarray, upper: np.ndarray) -> TreeNode:
        value = float(y.mean())
        return TreeNode(
            depth=depth,
            value=value,
            n_samples=int(y.size),
            sse=float(np.sum((y - value) ** 2)),
            lower=lower,
            upper=upper,
        )

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
