"""Tree-seeded Gaussian radial basis function networks.

Implements the paper's Section 2.2 model: an RBF network

    f(x) = sum_i w_i * phi_i(||(x - mu_i) / theta_i||)

with Gaussian basis functions, whose centers ``mu_i`` and radius vectors
``theta_i`` come from the nodes of a regression tree (the strategy of Orr
et al. 2000, the paper's reference [16]): every tree node contributes one
candidate unit centered at its bounding-box midpoint with radii
proportional to the box widths.  The output weights are then solved by
ridge regression with the regularization strength chosen by Generalized
Cross-Validation (GCV), or alternatively by greedy forward selection of
units.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro._validation import as_2d_float_array
from repro.errors import ModelError, NotFittedError
from repro.core.regression_tree import (RegressionTree, as_training_data,
                                        check_growth_params)

#: Weight-solving strategies.
SOLVERS = ("ridge_gcv", "forward")

#: Default grid of ridge penalties scanned by GCV.
DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.logspace(-8, 2, 21))


#: Rows of ``X`` per block in :func:`_design_matrix`.  Bounds the
#: ``(d, rows, m)`` term buffer to a cache-sized slab instead of ``d``
#: ``(n, m)`` arrays per call (tens of MB for a 4,096-candidate search),
#: and caps the distinct values a column may have to be tabulated.
DESIGN_BLOCK_ROWS = 128

#: Terms summed by one unrolled pass of NumPy's pairwise sum; longer
#: sums split in two (see :func:`_pairwise_sum`).
PAIRWISE_BLOCK = 128


def _factorize(X: np.ndarray) -> list:
    """Per column of ``X``: ``(levels, codes)`` or ``None``.

    ``levels`` are the column's distinct values and ``codes`` index them
    row by row (``np.unique(..., return_inverse=True)``).  A column with
    more than :data:`DESIGN_BLOCK_ROWS` distinct values gets ``None``:
    :func:`_design_matrix` computes it block by block instead of
    tabulating it.  Call sites that evaluate many networks on one ``X``
    factorize it once and pass the result along.
    """
    columns = []
    for column in X.T:
        levels, codes = np.unique(column, return_inverse=True)
        columns.append((levels, codes) if levels.size <= DESIGN_BLOCK_ROWS
                       else None)
    return columns


def _squared_terms(values: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray, out: Optional[np.ndarray] = None):
    """``((values[:, None] - centers) / radii) ** 2`` as ``z * z``, ``(len, m)``."""
    z = np.subtract.outer(values, centers, out=out)
    z /= radii
    z *= z
    return z


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum ``terms`` over its first axis, in place, in NumPy's pairwise order.

    ``np.add.reduce`` over a contiguous axis of length ``d`` adds
    sequentially when ``d < 8``; up to :data:`PAIRWISE_BLOCK` it keeps
    eight stride-8 accumulators, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the tail one by
    one; beyond that it sums two halves split at a multiple of 8.  This
    replays that order element-wise over ``(d, ...)`` stacked terms, so
    every element gets the bits a reduce over its own length-``d`` row
    would.  The reduce's leading ``0 +`` is left out: it changes only a
    sum of ``-0.0``, and squares are never ``-0.0``.  ``terms`` is
    overwritten; the returned view holds the sum.
    """
    d = terms.shape[0]
    if d > PAIRWISE_BLOCK:
        half = d // 2
        half -= half % 8
        head = _pairwise_sum(terms[:half])
        head += _pairwise_sum(terms[half:])
        return head
    acc = terms[0]
    if d < 8:
        for term in terms[1:]:
            acc += term
        return acc
    tail = d - d % 8
    for start in range(8, tail, 8):
        terms[:8] += terms[start:start + 8]
    terms[0:8:2] += terms[1:8:2]        # r0+r1, r2+r3, r4+r5, r6+r7
    terms[0:8:4] += terms[2:8:4]        # (r0+r1)+(r2+r3), (r4+r5)+(r6+r7)
    acc += terms[4]
    for term in terms[tail:]:
        acc += term
    return acc


def _design_matrix(X: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                   columns: Optional[list] = None,
                   bias: bool = False) -> np.ndarray:
    """Gaussian activations: Phi[i, j] = exp(-sum_d ((x_id - mu_jd)/theta_jd)^2).

    Feature-major: each block of :data:`DESIGN_BLOCK_ROWS` rows fills one
    contiguous ``(rows, m)`` squared term per feature, sums the ``d``
    terms with :func:`_pairwise_sum`, then negates and exponentiates in
    place.  Every term uses the scalar operations of the broadcast
    formula ``exp(-np.sum(z * z, axis=2))`` and the sum follows
    ``np.add.reduce``'s order, so the result is bit-identical to it, and
    blocking cannot change an element's bits.  A factorized column
    (``columns``, see :func:`_factorize`; computed here when omitted)
    computes its ``(levels, m)`` terms once and each block gathers them
    with ``np.take``.  ``bias=True`` returns ``(n, m + 1)`` with a last
    column of ones.
    """
    n, d = X.shape
    m = centers.shape[0]
    if columns is None:
        columns = _factorize(X)
    mu = np.ascontiguousarray(centers.T)
    theta = np.ascontiguousarray(radii.T)
    tables = [None if column is None
              else _squared_terms(column[0], mu[k], theta[k])
              for k, column in enumerate(columns)]
    out = np.empty((n, m + 1) if bias else (n, m))
    if bias:
        out[:, m] = 1.0
    terms = np.empty((d, min(n, DESIGN_BLOCK_ROWS), m))
    for start in range(0, n, DESIGN_BLOCK_ROWS):
        stop = min(start + DESIGN_BLOCK_ROWS, n)
        block = terms[:, :stop - start]
        for k, table in enumerate(tables):
            if table is None:
                _squared_terms(X[start:stop, k], mu[k], theta[k], out=block[k])
            else:
                np.take(table, columns[k][1][start:stop], axis=0,
                        out=block[k], mode="clip")
        acc = _pairwise_sum(block)
        np.negative(acc, out=acc)
        np.exp(acc, out=out[start:stop, :m])
    return out


def _gcv_ridge(phi: np.ndarray, y: np.ndarray,
               lambda_grid: Sequence[float]):
    """Ridge weights with lambda chosen by GCV, via SVD of ``phi``.

    Returns ``(weights, best_lambda, gcv_score)``.  The grid is scored in
    one ``(L, k)`` pass; the first lambda with the lowest score wins and
    only its weights are solved.  Each row sum is the same pairwise sum
    as a 1-D ``np.sum`` of that row, and the per-lambda tail stays in
    Python floats: ``denom ** 2`` there is libm ``pow``, which differs
    from NumPy's ``x * x`` square in the last bit for about one value
    in a thousand.
    """
    n = phi.shape[0]
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    uty = u.T @ y
    y_norm2 = float(y @ y)
    lams = np.asarray(lambda_grid, dtype=float)
    ss = s * s
    shrink = ss / (ss + lams[:, None])       # diagonals of the hat matrix core
    fitted_norm2 = np.sum((shrink * uty) ** 2, axis=1).tolist()
    cross = np.sum(shrink * uty * uty, axis=1).tolist()
    trace_s = np.sum(shrink, axis=1).tolist()
    scores = [
        n * max(y_norm2 - 2.0 * c + f, 0.0) / max(n - t, 1e-9) ** 2
        for f, c, t in zip(fitted_norm2, cross, trace_s)
    ]
    best = min(range(len(scores)), key=scores.__getitem__)
    lam = lambda_grid[best]
    coef = vt.T @ ((s / (ss + lam)) * uty)
    return coef, lam, scores[best]


class RBFNetwork:
    """Gaussian RBF network with regression-tree center selection.

    Parameters
    ----------
    max_depth, min_samples_leaf:
        Passed to the underlying :class:`~repro.core.regression_tree.RegressionTree`.
    radius_scale:
        Multiplier applied to each node's half box widths to obtain the
        per-dimension radii; larger values give smoother interpolants.
    min_radius:
        Floor applied to every radius so degenerate (zero-width) box
        dimensions still produce finite activations.
    solver:
        ``"ridge_gcv"`` (default) solves weights over all candidate units
        with GCV-selected ridge penalty; ``"forward"`` greedily adds units
        while GCV improves (Orr's forward-selection variant).
    lambda_grid:
        Ridge penalties scanned by GCV.
    include_bias:
        Add a constant unit so the network can express the output mean
        directly.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.uniform(size=(80, 2))
    >>> y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
    >>> net = RBFNetwork(max_depth=4, min_samples_leaf=4).fit(X, y)
    >>> float(np.abs(net.predict(X) - y).mean()) < 0.2
    True
    """

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 5,
                 radius_scale: float = 1.5, min_radius: float = 0.05,
                 solver: str = "ridge_gcv",
                 lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
                 include_bias: bool = True):
        check_growth_params(max_depth, min_samples_leaf)
        if solver not in SOLVERS:
            raise ModelError(f"unknown solver {solver!r}; choose from {SOLVERS}")
        for name, value in (("radius_scale", radius_scale),
                            ("min_radius", min_radius)):
            if not 0 < value < np.inf:
                raise ModelError(f"{name} must be finite and positive, "
                                 f"got {value}")
        lambda_grid = tuple(float(lam) for lam in lambda_grid)
        if not lambda_grid or not all(0 < lam < np.inf for lam in lambda_grid):
            raise ModelError(f"lambda_grid must be a non-empty sequence of "
                             f"finite values > 0, got {lambda_grid}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.radius_scale = radius_scale
        self.min_radius = min_radius
        self.solver = solver
        self.lambda_grid = lambda_grid
        self.include_bias = include_bias
        # Fitted state
        self.tree_: Optional[RegressionTree] = None
        self.centers_: Optional[np.ndarray] = None
        self.radii_: Optional[np.ndarray] = None
        self.weights_: Optional[np.ndarray] = None
        self.bias_: float = 0.0
        self.lambda_: Optional[float] = None
        self.gcv_: Optional[float] = None

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "RBFNetwork":
        """Fit tree, derive candidate units, solve output weights."""
        X, y = as_training_data(X, y)
        return self._fit_weights(X, y, self._tree().fit(X, y), _factorize(X))

    def fit_columns(self, X, Y) -> List["RBFNetwork"]:
        """One network per column of ``Y`` (n, T), their trees grown together.

        Each returned network is a copy of this one, fitted on its
        column, and equals a separate :meth:`fit` bit for bit (see
        :meth:`RegressionTree.fit_columns`).  ``self`` is not modified.
        """
        X, Y = as_training_data(X, Y, ndim=2)
        trees = self._tree().fit_columns(X, Y)
        columns = _factorize(X)
        return [copy.copy(self)._fit_weights(X, y, tree, columns)
                for y, tree in zip(np.ascontiguousarray(Y.T), trees)]

    def _tree(self) -> RegressionTree:
        return RegressionTree(max_depth=self.max_depth,
                              min_samples_leaf=self.min_samples_leaf)

    def _fit_weights(self, X: np.ndarray, y: np.ndarray,
                     tree: RegressionTree, columns: list) -> "RBFNetwork":
        """Derive candidate units from the fitted ``tree``, solve weights.

        ``columns`` is :func:`_factorize` of ``X``.
        """
        self.tree_ = tree
        self.centers_, self.radii_ = self._units_from_tree()
        # Work on centred targets; the intercept absorbs the mean, which
        # keeps the ridge penalty from shrinking the overall level.
        self.bias_ = float(y.mean())
        resid = y - self.bias_
        phi = _design_matrix(X, self.centers_, self.radii_, columns,
                             self.include_bias)
        if self.solver == "ridge_gcv":
            coef, lam, gcv = _gcv_ridge(phi, resid, self.lambda_grid)
            self.weights_, self.lambda_, self.gcv_ = coef, lam, gcv
        else:
            self.weights_, self.lambda_, self.gcv_ = self._forward_select(phi, resid)
        return self

    def _units_from_tree(self):
        """Candidate centers/radii from every tree node's bounding box.

        One unit per node, in breadth-first order: centered at the box
        midpoint, with radii ``radius_scale`` times the half widths,
        floored at ``min_radius``.
        """
        table = self.tree_.table
        radii = np.maximum((table.upper - table.lower) / 2.0
                           * self.radius_scale, self.min_radius)
        return (table.lower + table.upper) / 2.0, radii

    def _forward_select(self, phi: np.ndarray, y: np.ndarray):
        """Greedy forward selection of columns of ``phi`` minimizing GCV."""
        n, m = phi.shape
        selected: list = []
        remaining = list(range(m))
        best_overall = None
        lam = 1e-6
        while remaining:
            best_step = None
            for j in remaining:
                cols = selected + [j]
                sub = phi[:, cols]
                coef, _, gcv = _gcv_ridge(sub, y, (lam,))
                if best_step is None or gcv < best_step[2]:
                    best_step = (j, coef, gcv)
            j, coef, gcv = best_step
            if best_overall is not None and gcv >= best_overall[2] - 1e-12:
                break
            selected.append(j)
            remaining.remove(j)
            best_overall = (list(selected), coef, gcv)
            if len(selected) >= min(n // 2, m):
                break
        cols, coef, gcv = best_overall
        weights = np.zeros(m)
        weights[cols] = coef
        return weights, lam, gcv

    # ------------------------------------------------------------------
    @property
    def n_units(self) -> int:
        """Number of candidate RBF units (excluding the bias column)."""
        self._check_fitted()
        return self.centers_.shape[0]

    def predict(self, X) -> np.ndarray:
        """Evaluate the network at rows of ``X``."""
        self._check_fitted()
        X = as_2d_float_array(X, name="X")
        if X.shape[1] != self.centers_.shape[1]:
            raise ModelError(
                f"X has {X.shape[1]} features, network was fitted with "
                f"{self.centers_.shape[1]}"
            )
        return self._predict(X, _factorize(X))

    def _predict(self, X: np.ndarray, columns: list) -> np.ndarray:
        """:meth:`predict` on validated ``X`` and its :func:`_factorize`."""
        phi = _design_matrix(X, self.centers_, self.radii_, columns,
                             self.include_bias)
        return phi @ self.weights_ + self.bias_

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise NotFittedError("RBFNetwork is not fitted; call fit or "
                                 "fit_columns first")
