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
from repro.core.regression_tree import RegressionTree, as_targets

#: Weight-solving strategies.
SOLVERS = ("ridge_gcv", "forward")

#: Default grid of ridge penalties scanned by GCV.
DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.logspace(-8, 2, 21))


#: Rows of ``X`` per block in :func:`_design_matrix`.  Bounds each
#: ``(rows, m, d)`` temporary to a cache-sized slab instead of one
#: ``(n, m, d)`` array per call (tens of MB for a 4,096-candidate search).
DESIGN_BLOCK_ROWS = 128


def _design_matrix(X: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray) -> np.ndarray:
    """Gaussian activations: Phi[i, j] = exp(-sum_d ((x_id - mu_jd)/theta_jd)^2).

    Computed in blocks of :data:`DESIGN_BLOCK_ROWS` rows into one
    preallocated output.  Blocking is bit-exact: every element's sum
    runs over the last (``d``) axis of that element's own contiguous
    row, so which other rows share its block cannot change its bits.
    """
    out = np.empty((X.shape[0], centers.shape[0]))
    for start in range(0, X.shape[0], DESIGN_BLOCK_ROWS):
        stop = start + DESIGN_BLOCK_ROWS
        # (b, 1, d) - (1, m, d) -> (b, m, d)
        z = (X[start:stop, None, :] - centers[None, :, :]) / radii[None, :, :]
        np.exp(-np.sum(z * z, axis=2), out=out[start:stop])
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
        if solver not in SOLVERS:
            raise ModelError(f"unknown solver {solver!r}; choose from {SOLVERS}")
        if radius_scale <= 0:
            raise ModelError(f"radius_scale must be positive, got {radius_scale}")
        if min_radius <= 0:
            raise ModelError(f"min_radius must be positive, got {min_radius}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.radius_scale = radius_scale
        self.min_radius = min_radius
        self.solver = solver
        self.lambda_grid = tuple(lambda_grid)
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
        X = as_2d_float_array(X, name="X")
        y = as_targets(y, X.shape[0])
        return self._fit_weights(X, y, self._tree().fit(X, y))

    def fit_columns(self, X, Y) -> List["RBFNetwork"]:
        """One network per column of ``Y`` (n, T), their trees grown together.

        Each returned network is a copy of this one, fitted on its
        column, and equals a separate :meth:`fit` bit for bit (see
        :meth:`RegressionTree.fit_columns`).  ``self`` is not modified.
        """
        X = as_2d_float_array(X, name="X")
        Y = as_targets(Y, X.shape[0], ndim=2)
        trees = self._tree().fit_columns(X, Y)
        return [copy.copy(self)._fit_weights(X, y, tree)
                for y, tree in zip(np.ascontiguousarray(Y.T), trees)]

    def _tree(self) -> RegressionTree:
        return RegressionTree(max_depth=self.max_depth,
                              min_samples_leaf=self.min_samples_leaf)

    def _fit_weights(self, X: np.ndarray, y: np.ndarray,
                     tree: RegressionTree) -> "RBFNetwork":
        """Derive candidate units from the fitted ``tree``, solve weights."""
        self.tree_ = tree
        self.centers_, self.radii_ = self._units_from_tree()
        # Work on centred targets; the intercept absorbs the mean, which
        # keeps the ridge penalty from shrinking the overall level.
        self.bias_ = float(y.mean())
        resid = y - self.bias_
        phi = _design_matrix(X, self.centers_, self.radii_)
        if self.include_bias:
            phi = np.hstack([phi, np.ones((phi.shape[0], 1))])
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
        nodes = list(self.tree_.nodes())
        lower = np.array([node.lower for node in nodes])
        upper = np.array([node.upper for node in nodes])
        radii = np.maximum((upper - lower) / 2.0 * self.radius_scale,
                           self.min_radius)
        return (lower + upper) / 2.0, radii

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
        phi = _design_matrix(X, self.centers_, self.radii_)
        if self.include_bias:
            phi = np.hstack([phi, np.ones((phi.shape[0], 1))])
        return phi @ self.weights_ + self.bias_

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise NotFittedError("RBFNetwork.predict called before fit")
