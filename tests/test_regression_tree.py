"""Unit and property tests for repro.core.regression_tree."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import WaveletNeuralPredictor
from repro.core.rbf import RBFNetwork
from repro.core.regression_tree import RegressionTree, SplitRecord
from repro.core.wavelets import dwt_batch
from repro.engine import create_engine
from repro.errors import ModelError, NotFittedError
from repro.experiments.context import ExperimentContext, Scale


def _step_data(n=64, d=3, split_feature=1, threshold=0.5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = (X[:, split_feature] > threshold).astype(float) * 10.0
    return X, y


class TestFitting:
    def test_recovers_single_split(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        assert tree.table.feature.tolist() == [1, -1, -1]
        assert tree.table.threshold[0] == pytest.approx(0.5, abs=0.08)

    def test_predictions_are_leaf_means(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        pred = tree.predict(X)
        assert np.allclose(np.unique(np.round(pred, 6)),
                           np.unique(np.round([y[y < 5].mean(), y[y >= 5].mean()], 6)))

    def test_max_depth_zero_gives_stump(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert tree.table.feature.tolist() == [-1]
        assert tree.predict(X[:3]) == pytest.approx([y.mean()] * 3)

    def test_constant_target_never_splits(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 4))
        tree = RegressionTree().fit(X, np.full(50, 3.0))
        assert tree.table.feature.tolist() == [-1]
        assert tree.n_nodes == 1

    def test_min_samples_leaf_respected(self):
        X, y = _step_data(n=40)
        tree = RegressionTree(max_depth=8, min_samples_leaf=7).fit(X, y)
        table = tree.table
        assert np.all(table.n_samples[table.feature < 0] >= 7)

    def test_deeper_tree_fits_better(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(200, 2))
        y = np.sin(5 * X[:, 0]) * np.cos(3 * X[:, 1])
        shallow = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        deep = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, y)
        err_shallow = np.mean((shallow.predict(X) - y) ** 2)
        err_deep = np.mean((deep.predict(X) - y) ** 2)
        assert err_deep < err_shallow

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ModelError):
            RegressionTree(max_depth=-1)
        with pytest.raises(ModelError):
            RegressionTree(min_samples_leaf=0)
        # Checked at construction, not at fit: a NaN threshold would
        # otherwise fit a one-node stump without error.
        for params in (dict(min_impurity_decrease=np.nan),
                       dict(min_impurity_decrease=np.inf),
                       dict(min_impurity_decrease=-1.0),
                       dict(max_depth=2.5), dict(min_samples_leaf=2.0)):
            with pytest.raises(ModelError):
                RegressionTree(**params)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            RegressionTree().fit(np.ones((4, 2)), np.ones(5))
        with pytest.raises(ModelError):
            RegressionTree().fit_columns(np.ones((4, 2)), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        X, y = _step_data()
        y[17] = bad
        with pytest.raises(ModelError, match="non-finite"):
            RegressionTree().fit(X, y)
        with pytest.raises(ModelError, match="non-finite"):
            RegressionTree().fit_columns(X, np.column_stack([X[:, 0], y]))

    def test_predict_before_fit_raises(self):
        """Every accessor of an unfitted tree raises, naming no one accessor."""
        for accessor in (
                lambda tree: tree.predict([[1.0]]),
                lambda tree: tree.table,
                lambda tree: tree.n_features,
                lambda tree: tree.n_nodes,
                lambda tree: tree.depth,
                lambda tree: tree.splits,
                lambda tree: tree.split_counts(),
                lambda tree: tree.first_split_positions(),
                lambda tree: tree.split_order_scores(),
                lambda tree: tree.importance_by_improvement()):
            with pytest.raises(NotFittedError,
                               match="^RegressionTree is not fitted; call fit"):
                accessor(RegressionTree())

    @pytest.mark.parametrize("fit", [
        lambda X: RegressionTree().fit(X, np.zeros(X.shape[0])),
        lambda X: RegressionTree().fit_columns(X, np.zeros((X.shape[0], 2))),
        lambda X: RBFNetwork().fit(X, np.zeros(X.shape[0])),
        lambda X: RBFNetwork().fit_columns(X, np.zeros((X.shape[0], 2))),
    ], ids=["tree.fit", "tree.fit_columns", "rbf.fit", "rbf.fit_columns"])
    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0, 0), (3,),
                                       (2, 2, 2)], ids=str)
    def test_empty_X_rejected(self, fit, shape):
        with pytest.raises(ModelError, match="at least one row and one column"):
            fit(np.empty(shape))

    @pytest.mark.parametrize("model", [RegressionTree, RBFNetwork],
                             ids=["tree.predict", "rbf.predict"])
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=str)
    def test_predict_non_2d_X_rejected(self, model, shape):
        X, y = _step_data(d=2)
        fitted = model().fit(X, y)
        with pytest.raises(ModelError, match="X must be 2-D"):
            fitted.predict(np.empty(shape))
        assert fitted.predict(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("call", [
        lambda X, y: RegressionTree().fit(X, y),
        lambda X, y: RegressionTree().fit_columns(X, np.column_stack([y, y])),
        lambda X, y: RegressionTree().fit(np.ones_like(X), y).predict(X),
        lambda X, y: RBFNetwork().fit(X, y),
        lambda X, y: RBFNetwork().fit_columns(X, np.column_stack([y, y])),
        lambda X, y: RBFNetwork().fit(np.ones_like(X), y).predict(X),
    ], ids=["tree.fit", "tree.fit_columns", "tree.predict", "rbf.fit",
            "rbf.fit_columns", "rbf.predict"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=str)
    def test_non_finite_X_rejected(self, call, bad):
        X, y = _step_data(d=2)
        X[5, 1] = bad
        with pytest.raises(ModelError, match="X contains non-finite"):
            call(X, y)

    def test_predict_wrong_width_rejected(self):
        X, y = _step_data(d=3)
        tree = RegressionTree().fit(X, y)
        with pytest.raises(ModelError):
            tree.predict(np.ones((2, 5)))


class TestStructure:
    def test_bounding_boxes_nested(self):
        X, y = _step_data(n=128, d=2, seed=3)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        t = tree.table
        parents = np.flatnonzero(t.feature >= 0)
        assert parents.size > 0
        for children in (t.left[parents], t.right[parents]):
            assert np.all(t.lower[children] >= t.lower[parents] - 1e-12)
            assert np.all(t.upper[children] <= t.upper[parents] + 1e-12)

    def test_children_partition_samples(self):
        X, y = _step_data(n=100, seed=4)
        tree = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y)
        t = tree.table
        parents = np.flatnonzero(t.feature >= 0)
        assert parents.size > 0
        assert np.array_equal(
            t.n_samples[t.left[parents]] + t.n_samples[t.right[parents]],
            t.n_samples[parents])

    def test_table_is_breadth_first(self):
        X, y = _step_data(n=100, seed=4)
        t = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y).table
        parents = np.flatnonzero(t.feature >= 0)
        leaves = t.feature < 0
        assert np.array_equal(t.left[parents], 2 * np.arange(parents.size) + 1)
        assert np.array_equal(t.right[parents], t.left[parents] + 1)
        assert np.array_equal(t.depth[t.left[parents]], t.depth[parents] + 1)
        assert t.feature.size == 2 * parents.size + 1
        assert np.all(np.isnan(t.threshold[leaves]))
        assert np.all(t.left[leaves] == -1) and np.all(t.right[leaves] == -1)
        assert np.all(t.improvement[leaves] == 0.0)
        assert np.all(t.improvement[parents] > 0.0)

    def test_leaf_count_bounds(self):
        X, y = _step_data(n=100, seed=5)
        tree = RegressionTree(max_depth=3, min_samples_leaf=5).fit(X, y)
        n_leaves = np.count_nonzero(tree.table.feature < 0)
        assert 1 <= n_leaves <= 2 ** 3

    def test_splits_are_records(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, y)
        assert all(isinstance(s, SplitRecord) for s in tree.splits)
        positions = [s.position for s in tree.splits]
        assert positions == sorted(positions)

    @given(st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_depth_never_exceeds_max_depth(self, max_depth):
        X, y = _step_data(n=80, seed=6)
        tree = RegressionTree(max_depth=max_depth, min_samples_leaf=2).fit(X, y)
        assert tree.depth <= max_depth


class TestImportance:
    def test_split_counts_identify_informative_feature(self):
        X, y = _step_data(n=200, d=4, split_feature=2, seed=7)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        counts = tree.split_counts()
        assert counts[2] == counts.max()

    def test_first_split_positions(self):
        X, y = _step_data(n=200, d=4, split_feature=2, seed=8)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        pos = tree.first_split_positions()
        assert pos[2] == 0  # most informative feature splits first

    def test_split_order_scores_in_unit_interval(self):
        X, y = _step_data(n=150, d=3, seed=9)
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(X, y)
        scores = tree.split_order_scores()
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        assert scores[1] == scores.max()  # the informative feature

    def test_importance_by_improvement_sums_to_one(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(150, 3))
        y = 2 * X[:, 0] + np.sin(6 * X[:, 1])
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(X, y)
        imp = tree.importance_by_improvement()
        assert imp.sum() == pytest.approx(1.0)
        assert np.all(imp >= 0.0)
        assert imp[2] == pytest.approx(min(imp), abs=1e-9)  # noise feature least important

    def test_stump_importance_all_zero(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert np.all(tree.split_order_scores() == 0.0)
        assert np.all(tree.split_counts() == 0)


class TestVectorizedPredict:
    """Level-wise routing must agree with a per-row walk of the reference."""

    def test_matches_reference_walk(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(300, 5))
        y = (np.sin(5 * X[:, 0]) + 2 * (X[:, 1] > 0.4)
             + 0.3 * rng.normal(size=300))
        params = dict(max_depth=7, min_samples_leaf=3)
        tree = RegressionTree(**params).fit(X, y)
        probe = rng.uniform(-0.2, 1.2, size=(500, 5))
        assert np.array_equal(tree.predict(probe),
                              _ReferenceTree(**params).fit(X, y).predict(probe))

    def test_threshold_boundary_routes_left(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 4)
        y = (X[:, 0] > 1.5).astype(float)
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        t = tree.table
        assert tree.predict([[t.threshold[0]]])[0] == t.value[t.left[0]]

    def test_stump_predicts_mean(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(X), y.mean())


def _reference_best_split(X, y, min_leaf):
    """Per-feature split search: re-sort and re-scan each column."""
    n, d = X.shape
    if n < 2 * min_leaf:
        return None
    total_sse = float(np.sum((y - y.mean()) ** 2))
    best = None
    for feat in range(d):
        order = np.argsort(X[:, feat], kind="stable")
        xs = X[order, feat]
        ys = y[order]
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        counts = np.arange(1, n)
        left_sum = csum[:-1]
        left_sse = csum2[:-1] - left_sum ** 2 / counts
        right_cnt = n - counts
        right_sum = csum[-1] - left_sum
        right_sse = (csum2[-1] - csum2[:-1]) - right_sum ** 2 / right_cnt
        sse = left_sse + right_sse
        valid = ((counts >= min_leaf) & (right_cnt >= min_leaf)
                 & (xs[:-1] < xs[1:]))
        if not np.any(valid):
            continue
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        improvement = total_sse - float(sse[i])
        if best is None or improvement > best[0] + 1e-12:
            best = (improvement, feat, float(0.5 * (xs[i] + xs[i + 1])))
    return best


@dataclass
class _ReferenceNode:
    depth: int
    value: float
    n_samples: int
    sse: float
    lower: np.ndarray
    upper: np.ndarray
    feature: Optional[int] = None
    threshold: Optional[float] = None
    improvement: Optional[float] = None
    left: Optional["_ReferenceNode"] = None
    right: Optional["_ReferenceNode"] = None


def _reference_node(y, depth, lower, upper):
    """A node with ``np.mean`` / ``np.sum`` statistics over its rows."""
    value = float(y.mean())
    return _ReferenceNode(depth=depth, value=value, n_samples=int(y.size),
                          sse=float(np.sum((y - value) ** 2)),
                          lower=lower, upper=upper)


class _ReferenceTree:
    """Breadth-first builder that re-sorts every feature at every node.

    It keeps its own node objects, statistics and split list, and shares
    no code with the grower; only the resolved hyper-parameters come
    from :class:`RegressionTree`.
    """

    def __init__(self, **params):
        resolved = RegressionTree(**params)
        self.max_depth = resolved.max_depth
        self.min_samples_leaf = resolved.min_samples_leaf
        self.min_samples_split = resolved.min_samples_split
        self.min_impurity_decrease = resolved.min_impurity_decrease

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.root = _reference_node(y, 0, X.min(axis=0), X.max(axis=0))
        self.nodes, self.splits = [self.root], []
        queue = [(self.root, X, y)]
        while queue:
            node, Xn, yn = queue.pop(0)
            if node.depth >= self.max_depth or yn.size < self.min_samples_split:
                continue
            found = _reference_best_split(Xn, yn, self.min_samples_leaf)
            if found is None or found[0] < self.min_impurity_decrease:
                continue
            improvement, feat, thr = found
            mask = Xn[:, feat] <= thr
            node.feature, node.threshold = feat, thr
            node.improvement = improvement
            self.splits.append((len(self.splits), node.depth, feat, thr,
                                improvement))
            lo_l, up_l = node.lower.copy(), node.upper.copy()
            up_l[feat] = thr
            lo_r, up_r = node.lower.copy(), node.upper.copy()
            lo_r[feat] = thr
            node.left = _reference_node(yn[mask], node.depth + 1, lo_l, up_l)
            node.right = _reference_node(yn[~mask], node.depth + 1, lo_r, up_r)
            self.nodes += [node.left, node.right]
            queue.append((node.left, Xn[mask], yn[mask]))
            queue.append((node.right, Xn[~mask], yn[~mask]))
        return self

    def predict(self, X):
        """Walk each row from the root, one node at a time."""
        out = np.empty(len(X))
        for i, row in enumerate(np.asarray(X, dtype=float)):
            node = self.root
            while node.feature is not None:
                node = (node.left if row[node.feature] <= node.threshold
                        else node.right)
            out[i] = node.value
        return out


def _exact(fields):
    """``fields`` with floats as ``.hex()`` and arrays as raw bytes."""
    return tuple(f.hex() if isinstance(f, float)
                 else f.tobytes() if isinstance(f, np.ndarray) else f
                 for f in fields)


def _fingerprint(tree):
    """Every split and every node field of a grown or reference tree.

    Both are listed breadth-first, field by field, floats as exact bit
    patterns.  A node's split fields (feature, threshold, improvement,
    left and right child positions) read ``None`` for a leaf.
    """
    if isinstance(tree, _ReferenceTree):
        at = {id(node): k for k, node in enumerate(tree.nodes)}
        nodes = [(n.depth, n.value, n.n_samples, n.sse, n.lower, n.upper)
                 + ((n.feature, n.threshold, n.improvement, at[id(n.left)],
                     at[id(n.right)]) if n.left else (None,) * 5)
                 for n in tree.nodes]
        return [_exact(s) for s in tree.splits], [_exact(n) for n in nodes]
    t = tree.table
    splits = [(r.position, r.depth, r.feature, r.threshold, r.improvement)
              for r in tree.splits]
    rows = zip(t.depth, t.value, t.n_samples, t.sse, t.lower, t.upper,
               t.feature, t.threshold, t.improvement, t.left, t.right)
    nodes = [row[:6] + (row[6:] if row[6] >= 0 else (None,) * 5)
             for row in rows]
    return [_exact(s) for s in splits], [_exact(n) for n in nodes]


class TestPresortedSplitSearch:
    """The presorted all-feature scan must rebuild the per-feature trees bit for bit."""

    @staticmethod
    def _case(index):
        rng = np.random.default_rng([index, 15])
        min_leaf = (1, 3, 5)[index % 3]
        d = 1 if index % 5 == 0 else int(rng.integers(2, 10))
        if index % 4 == 0:
            n = 2 * min_leaf + int(rng.integers(1, 3))
        else:
            n = int(rng.integers(2 * min_leaf + 3, 160))
        if index % 2:
            X = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            X = rng.uniform(size=(n, d))
        if index % 6 == 1:
            X[:, rng.integers(d)] = 2.5
        if index % 3 == 0:
            y = rng.integers(0, 3, size=n).astype(float)
        else:
            y = rng.normal(size=n) + 3.0 * X[:, 0]
        max_depth = (3, 6, 8)[(index // 3) % 3]
        return X, y, max_depth, min_leaf

    def test_matches_per_feature_reference_on_random_cases(self):
        for index in range(240):
            X, y, max_depth, min_leaf = self._case(index)
            params = dict(max_depth=max_depth, min_samples_leaf=min_leaf)
            tree = RegressionTree(**params).fit(X, y)
            reference = _ReferenceTree(**params).fit(X, y)
            assert _fingerprint(tree) == _fingerprint(reference), index
            assert all(type(r.feature) is int for r in tree.splits)

    def test_equal_improvement_keeps_the_lower_feature(self):
        rng = np.random.default_rng(7)
        for min_leaf in (1, 5):
            col = rng.integers(0, 6, size=60).astype(float)
            noise = rng.uniform(size=60)
            X = np.column_stack([noise, col, noise[::-1], col])
            y = col ** 2 + 0.1 * rng.normal(size=60)
            params = dict(max_depth=6, min_samples_leaf=min_leaf)
            tree = RegressionTree(**params).fit(X, y)
            assert 3 not in {r.feature for r in tree.splits}
            assert tree.split_counts()[1] > 0
            assert (_fingerprint(tree)
                    == _fingerprint(_ReferenceTree(**params).fit(X, y)))


class TestSharedGrowth:
    """Trees grown together must equal the reference, column by column."""

    @staticmethod
    def _assert_matches_reference(X, Y, **params):
        trees = RegressionTree(**params).fit_columns(X, Y)
        assert len(trees) == Y.shape[1]
        for column, tree in enumerate(trees):
            reference = _ReferenceTree(**params).fit(X, Y[:, column].copy())
            assert _fingerprint(tree) == _fingerprint(reference), column
        return trees

    def test_random_cases_with_three_columns(self):
        for index in range(240):
            X, y, max_depth, min_leaf = TestPresortedSplitSearch._case(index)
            rng = np.random.default_rng([index, 17])
            Y = np.column_stack([y, np.full(y.size, 2.5),
                                 rng.normal(size=y.size) + X[:, -1]])
            trees = self._assert_matches_reference(
                X, Y, max_depth=max_depth, min_samples_leaf=min_leaf)
            assert trees[1].n_nodes == 1, index

    def test_bootstrap_resample_with_duplicate_rows(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 5, size=(120, 6)).astype(float)
        Y = np.column_stack([np.sin(X[:, 0]) + X[:, 1],
                             rng.normal(size=120), X[:, 2] ** 2])
        idx = rng.integers(0, 120, size=120)
        assert np.unique(idx).size < idx.size
        self._assert_matches_reference(X[idx], Y[idx], max_depth=8,
                                       min_samples_leaf=3)

    def test_paper_scale_predictor_targets(self):
        ctx = ExperimentContext(scale=Scale.paper(), engine=create_engine())
        train, _ = ctx.dataset("gcc")
        X = train.design_matrix()
        traces = train.domain("cpi")
        model = WaveletNeuralPredictor(
            n_coefficients=ctx.scale.n_coefficients).fit(X, traces)
        s = model.settings
        coeffs = dwt_batch(traces, wavelet=s.wavelet, convention=s.convention)
        Y = np.column_stack([
            (coeffs[:, idx] - model._target_mean[idx])
            / model._target_scale[idx] for idx in model.models_])
        assert Y.shape == (200, 16)
        trees = self._assert_matches_reference(
            X, Y, max_depth=s.rbf_max_depth,
            min_samples_leaf=s.rbf_min_samples_leaf)
        assert ([_fingerprint(t) for t in trees]
                == [_fingerprint(net.tree_) for net in model.models_.values()])
