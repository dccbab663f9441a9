"""Unit and property tests for repro.core.regression_tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import WaveletNeuralPredictor
from repro.core.regression_tree import RegressionTree, SplitRecord, TreeNode
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
        assert not tree.root.is_leaf
        assert tree.root.feature == 1
        assert tree.root.threshold == pytest.approx(0.5, abs=0.08)

    def test_predictions_are_leaf_means(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        pred = tree.predict(X)
        assert np.allclose(np.unique(np.round(pred, 6)),
                           np.unique(np.round([y[y < 5].mean(), y[y >= 5].mean()], 6)))

    def test_max_depth_zero_gives_stump(self):
        X, y = _step_data()
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert tree.root.is_leaf
        assert tree.predict(X[:3]) == pytest.approx([y.mean()] * 3)

    def test_constant_target_never_splits(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 4))
        tree = RegressionTree().fit(X, np.full(50, 3.0))
        assert tree.root.is_leaf
        assert tree.n_nodes == 1

    def test_min_samples_leaf_respected(self):
        X, y = _step_data(n=40)
        tree = RegressionTree(max_depth=8, min_samples_leaf=7).fit(X, y)
        for leaf in tree.leaves():
            assert leaf.n_samples >= 7

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
        with pytest.raises(NotFittedError):
            RegressionTree().predict([[1.0]])

    def test_predict_wrong_width_rejected(self):
        X, y = _step_data(d=3)
        tree = RegressionTree().fit(X, y)
        with pytest.raises(ModelError):
            tree.predict(np.ones((2, 5)))


class TestStructure:
    def test_bounding_boxes_nested(self):
        X, y = _step_data(n=128, d=2, seed=3)
        tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(X, y)
        for node in tree.nodes():
            if not node.is_leaf:
                for child in (node.left, node.right):
                    assert np.all(child.lower >= node.lower - 1e-12)
                    assert np.all(child.upper <= node.upper + 1e-12)

    def test_children_partition_samples(self):
        X, y = _step_data(n=100, seed=4)
        tree = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y)
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.left.n_samples + node.right.n_samples == node.n_samples

    def test_leaf_count_bounds(self):
        X, y = _step_data(n=100, seed=5)
        tree = RegressionTree(max_depth=3, min_samples_leaf=5).fit(X, y)
        n_leaves = sum(1 for _ in tree.leaves())
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
    """Batched node routing must agree with a per-row reference walk."""

    @staticmethod
    def _reference_predict(tree, X):
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = tree.root
            while not node.is_leaf:
                node = (node.left if row[node.feature] <= node.threshold
                        else node.right)
            out[i] = node.value
        return out

    def test_matches_reference_walk(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(300, 5))
        y = (np.sin(5 * X[:, 0]) + 2 * (X[:, 1] > 0.4)
             + 0.3 * rng.normal(size=300))
        tree = RegressionTree(max_depth=7, min_samples_leaf=3).fit(X, y)
        probe = rng.uniform(-0.2, 1.2, size=(500, 5))
        assert np.array_equal(tree.predict(probe),
                              self._reference_predict(tree, probe))

    def test_threshold_boundary_routes_left(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 4)
        y = (X[:, 0] > 1.5).astype(float)
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(X, y)
        threshold = tree.root.threshold
        assert tree.predict([[threshold]])[0] == tree.root.left.value

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
        total_sum, total_sum2 = csum[-1], csum2[-1]
        counts = np.arange(1, n)
        left_sum = csum[:-1]
        left_sse = csum2[:-1] - left_sum ** 2 / counts
        right_cnt = n - counts
        right_sum = total_sum - left_sum
        right_sse = (total_sum2 - csum2[:-1]) - right_sum ** 2 / right_cnt
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


def _reference_node(y, depth, lower, upper):
    """A node with ``np.mean`` / ``np.sum`` statistics over its rows."""
    value = float(y.mean())
    return TreeNode(depth=depth, value=value, n_samples=int(y.size),
                    sse=float(np.sum((y - value) ** 2)),
                    lower=lower, upper=upper)


class _ReferenceTree(RegressionTree):
    """Breadth-first builder that re-sorts every feature at every node."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._n_features = X.shape[1]
        self._splits = []
        root = _reference_node(y, 0, X.min(axis=0), X.max(axis=0))
        queue = [(root, X, y)]
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
            self._splits.append(SplitRecord(
                position=len(self._splits), depth=node.depth, feature=feat,
                threshold=thr, improvement=improvement))
            lo_l, up_l = node.lower.copy(), node.upper.copy()
            up_l[feat] = thr
            lo_r, up_r = node.lower.copy(), node.upper.copy()
            lo_r[feat] = thr
            node.left = _reference_node(yn[mask], node.depth + 1, lo_l, up_l)
            node.right = _reference_node(yn[~mask], node.depth + 1, lo_r, up_r)
            queue.append((node.left, Xn[mask], yn[mask]))
            queue.append((node.right, Xn[~mask], yn[~mask]))
        self._root = root
        return self


def _fingerprint(tree):
    """Every split and node field, floats as exact bit patterns."""
    splits = [(r.position, r.depth, r.feature, r.threshold.hex(),
               r.improvement.hex()) for r in tree.splits]
    nodes = [(n.depth, n.value.hex(), n.n_samples, n.sse.hex(),
              n.lower.tobytes(), n.upper.tobytes(), n.feature,
              None if n.threshold is None else n.threshold.hex())
             for n in tree.nodes()]
    return splits, nodes


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
