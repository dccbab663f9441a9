"""Unit tests for repro.core.rbf."""

import numpy as np
import pytest

from repro.core.rbf import (
    DEFAULT_LAMBDA_GRID, DESIGN_BLOCK_ROWS, RBFNetwork, _design_matrix,
    _factorize, _gcv_ridge, _pairwise_sum,
)
from repro.errors import ModelError, NotFittedError


def _smooth_problem(n=150, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2]
    return X, y


class TestDesignMatrix:
    def test_activation_is_one_at_center(self):
        centers = np.array([[0.3, 0.7]])
        radii = np.array([[0.2, 0.2]])
        phi = _design_matrix(np.array([[0.3, 0.7]]), centers, radii)
        assert phi[0, 0] == pytest.approx(1.0)

    def test_activation_decays_with_distance(self):
        centers = np.array([[0.0, 0.0]])
        radii = np.array([[1.0, 1.0]])
        near = _design_matrix(np.array([[0.1, 0.0]]), centers, radii)[0, 0]
        far = _design_matrix(np.array([[2.0, 0.0]]), centers, radii)[0, 0]
        assert near > far

    def test_anisotropic_radii(self):
        centers = np.array([[0.0, 0.0]])
        radii = np.array([[10.0, 0.1]])
        along_wide = _design_matrix(np.array([[1.0, 0.0]]), centers, radii)[0, 0]
        along_narrow = _design_matrix(np.array([[0.0, 1.0]]), centers, radii)[0, 0]
        assert along_wide > along_narrow

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        phi = _design_matrix(rng.normal(size=(20, 4)),
                             rng.normal(size=(6, 4)),
                             np.abs(rng.normal(size=(6, 4))) + 0.1)
        assert np.all(phi > 0.0) and np.all(phi <= 1.0)

    @pytest.mark.parametrize("n_rows", [1, DESIGN_BLOCK_ROWS,
                                        4 * DESIGN_BLOCK_ROWS + 37])
    def test_blocked_rows_match_one_shot_broadcast(self, n_rows):
        rng = np.random.default_rng(n_rows)
        X = rng.uniform(size=(n_rows, 9))
        centers = rng.uniform(size=(65, 9))
        radii = rng.uniform(0.05, 1.0, size=(65, 9))
        one_shot = np.exp(-np.sum(((X[:, None] - centers) / radii) ** 2,
                                  axis=2))
        phi = _design_matrix(X, centers, radii)
        assert phi.shape == one_shot.shape
        assert phi.tobytes() == one_shot.tobytes()


def _reference_design_matrix(X, centers, radii):
    """The broadcast formula: a ``(rows, m, d)`` tensor summed over ``d``."""
    out = np.empty((X.shape[0], centers.shape[0]))
    for start in range(0, X.shape[0], DESIGN_BLOCK_ROWS):
        stop = start + DESIGN_BLOCK_ROWS
        z = (X[start:stop, None, :] - centers[None, :, :]) / radii[None, :, :]
        np.exp(-np.sum(z * z, axis=2), out=out[start:stop])
    return out


#: Feature counts around every branch of NumPy's pairwise sum: the
#: sequential sum below 8, the eight accumulators up to 128 (with and
#: without a tail), and the split beyond 128.
FEATURE_COUNTS = list(range(1, 18)) + [127, 128, 129, 300]
ROW_COUNTS = [1, 37, DESIGN_BLOCK_ROWS, 2 * DESIGN_BLOCK_ROWS + 5]


def _mixed_inputs(rng, n, d):
    """Discrete columns (2-5 levels, a constant) beside continuous ones,
    one of which has more distinct values than a block."""
    X = rng.uniform(-1.0, 2.0, size=(n, d))
    for k in range(d):
        kind = k % 4
        if kind == 0:
            levels = rng.uniform(size=int(rng.integers(2, 6)))
            X[:, k] = levels[rng.integers(0, levels.size, size=n)]
        elif kind == 1:
            X[:, k] = rng.integers(0, 4, size=n) / 3.0
        elif kind == 2 and k % 8 == 2:
            X[:, k] = 0.5
    return X


class TestFeatureMajorDesignMatrix:
    @pytest.mark.parametrize("d", FEATURE_COUNTS)
    def test_bytes_match_broadcast_reference(self, d):
        rng = np.random.default_rng(1000 + d)
        for n in ROW_COUNTS:
            m = int(rng.integers(1, 40))
            X = _mixed_inputs(rng, n, d)
            centers = rng.uniform(size=(m, d))
            radii = rng.uniform(0.05, 2.0, size=(m, d))
            ref = _reference_design_matrix(X, centers, radii)
            phi = _design_matrix(X, centers, radii)
            assert phi.tobytes() == ref.tobytes(), (d, n, m)
            with_bias = _design_matrix(X, centers, radii, bias=True)
            assert with_bias.shape == (n, m + 1)
            assert with_bias[:, m].tobytes() == np.ones(n).tobytes()
            assert (np.ascontiguousarray(with_bias[:, :m]).tobytes()
                    == ref.tobytes()), (d, n, m)

    def test_tables_and_direct_columns_agree(self):
        # A column with more distinct values than a block is computed
        # directly; with fewer it is gathered from a table.  Both paths,
        # and a factorization shared across calls, give the same bits.
        rng = np.random.default_rng(7)
        n = 3 * DESIGN_BLOCK_ROWS + 11
        X = _mixed_inputs(rng, n, 9)
        columns = _factorize(X)
        assert [c is None for c in columns] == [
            False, False, False, True, False, False, True, True, False]
        centers = rng.uniform(size=(50, 9))
        radii = rng.uniform(0.05, 2.0, size=(50, 9))
        ref = _reference_design_matrix(X, centers, radii)
        direct = _design_matrix(X, centers, radii, [None] * 9)
        shared = _design_matrix(X, centers, radii, columns)
        assert direct.tobytes() == shared.tobytes() == ref.tobytes()

    def test_factorize_caps_levels_at_block_rows(self):
        X = np.column_stack([np.arange(DESIGN_BLOCK_ROWS + 1.0),
                             np.arange(DESIGN_BLOCK_ROWS + 1.0) % 5,
                             np.r_[np.arange(DESIGN_BLOCK_ROWS), 0.0]])
        wide, narrow, at_cap = _factorize(X)
        assert wide is None
        levels, codes = narrow
        assert levels.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert levels[codes].tobytes() == X[:, 1].tobytes()
        assert at_cap[0].size == DESIGN_BLOCK_ROWS

    def test_network_predict_matches_reference(self):
        X, y = _smooth_problem(n=150, seed=13)
        net = RBFNetwork().fit(X, y)
        Xq = np.random.default_rng(14).uniform(size=(300, 3))
        phi = np.hstack([_reference_design_matrix(Xq, net.centers_,
                                                  net.radii_),
                         np.ones((300, 1))])
        expected = phi @ net.weights_ + net.bias_
        assert net.predict(Xq).tobytes() == expected.tobytes()


class TestPairwiseSum:
    @pytest.mark.parametrize("d", FEATURE_COUNTS + [8, 16, 24, 256, 257,
                                                    1000, 1031])
    def test_matches_add_reduce(self, d):
        rng = np.random.default_rng(d)
        rows = (rng.normal(size=(64, d))
                * 10.0 ** rng.uniform(-6, 6, size=(64, d)))
        expected = np.add.reduce(rows, axis=1)
        terms = np.ascontiguousarray(rows.T).reshape(d, 8, 8)
        assert (_pairwise_sum(terms).ravel().tobytes()
                == expected.tobytes()), d


def _reference_gcv_ridge(phi, y, lambda_grid):
    """GCV ridge scored one lambda at a time."""
    n = phi.shape[0]
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    uty = u.T @ y
    y_norm2 = float(y @ y)
    best = None
    for lam in lambda_grid:
        shrink = s * s / (s * s + lam)
        fitted_norm2 = float(np.sum((shrink * uty) ** 2))
        cross = float(np.sum(shrink * uty * uty))
        rss = max(y_norm2 - 2.0 * cross + fitted_norm2, 0.0)
        trace_s = float(np.sum(shrink))
        denom = max(n - trace_s, 1e-9)
        gcv = n * rss / denom ** 2
        if best is None or gcv < best[2]:
            coef = vt.T @ ((s / (s * s + lam)) * uty)
            best = (coef, lam, gcv)
    return best


class TestGCVRidge:
    def test_grid_pass_matches_per_lambda_loop(self):
        rng = np.random.default_rng(11)
        for case in range(400):
            n = int(rng.integers(5, 120))
            k = int(rng.integers(1, 80))
            phi = _design_matrix(rng.uniform(size=(n, 4)),
                                 rng.uniform(size=(k, 4)),
                                 rng.uniform(0.05, 2.0, size=(k, 4)))
            if case % 2:
                phi = np.hstack([phi, np.ones((n, 1))])
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            grid = (DEFAULT_LAMBDA_GRID if case % 3
                    else tuple(np.sort(rng.uniform(0, 5, size=7))))
            coef, lam, gcv = _gcv_ridge(phi, y, grid)
            ref_coef, ref_lam, ref_gcv = _reference_gcv_ridge(phi, y, grid)
            assert coef.tobytes() == ref_coef.tobytes(), case
            assert lam == ref_lam and gcv.hex() == ref_gcv.hex(), case

    def test_single_lambda_scores_match_loop(self):
        # Forward selection scores one lambda per call, so every score is
        # returned; libm pow and NumPy's square disagree in the last bit
        # on about one value in a thousand.
        rng = np.random.default_rng(12)
        for case in range(60):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(1, 12))
            phi = _design_matrix(rng.uniform(size=(n, 3)),
                                 rng.uniform(size=(k, 3)),
                                 rng.uniform(0.05, 2.0, size=(k, 3)))
            y = rng.normal(size=n)
            for lam in 10.0 ** rng.uniform(-8, 2, size=50):
                coef, _, gcv = _gcv_ridge(phi, y, (lam,))
                ref_coef, _, ref_gcv = _reference_gcv_ridge(phi, y, (lam,))
                assert coef.tobytes() == ref_coef.tobytes(), (case, lam)
                assert gcv.hex() == ref_gcv.hex(), (case, lam)

    def test_ties_keep_the_first_lambda(self):
        phi = np.ones((6, 1))
        coef, lam, gcv = _gcv_ridge(phi, np.zeros(6), (0.3, 0.1, 0.2))
        assert lam == 0.3 and gcv == 0.0


class TestFitPredict:
    def test_fits_smooth_function_well(self):
        X, y = _smooth_problem()
        net = RBFNetwork().fit(X, y)
        assert np.abs(net.predict(X) - y).mean() < 0.1

    def test_generalizes_to_unseen_points(self):
        X, y = _smooth_problem(n=200, seed=2)
        net = RBFNetwork().fit(X[:150], y[:150])
        test_err = np.abs(net.predict(X[150:]) - y[150:]).mean()
        assert test_err < 0.25

    def test_constant_target_predicted_exactly(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(60, 2))
        net = RBFNetwork().fit(X, np.full(60, 4.2))
        assert net.predict(X) == pytest.approx(np.full(60, 4.2), abs=1e-6)

    def test_beats_linear_on_nonlinear_response(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(200, 2))
        y = np.sin(6 * X[:, 0]) * np.exp(-X[:, 1])
        net = RBFNetwork().fit(X[:150], y[:150])
        design = np.hstack([X[:150], np.ones((150, 1))])
        coef, *_ = np.linalg.lstsq(design, y[:150], rcond=None)
        lin_pred = np.hstack([X[150:], np.ones((50, 1))]) @ coef
        rbf_err = np.mean((net.predict(X[150:]) - y[150:]) ** 2)
        lin_err = np.mean((lin_pred - y[150:]) ** 2)
        assert rbf_err < lin_err

    def test_forward_solver_works(self):
        X, y = _smooth_problem(n=80, seed=5)
        net = RBFNetwork(solver="forward", max_depth=4).fit(X, y)
        assert np.abs(net.predict(X) - y).mean() < 0.3
        # Forward selection should leave some weights at exactly zero.
        assert np.sum(net.weights_ == 0.0) > 0

    def test_gcv_selects_lambda_from_grid(self):
        X, y = _smooth_problem(n=80, seed=6)
        net = RBFNetwork().fit(X, y)
        assert net.lambda_ in DEFAULT_LAMBDA_GRID

    @pytest.mark.parametrize("solver", ["ridge_gcv", "forward"])
    def test_fit_columns_matches_separate_fits(self, solver):
        X, y = _smooth_problem(n=90, seed=10)
        Y = np.column_stack([y, X[:, 1] * 3.0, np.full(90, -1.5)])
        params = dict(max_depth=5, min_samples_leaf=3, solver=solver)
        nets = RBFNetwork(**params).fit_columns(X, Y)
        for column, net in enumerate(nets):
            alone = RBFNetwork(**params).fit(X, Y[:, column].copy())
            for name in ("centers_", "radii_", "weights_"):
                assert (getattr(net, name).tobytes()
                        == getattr(alone, name).tobytes()), (column, name)
            assert (net.bias_, net.lambda_, net.gcv_) == (
                alone.bias_, alone.lambda_, alone.gcv_)
            assert net.predict(X).tobytes() == alone.predict(X).tobytes()

    def test_unit_count_matches_tree_nodes(self):
        X, y = _smooth_problem(n=80, seed=7)
        net = RBFNetwork(max_depth=3).fit(X, y)
        assert net.n_units == net.tree_.n_nodes


class TestValidation:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ModelError):
            RBFNetwork(solver="sgd")

    def test_bad_radius_scale_rejected(self):
        with pytest.raises(ModelError):
            RBFNetwork(radius_scale=0.0)

    def test_bad_min_radius_rejected(self):
        with pytest.raises(ModelError):
            RBFNetwork(min_radius=-1.0)

    @pytest.mark.parametrize("params", [
        dict(lambda_grid=()),
        dict(lambda_grid=(np.nan,)),
        dict(lambda_grid=(-1.0,)),
        dict(lambda_grid=(0.0,)),
        dict(lambda_grid=(1e-3, np.inf)),
        dict(radius_scale=np.nan),
        dict(radius_scale=np.inf),
        dict(min_radius=np.nan),
        dict(min_radius=np.inf),
        dict(max_depth=-1),
        dict(max_depth=2.5),
        dict(min_samples_leaf=1.5),
    ], ids=lambda params: "-".join(f"{k}={v}" for k, v in params.items()))
    def test_malformed_hyperparameters_rejected(self, params):
        with pytest.raises(ModelError):
            RBFNetwork(**params)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError, match="not fitted; call fit"):
            RBFNetwork().predict([[0.0]])
        with pytest.raises(NotFittedError, match="not fitted; call fit"):
            RBFNetwork().n_units

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            RBFNetwork().fit(np.ones((5, 2)), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        X, y = _smooth_problem(n=60, seed=9)
        y[3] = bad
        with pytest.raises(ModelError, match="non-finite"):
            RBFNetwork().fit(X, y)
        with pytest.raises(ModelError, match="non-finite"):
            RBFNetwork().fit_columns(X, np.column_stack([X[:, 0], y]))

    def test_predict_wrong_width_rejected(self):
        X, y = _smooth_problem(n=60, seed=8)
        net = RBFNetwork().fit(X, y)
        with pytest.raises(ModelError):
            net.predict(np.ones((2, 7)))
