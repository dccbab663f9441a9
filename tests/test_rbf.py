"""Unit tests for repro.core.rbf."""

import numpy as np
import pytest

from repro.core.rbf import (
    DEFAULT_LAMBDA_GRID, DESIGN_BLOCK_ROWS, RBFNetwork, _design_matrix,
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

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RBFNetwork().predict([[0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            RBFNetwork().fit(np.ones((5, 2)), np.ones(4))

    def test_predict_wrong_width_rejected(self):
        X, y = _smooth_problem(n=60, seed=8)
        net = RBFNetwork().fit(X, y)
        with pytest.raises(ModelError):
            net.predict(np.ones((2, 7)))
