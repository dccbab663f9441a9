"""Tests for the predictive design-space explorer."""

import numpy as np
import pytest

import repro
from repro.dse.explorer import (
    Constraint,
    ExplorationResult,
    Objective,
    PredictiveExplorer,
)
from repro.dse.runner import SweepPlan, SweepRunner
from repro.dse.space import paper_design_space
from repro.errors import ExperimentError, ModelError


@pytest.fixture(scope="module")
def explorer():
    space = paper_design_space()
    plan = SweepPlan(space=space, n_train=120, n_test=10,
                     n_lhs_matrices=3, seed=21)
    train, _ = SweepRunner(n_samples=64).run_train_test("gcc", plan)
    models = {}
    for domain in ("cpi", "power", "iq_avf"):
        models[domain] = repro.WaveletNeuralPredictor(
            n_coefficients=16).fit(train.design_matrix(), train.domain(domain))
    return PredictiveExplorer(space, models)


class TestConstraintObjective:
    def test_constraint_semantics(self):
        c = Constraint("power", "max", "<=", 50.0)
        assert c.satisfied(np.array([10.0, 49.0]))
        assert not c.satisfied(np.array([10.0, 51.0]))
        assert c.margin(np.array([10.0, 40.0])) == pytest.approx(10.0)

    def test_constraint_ge(self):
        c = Constraint("cpi", "min", ">=", 0.5)
        assert c.satisfied(np.array([0.6, 0.9]))
        assert not c.satisfied(np.array([0.4, 0.9]))

    def test_objective_score_sign(self):
        trace = np.array([1.0, 3.0])
        assert Objective("cpi").score(trace) == pytest.approx(2.0)
        assert Objective("cpi", maximize=True).score(trace) == pytest.approx(-2.0)

    def test_bad_reducer_rejected(self):
        with pytest.raises(ModelError):
            Constraint("cpi", "median", "<=", 1.0)
        with pytest.raises(ModelError):
            Objective("cpi", reducer="sum")

    def test_bad_op_rejected(self):
        with pytest.raises(ModelError):
            Constraint("cpi", "mean", "<", 1.0)

    def test_describe(self):
        assert "power" in Constraint("power", "max", "<=", 100).describe()
        assert "minimize" in Objective("cpi").describe()


class TestExplorer:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ModelError):
            PredictiveExplorer(paper_design_space(),
                               {"cpi": repro.WaveletNeuralPredictor()})

    def test_candidate_grid_sampled_when_limited(self, explorer):
        candidates = explorer.candidate_grid(limit=100, seed=0)
        assert len(candidates) == 100

    def test_candidate_grid_full_when_small(self, explorer):
        candidates = explorer.candidate_grid(split="test", limit=None)
        assert len(candidates) == explorer.space.size("test")

    def test_unknown_domain_rejected(self, explorer):
        with pytest.raises(ExperimentError):
            explorer.search(Objective("temperature"), limit=10)

    def test_search_returns_feasible_optimum(self, explorer):
        result = explorer.search(
            Objective("cpi", "mean"),
            constraints=(Constraint("power", "max", "<=", 80.0),),
            limit=400, seed=1,
        )
        assert isinstance(result, ExplorationResult)
        assert result.n_evaluated == 400
        assert result.best_config is not None
        # The winner must itself satisfy the constraint per the model.
        traces = explorer.predict_traces([result.best_config],
                                         ["power", "cpi"])
        assert traces["power"][0].max() <= 80.0 + 1e-6

    def test_unconstrained_search_prefers_strong_machines(self, explorer):
        result = explorer.search(Objective("cpi", "mean"), limit=400, seed=2)
        # Minimizing CPI without constraints should pick a wide machine
        # with a big L2 (per the model's monotone trends).
        assert result.best_config.fetch_width >= 8
        assert result.best_config.l2_size_kb >= 1024

    def test_power_constraint_binds(self, explorer):
        loose = explorer.search(Objective("cpi", "mean"), limit=400, seed=3)
        tight = explorer.search(
            Objective("cpi", "mean"),
            constraints=(Constraint("power", "max", "<=", 40.0),),
            limit=400, seed=3,
        )
        assert tight.n_feasible < loose.n_feasible
        if tight.best_config is not None:
            assert tight.best_score >= loose.best_score - 1e-9

    def test_infeasible_constraints_give_empty_result(self, explorer):
        result = explorer.search(
            Objective("cpi"),
            constraints=(Constraint("power", "max", "<=", 0.1),),
            limit=100, seed=4,
        )
        assert result.best_config is None
        assert result.n_feasible == 0
        assert result.feasible_fraction == 0.0

    def test_ranked_results_sorted(self, explorer):
        result = explorer.search(Objective("cpi"), limit=200, top_k=5, seed=5)
        scores = [s for _, s in result.ranked]
        assert scores == sorted(scores)
        assert len(result.ranked) <= 5

    @pytest.mark.parametrize("top_k", [-1, -5, 2.0, 2.5, True, "3", None])
    def test_bad_top_k_rejected(self, explorer, top_k):
        # A negative top_k used to slice order[:top_k] and silently drop
        # the last |top_k| ranked configs.
        with pytest.raises(ModelError, match="top_k"):
            explorer.search(Objective("cpi"), limit=50, top_k=top_k, seed=5)

    def test_top_k_zero_and_numpy_integer(self, explorer):
        none = explorer.search(Objective("cpi"), limit=50, top_k=0, seed=5)
        assert none.ranked == [] and none.best_config is not None
        three = explorer.search(Objective("cpi"), limit=50,
                                top_k=np.int64(3), seed=5)
        assert len(three.ranked) == 3


class TestSensitivity:
    def test_l2_sweep_monotone(self, explorer):
        sweep = explorer.sensitivity(repro.baseline_config(), "l2_size_kb",
                                     "cpi", "mean")
        levels = [lvl for lvl, _ in sweep]
        values = [v for _, v in sweep]
        assert levels == [256, 1024, 2048, 4096]
        # Bigger L2 should not (predictedly) hurt gcc.
        assert values[-1] <= values[0] + 0.2

    def test_unknown_parameter_rejected(self, explorer):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            explorer.sensitivity(repro.baseline_config(), "l3_size", "cpi")

    def test_bad_reducer_rejected(self, explorer):
        with pytest.raises(ModelError):
            explorer.sensitivity(repro.baseline_config(), "l2_size_kb",
                                 "cpi", reducer="harmonic")


class TestReducers:
    def test_p99_and_amax_abs_builtin(self):
        from repro.dse.explorer import REDUCERS
        trace = np.concatenate([np.zeros(99), [-5.0]])
        assert float(REDUCERS["p99"](np.arange(101.0))) == pytest.approx(99.0)
        assert float(REDUCERS["amax_abs"](trace)) == pytest.approx(5.0)
        c = Constraint("power", "p99", "<=", 10.0)
        assert c.satisfied(np.full(100, 5.0))
        assert Objective("avf", "amax_abs").score(trace) == pytest.approx(5.0)

    def test_reducers_vectorized_over_matrix(self):
        from repro.dse.explorer import REDUCERS
        traces = np.arange(12.0).reshape(3, 4)
        for name, fn in REDUCERS.items():
            reduced = np.asarray(fn(traces, axis=-1))
            assert reduced.shape == (3,), name

    def test_register_reducer_roundtrip(self):
        from repro.dse.explorer import (REDUCERS, register_reducer,
                                        unregister_reducer)
        register_reducer("p10", lambda t, axis=-1: np.percentile(t, 10, axis=axis))
        try:
            assert "p10" in REDUCERS
            c = Constraint("cpi", "p10", ">=", 0.0)
            assert c.satisfied(np.ones(8))
        finally:
            unregister_reducer("p10")
        assert "p10" not in REDUCERS

    def test_register_reducer_validation(self):
        from repro.dse.explorer import register_reducer, unregister_reducer
        with pytest.raises(ModelError):
            register_reducer("not an identifier", lambda t, axis=-1: t.mean(axis))
        with pytest.raises(ModelError):
            register_reducer("mean", lambda t, axis=-1: t.mean(axis))  # no overwrite
        with pytest.raises(ModelError):
            register_reducer("broken", "not-callable")
        with pytest.raises(ModelError):
            register_reducer("raises", lambda t, axis=-1: 1 / 0)
        with pytest.raises(ModelError):
            register_reducer("wrong_shape", lambda t, axis=-1: t)
        with pytest.raises(ModelError):
            unregister_reducer("never_registered")

    def test_register_reducer_overwrite_allowed(self):
        from repro.dse.explorer import REDUCERS, register_reducer
        original = REDUCERS["p95"]
        register_reducer("p95", lambda t, axis=-1: np.percentile(t, 95, axis=axis),
                         overwrite=True)
        REDUCERS["p95"] = original

    def test_collision_refused_and_leaves_original_intact(self):
        from repro.dse.explorer import REDUCERS, register_reducer
        original = REDUCERS["mean"]
        with pytest.raises(ModelError, match="overwrite=True"):
            register_reducer("mean", lambda t, axis=-1: np.max(t, axis=axis))
        assert REDUCERS["mean"] is original  # failed overwrite is atomic

    def test_collision_applies_to_custom_reducers_too(self):
        from repro.dse.explorer import register_reducer, unregister_reducer
        register_reducer("p20", lambda t, axis=-1: np.percentile(t, 20, axis=axis))
        try:
            with pytest.raises(ModelError):
                register_reducer(
                    "p20", lambda t, axis=-1: np.percentile(t, 25, axis=axis))
        finally:
            unregister_reducer("p20")

    def test_overwritten_builtin_can_be_restored(self):
        from repro.dse.explorer import REDUCERS, register_reducer
        original = REDUCERS["min"]
        replacement = lambda t, axis=-1: np.min(t, axis=axis) + 0.0
        register_reducer("min", replacement, overwrite=True)
        try:
            assert REDUCERS["min"] is replacement
        finally:
            # Built-ins cannot be unregistered; the documented recovery
            # path is a second overwrite-registration.
            register_reducer("min", original, overwrite=True)
        assert REDUCERS["min"] is original

    def test_unregister_builtin_refused(self):
        from repro.dse.explorer import REDUCERS, unregister_reducer
        with pytest.raises(ModelError, match="built-in"):
            unregister_reducer("mean")
        assert "mean" in REDUCERS

    def test_non_finite_reducer_rejected(self):
        from repro.dse.explorer import register_reducer
        with pytest.raises(ModelError):
            register_reducer(
                "to_nan", lambda t, axis=-1: np.full(t.shape[0], np.nan))


class TestConstraintValidation:
    def test_bad_domain_rejected(self):
        with pytest.raises(ModelError):
            Constraint("", "mean", "<=", 1.0)
        with pytest.raises(ModelError):
            Constraint(3, "mean", "<=", 1.0)

    @pytest.mark.parametrize("bound", [
        float("nan"), float("inf"), float("-inf"), "100", None, True,
    ])
    def test_bad_bound_rejected(self, bound):
        with pytest.raises(ModelError):
            Constraint("power", "max", "<=", bound)

    def test_integer_bound_accepted(self):
        c = Constraint("power", "max", "<=", 100)
        assert c.satisfied(np.array([50.0, 99.0]))

    def test_numpy_scalar_bounds_accepted(self):
        # Bounds computed from numpy arrays must not be rejected.
        for bound in (np.float64(80.0), np.float32(80.0), np.int64(80)):
            c = Constraint("power", "max", "<=", bound)
            assert c.satisfied(np.array([50.0, 79.0]))
        with pytest.raises(ModelError):
            Constraint("power", "max", "<=", np.float64("nan"))

    def test_margin_many_matches_scalar_margin(self):
        traces = np.array([[1.0, 5.0], [2.0, 8.0], [0.5, 0.5]])
        for op, bound in (("<=", 6.0), (">=", 1.0)):
            c = Constraint("power", "max", op, bound)
            margins = c.margin_many(traces)
            assert margins.shape == (3,)
            for row, margin in zip(traces, margins):
                assert margin == pytest.approx(c.margin(row))

    def test_margin_many_over_ensemble_stack(self):
        c = Constraint("power", "p95", "<=", 4.0)
        stack = np.arange(24.0).reshape(2, 3, 4)  # (members, configs, samples)
        margins = c.margin_many(stack)
        assert margins.shape == (2, 3)
        assert np.array_equal(margins[0], c.margin_many(stack[0]))
