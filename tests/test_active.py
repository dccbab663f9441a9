"""Tests for the closed-loop active-learning DSE (`repro.dse.active`)."""

import math

import numpy as np
import pytest

import repro
from repro.core.predictor import PredictorSettings, WaveletPredictorEnsemble
from repro.dse.active import (
    ActiveSearch,
    ActiveSearchResult,
    ActiveSearchSettings,
    pareto_front,
)
from repro.dse.explorer import Constraint, Objective
from repro.dse.lhs import sample_candidate_pool
from repro.dse.space import DesignSpace, Parameter, paper_design_space
from repro.engine import create_engine
from repro.errors import ExperimentError, ModelError, NotFittedError

FAST = PredictorSettings(n_coefficients=8)


def _settings(**overrides):
    base = dict(budget=36, batch_size=6, n_init=16, candidate_pool=96,
                n_members=2, seed=7, patience=0, predictor=FAST)
    base.update(overrides)
    return ActiveSearchSettings(**base)


def _runner(jobs=1):
    return repro.SweepRunner(
        n_samples=32, engine=create_engine(jobs=jobs, memory_items=0))


@pytest.fixture(scope="module")
def result():
    runner = _runner()
    return runner.run_active(
        "gcc", Objective("cpi", "mean"),
        constraints=[Constraint("power", "max", "<=", 80.0)],
        settings=_settings())


class TestEnsemble:
    def test_predict_with_std_shapes(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(24, 3))
        traces = rng.uniform(size=(24, 16)) + 1.0
        ens = WaveletPredictorEnsemble(
            n_members=3, n_coefficients=4, seed=1).fit(X, traces)
        mean, std = ens.predict_with_std(X[:5])
        assert mean.shape == std.shape == (5, 16)
        assert np.all(std >= 0.0)
        assert ens.member_predictions(X[:5]).shape == (3, 5, 16)

    def test_member_zero_sees_full_data(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(20, 2))
        traces = rng.uniform(size=(20, 8)) + 1.0
        ens = WaveletPredictorEnsemble(
            n_members=2, n_coefficients=4, seed=0).fit(X, traces)
        solo = repro.WaveletNeuralPredictor(
            n_coefficients=4).fit(X, traces)
        assert np.allclose(ens.members_[0].predict(X), solo.predict(X))

    def test_fit_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(20, 2))
        traces = rng.uniform(size=(20, 8)) + 1.0
        a = WaveletPredictorEnsemble(
            n_members=3, n_coefficients=4, seed=5).fit(X, traces)
        b = WaveletPredictorEnsemble(
            n_members=3, n_coefficients=4, seed=5).fit(X, traces)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_validation(self):
        with pytest.raises(ModelError):
            WaveletPredictorEnsemble(n_members=1)
        with pytest.raises(ModelError):
            WaveletPredictorEnsemble(settings=FAST, n_coefficients=4)
        with pytest.raises(NotFittedError):
            WaveletPredictorEnsemble(n_members=2).predict(np.zeros((1, 2)))
        assert WaveletPredictorEnsemble(n_members=2).selected_indices_ is None


class TestParetoFront:
    def test_non_dominated_rows(self):
        scores = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0],
                           [2.5, 2.5], [1.0, 3.0]])
        front = pareto_front(scores)
        # (2.5, 2.5) is dominated by (2, 2); duplicates both survive.
        assert list(front) == [0, 1, 2, 4]

    def test_single_objective_is_argmin(self):
        scores = np.array([[3.0], [1.0], [2.0]])
        assert list(pareto_front(scores)) == [1]

    def test_rejects_non_matrix(self):
        with pytest.raises(ModelError):
            pareto_front(np.zeros(4))


class TestSettingsValidation:
    @pytest.mark.parametrize("overrides", [
        dict(budget=0), dict(batch_size=0), dict(n_init=4),
        dict(strategy="random"), dict(kappa=0.0),
        dict(candidate_pool=4, batch_size=8),
        dict(fit_fraction=0.0), dict(fit_fraction=1.5),
        dict(patience=-1), dict(tol=-1.0),
    ])
    def test_bad_settings_rejected(self, overrides):
        with pytest.raises(ModelError):
            _settings(**overrides)

    def test_settings_or_kwargs_not_both(self):
        with pytest.raises(ModelError):
            ActiveSearch(_runner(), Objective("cpi"),
                         settings=_settings(), budget=10)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ExperimentError):
            ActiveSearch(_runner(), Objective("temperature"),
                         settings=_settings())

    def test_coefficients_exceeding_samples_rejected(self):
        with pytest.raises(ModelError):
            ActiveSearch(
                _runner(), Objective("cpi"),
                settings=_settings(
                    predictor=PredictorSettings(n_coefficients=64)))

    def test_requires_an_objective(self):
        with pytest.raises(ModelError):
            ActiveSearch(_runner(), [], settings=_settings())


class TestSingleObjective:
    def test_budget_and_bookkeeping(self, result):
        assert isinstance(result, ActiveSearchResult)
        assert result.n_simulations == 36
        assert result.rounds[0].strategy == "init"
        assert result.rounds[0].n_new == 16
        assert all(r.strategy == "ei" for r in result.rounds[1:])
        assert [r.n_simulations for r in result.rounds] == \
            [16, 22, 28, 34, 36]
        assert result.reason == "budget"
        assert not result.converged

    def test_observed_dataset_assembled(self, result):
        ds = result.observed
        assert ds.n_configs == 36
        assert ds.n_samples == 32
        keys = [c.key() for c in ds.configs]
        assert len(set(keys)) == len(keys)  # no design simulated twice
        for domain in ("cpi", "power", "avf", "iq_avf"):
            assert ds.domain(domain).shape == (36, 32)

    def test_best_is_true_feasible_minimum(self, result):
        scores = np.array([Objective("cpi", "mean").score(row)
                           for row in result.observed.domain("cpi")])
        feasible = np.array(
            [Constraint("power", "max", "<=", 80.0).satisfied(row)
             for row in result.observed.domain("power")])
        assert result.best_score == pytest.approx(scores[feasible].min())
        best_index = int(np.flatnonzero(
            feasible & (scores == scores[feasible].min()))[0])
        assert result.best_config.key() == \
            result.observed.configs[best_index].key()

    def test_trajectory_is_executor_independent(self):
        kwargs = dict(
            constraints=[Constraint("power", "max", "<=", 80.0)],
            settings=_settings(budget=28))
        seq = _runner(jobs=1).run_active("gcc", Objective("cpi"), **kwargs)
        par = _runner(jobs=3).run_active("gcc", Objective("cpi"), **kwargs)
        assert [c.key() for c in seq.observed.configs] == \
            [c.key() for c in par.observed.configs]
        assert seq.best_score == par.best_score
        for domain in seq.observed.domains:
            assert np.array_equal(seq.observed.domain(domain),
                                  par.observed.domain(domain))

    @pytest.mark.parametrize("strategy", ["ucb", "max_variance"])
    def test_other_strategies_run(self, strategy):
        res = _runner().run_active(
            "gcc", Objective("cpi", "mean"),
            settings=_settings(budget=24, strategy=strategy))
        assert res.n_simulations == 24
        assert res.rounds[-1].strategy == strategy
        assert res.best_config is not None

    def test_infeasible_constraints_leave_no_incumbent(self):
        res = _runner().run_active(
            "gcc", Objective("cpi", "mean"),
            constraints=[Constraint("power", "max", "<=", 0.01)],
            settings=_settings(budget=22))
        assert res.best_config is None
        assert res.best_score == math.inf
        assert all(r.n_feasible == 0 for r in res.rounds)

    def test_init_configs_override(self):
        space = paper_design_space()
        init = space.sample_random(16, split="train", seed=123)
        res = _runner().run_active(
            "gcc", Objective("cpi", "mean"),
            settings=_settings(budget=22), init_configs=init)
        assert [c.key() for c in res.observed.configs[:16]] == \
            [c.key() for c in init]

    def test_patience_suspended_until_something_is_feasible(self):
        # While no feasible design exists the acquisition is still
        # hunting for feasibility; stagnation of the (infinite)
        # incumbent must not trip the patience rule.
        res = _runner().run_active(
            "gcc", Objective("cpi", "mean"),
            constraints=[Constraint("power", "max", "<=", 0.01)],
            settings=_settings(budget=34, patience=2))
        assert res.reason == "budget"
        assert res.n_simulations == 34

    def test_convergence_stops_early(self):
        res = _runner().run_active(
            "gcc", Objective("cpi", "mean"),
            settings=_settings(budget=120, patience=1, tol=100.0))
        # A tolerance no round can beat trips the patience rule at the
        # first acquisition round.
        assert res.converged
        assert res.reason == "converged"
        assert res.n_simulations < 120


class TestMultiObjective:
    def test_pareto_front_maintained(self):
        res = _runner().run_active(
            "gcc", [Objective("cpi", "mean"), Objective("power", "p99")],
            settings=_settings(budget=32, batch_size=8))
        assert res.pareto
        scores = np.array([p.scores for p in res.pareto])
        # Mutually non-dominated: the front of the front is everything.
        assert len(pareto_front(scores)) == len(scores)
        # Every front point is an observed design.
        observed = {c.key() for c in res.observed.configs}
        assert all(p.config.key() in observed for p in res.pareto)

    def test_single_objective_has_empty_front(self, result):
        assert result.pareto == []


class TestCandidatePool:
    def _space(self):
        return DesignSpace((
            Parameter("fetch_width", (2, 4), (2, 4)),
            Parameter("rob_size", (96, 128), (96, 128)),
        ))

    def test_excludes_simulated_designs(self):
        space = self._space()
        all_configs = space.sample_random(4, split="train", seed=0)
        exclude = {c.key() for c in all_configs[:3]}
        pool = sample_candidate_pool(space, 10, seed=1,
                                     exclude_keys=exclude)
        assert len(pool) == 1
        assert pool[0].key() not in exclude

    def test_off_grid_excluded_keys_do_not_mask_the_grid(self):
        # Excluded keys need not lie in the sampled split's grid (an
        # explicit init design may come from anywhere); they must not
        # make the pool think the grid is exhausted.
        space = DesignSpace((
            Parameter("fetch_width", (2, 4), (8, 16)),
            Parameter("rob_size", (96,), (128,)),
        ))
        off_grid = {c.key()
                    for c in space.sample_random(2, split="test", seed=0)}
        assert len(off_grid) >= space.size("train")
        pool = sample_candidate_pool(space, 10, seed=1,
                                     exclude_keys=off_grid)
        assert len(pool) == space.size("train")

    def test_exhausted_space_returns_empty(self):
        space = self._space()
        exclude = {c.key()
                   for c in space.sample_random(4, split="train", seed=0)}
        assert sample_candidate_pool(space, 10, seed=1,
                                     exclude_keys=exclude) == []

    def test_exhaustion_ends_the_loop(self):
        space = self._space()
        init = space.sample_random(4, split="train", seed=0)
        res = _runner().run_active(
            "gcc", Objective("cpi", "mean"),
            settings=_settings(budget=10), space=space, init_configs=init)
        assert res.reason == "exhausted"
        assert res.n_simulations == 4
