"""Closed-loop active-learning design-space exploration.

The paper trains its wavelet predictors on a *fixed* LHS sample chosen
blindly up front; every modern predictive-DSE loop (OneDSE's unified
metric-prediction search, MetaDSE's few-shot transfer) instead lets the
model's own uncertainty pick the next simulations.  This module closes
that loop on top of the streaming execution engine:

1. **Model** — a :class:`~repro.core.predictor.WaveletPredictorEnsemble`
   per metric domain (K wavelet predictors on bootstrap resamples)
   yields a mean *and* an uncertainty for every predicted trace.
2. **Acquisition** — candidate configurations are scored in one
   vectorized pass through the existing
   :data:`~repro.dse.explorer.REDUCERS`: expected improvement (``ei``),
   a lower-confidence bound (``ucb``), or pure uncertainty sampling
   (``max_variance``), each weighted by the probability of satisfying
   the scenario :class:`~repro.dse.explorer.Constraint` terms.
3. **Simulation** — the top-``batch_size`` candidates are submitted as
   **one** engine batch (:meth:`repro.engine.ExecutionEngine.submit`);
   the ensemble refit for the next round starts as soon as a
   ``fit_fraction`` prefix of the batch has drained through
   :meth:`~repro.engine.BatchHandle.as_completed`, so model fitting
   hides behind the simulation tail exactly like
   :meth:`~repro.dse.runner.SweepRunner.run_grid_streaming` hides
   per-benchmark fitting behind the sweep tail.

The search trajectory is **deterministic for a given seed and
independent of the executor**: the refit always consumes exactly the
first ``ceil(fit_fraction * batch)`` jobs *in job order* (completion
order only decides *when* the fit starts, never what it sees), every
random draw comes from one seeded generator consumed in a fixed order,
and the simulator jobs themselves are deterministic — so a
``--jobs 16`` run walks bit-for-bit the same path as ``--jobs 1``.

Multi-objective mode (several :class:`~repro.dse.explorer.Objective`
terms) maintains a Pareto front over the *observed* scenario criteria
and steers acquisition with ParEGO-style random Chebyshev
scalarizations, so one search surfaces the whole CPI/power/AVF
trade-off curve instead of a single winner.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import resolve_settings, rng_from_seed
from repro.core.predictor import PredictorSettings, WaveletPredictorEnsemble
from repro.dse.dataset import DynamicsDataset
from repro.dse.explorer import Constraint, Objective
from repro.dse.lhs import sample_candidate_pool, sample_train_configs
from repro.dse.space import DesignSpace, paper_design_space
from repro.errors import ExperimentError, ModelError
from repro.uarch.params import MachineConfig

#: Acquisition strategies accepted by :class:`ActiveSearchSettings`.
STRATEGIES = ("ei", "ucb", "max_variance")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_erf = np.vectorize(math.erf, otypes=[float])


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / _SQRT2))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def pareto_front(scores: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of a *minimization* score matrix.

    A row dominates another when it is no worse in every column and
    strictly better in at least one.  Returned indices are sorted
    ascending, so the front is deterministic for a given matrix.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ModelError(
            f"scores must be a 2-D (points, objectives) matrix, got shape "
            f"{scores.shape}"
        )
    n = scores.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        no_worse = np.all(scores <= scores[i], axis=1)
        better = np.any(scores < scores[i], axis=1)
        if np.any(no_worse & better & keep):
            keep[i] = False
    return np.flatnonzero(keep)


@dataclass(frozen=True)
class ActiveSearchSettings:
    """Knobs of the sequential model-based optimization loop.

    Parameters
    ----------
    budget:
        Total simulation budget, *including* the initial design.
    batch_size:
        Simulations submitted per acquisition round (one engine batch).
    n_init:
        Size of the seed LHS design fitted before the first acquisition.
    strategy:
        ``"ei"`` (expected improvement, the default), ``"ucb"``
        (lower-confidence bound with exploration weight ``kappa``) or
        ``"max_variance"`` (pure uncertainty sampling — improves the
        model everywhere instead of optimizing).
    kappa:
        Exploration weight of the ``ucb`` strategy.
    n_members:
        Bootstrap ensemble size per metric domain.
    candidate_pool:
        Unsimulated configurations scored per round.
    fit_fraction:
        Fraction of a round's batch whose results the overlapped refit
        consumes; the remaining tail joins the training set one round
        later (the latency-hiding trade).  ``1.0`` disables the overlap.
    patience, tol:
        Convergence rule: stop after ``patience`` consecutive
        acquisition rounds that fail to improve the incumbent by more
        than ``tol`` (multi-objective: that fail to change the Pareto
        front).  ``patience=0`` disables early stopping.
    seed:
        Master seed; the whole trajectory is deterministic given it.
    n_lhs_matrices:
        Candidate LHS matrices for the initial design (best L2-star
        discrepancy wins, as in the paper's sampling step).
    predictor:
        Hyper-parameters shared by every ensemble member.
    """

    budget: int = 160
    batch_size: int = 16
    n_init: int = 40
    strategy: str = "ei"
    kappa: float = 1.0
    n_members: int = 4
    candidate_pool: int = 2048
    fit_fraction: float = 0.75
    patience: int = 3
    tol: float = 1e-3
    seed: int = 0
    n_lhs_matrices: int = 10
    predictor: PredictorSettings = field(default_factory=PredictorSettings)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.budget < 1:
            raise ModelError(f"budget must be >= 1, got {self.budget}")
        if self.batch_size < 1:
            raise ModelError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.n_init < 8:
            raise ModelError(
                f"n_init must be >= 8 (the ensembles need a usable seed "
                f"design), got {self.n_init}"
            )
        if self.strategy not in STRATEGIES:
            raise ModelError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.kappa <= 0:
            raise ModelError(f"kappa must be > 0, got {self.kappa}")
        if self.candidate_pool < self.batch_size:
            raise ModelError(
                f"candidate_pool ({self.candidate_pool}) must be >= "
                f"batch_size ({self.batch_size})"
            )
        if not 0.0 < self.fit_fraction <= 1.0:
            raise ModelError(
                f"fit_fraction must be in (0, 1], got {self.fit_fraction}"
            )
        if self.patience < 0:
            raise ModelError(f"patience must be >= 0, got {self.patience}")
        if self.tol < 0:
            raise ModelError(f"tol must be >= 0, got {self.tol}")
        self.predictor.validate()


@dataclass(frozen=True)
class RoundRecord:
    """Bookkeeping for one loop round (round 0 is the initial design)."""

    round_index: int
    strategy: str
    n_new: int
    n_simulations: int
    n_feasible: int
    best_score: float
    fit_seconds: float
    fit_overlapped: bool


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated observed design in multi-objective mode."""

    config: MachineConfig
    scores: Tuple[float, ...]  #: sign-folded (lower-better) per objective


@dataclass
class ActiveSearchResult:
    """Outcome of :meth:`ActiveSearch.run`.

    ``best_config``/``best_score`` track the feasible incumbent under
    the first objective; ``pareto`` holds the full non-dominated set
    when several objectives were given (empty otherwise).  ``observed``
    is a regular :class:`~repro.dse.dataset.DynamicsDataset` over every
    simulated configuration, so the search's by-product is exactly the
    training set a fixed sweep would have produced — ready for
    :class:`~repro.dse.explorer.PredictiveExplorer` post-hoc analysis.
    """

    best_config: Optional[MachineConfig]
    best_score: float
    n_simulations: int
    rounds: List[RoundRecord]
    observed: DynamicsDataset
    pareto: List[ParetoPoint]
    converged: bool
    reason: str

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def describe(self) -> str:
        lines = [
            f"{self.n_simulations} simulations over {self.n_rounds} rounds "
            f"({self.reason})",
        ]
        if self.best_config is not None:
            lines.append(f"best feasible score: {self.best_score:.4f}")
        else:
            lines.append("no feasible configuration found")
        if self.pareto:
            lines.append(f"Pareto front: {len(self.pareto)} designs")
        return "\n".join(lines)


class ActiveSearch:
    """Sequential model-based optimization over a design space.

    Parameters
    ----------
    runner:
        The :class:`~repro.dse.runner.SweepRunner` providing job
        construction, metric domains and the execution engine (and with
        it parallel / cached simulation for free).
    objectives:
        One :class:`~repro.dse.explorer.Objective` or a sequence of
        them; more than one enables multi-objective (Pareto) mode.
    constraints:
        Scenario constraints every acceptable design must satisfy.
    settings:
        An :class:`ActiveSearchSettings`; keyword arguments may be
        passed directly instead.
    space:
        Design space to search; defaults to the paper's Table 2 space.
    """

    def __init__(self, runner,
                 objectives: Union[Objective, Sequence[Objective]],
                 constraints: Sequence[Constraint] = (),
                 settings: Optional[ActiveSearchSettings] = None,
                 space: Optional[DesignSpace] = None,
                 **kwargs):
        settings = resolve_settings(ActiveSearchSettings, settings,
                                    kwargs, ModelError)
        if isinstance(objectives, Objective):
            objectives = (objectives,)
        self.objectives: Tuple[Objective, ...] = tuple(objectives)
        if not self.objectives:
            raise ModelError("at least one objective is required")
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.runner = runner
        self.settings = settings
        self.space = space or paper_design_space()
        self.domains = tuple(dict.fromkeys(
            [o.domain for o in self.objectives]
            + [c.domain for c in self.constraints]))
        missing = [d for d in self.domains if d not in runner.domains]
        if missing:
            raise ExperimentError(
                f"runner does not record domains {missing}; it records "
                f"{tuple(runner.domains)}"
            )
        if settings.predictor.n_coefficients > runner.n_samples:
            raise ModelError(
                f"predictor retains {settings.predictor.n_coefficients} "
                f"coefficients but the runner traces only "
                f"{runner.n_samples} samples"
            )

    # ------------------------------------------------------------------
    def run(self, workload,
            init_configs: Optional[Sequence[MachineConfig]] = None,
            ) -> ActiveSearchResult:
        """Run the closed loop until budget, convergence, or exhaustion.

        Parameters
        ----------
        workload:
            Benchmark name or :class:`~repro.workloads.phases.WorkloadModel`.
        init_configs:
            Explicit initial design (truncated to the budget); defaults
            to a fresh best-discrepancy LHS of ``n_init`` points.  Pass
            the prefix of a fixed LHS sweep to compare both strategies
            from an identical starting state.
        """
        s = self.settings
        rng = rng_from_seed(s.seed)

        # Observed state, grown in job order every round.
        configs: List[MachineConfig] = []
        keys = set()
        rows: Dict[str, List[np.ndarray]] = {d: [] for d in self.runner.domains}
        true_scores: List[List[float]] = []   # per config, per objective
        feasible: List[bool] = []

        ensembles: Dict[str, WaveletPredictorEnsemble] = {}
        rounds: List[RoundRecord] = []
        benchmark: Optional[str] = None
        best_score = math.inf
        best_config: Optional[MachineConfig] = None
        stall = 0
        converged = False
        reason = "budget"
        front_keys: frozenset = frozenset()

        round_index = 0
        while len(configs) < s.budget:
            remaining = s.budget - len(configs)
            if round_index == 0:
                if init_configs is not None:
                    chosen = list(init_configs)[:remaining]
                else:
                    chosen = sample_train_configs(
                        self.space, min(s.n_init, remaining),
                        s.n_lhs_matrices, s.seed)
                strategy = "init"
                if not chosen:
                    raise ModelError("initial design is empty")
            else:
                chosen = self._select_batch(
                    ensembles, min(s.batch_size, remaining), rng, keys,
                    np.array(true_scores, dtype=float),
                    np.array(feasible, dtype=bool))
                strategy = s.strategy
                if not chosen:
                    reason = "exhausted"
                    break

            jobs = self.runner.jobs_for(workload, chosen)
            benchmark = jobs[0].benchmark
            handle = self.runner.engine.submit(jobs)

            # Overlapped refit: consume exactly the first `cutoff` jobs
            # (in job order) the moment they have all resolved — the
            # executor keeps simulating the tail while the main process
            # fits.  The tail joins the training set next round.
            will_continue = len(configs) + len(chosen) < s.budget
            cutoff = max(1, math.ceil(s.fit_fraction * len(jobs)))
            results: List = [None] * len(jobs)
            prefix = 0
            fitted = False
            fit_overlapped = False
            fit_seconds = 0.0
            for index, result in handle.as_completed():
                results[index] = result
                while prefix < len(jobs) and results[prefix] is not None:
                    prefix += 1
                if will_continue and not fitted and prefix >= cutoff:
                    extra = [(chosen[i], results[i]) for i in range(cutoff)]
                    start = time.perf_counter()
                    ensembles = self._fit(configs, rows, extra, rng)
                    fit_seconds = time.perf_counter() - start
                    fitted = True
                    fit_overlapped = handle.done < len(jobs)

            # Fold the whole round into the observed state, job order.
            for config, result in zip(chosen, results):
                configs.append(config)
                keys.add(config.key())
                for d in self.runner.domains:
                    rows[d].append(np.asarray(result.trace(d), dtype=float))
                scores = [o.score(result.trace(o.domain))
                          for o in self.objectives]
                ok = all(c.satisfied(result.trace(c.domain))
                         for c in self.constraints)
                true_scores.append(scores)
                feasible.append(ok)
                if ok and scores[0] < best_score:
                    best_score = scores[0]
                    best_config = config

            n_feasible = int(np.count_nonzero(feasible))
            rounds.append(RoundRecord(
                round_index=round_index, strategy=strategy,
                n_new=len(chosen), n_simulations=len(configs),
                n_feasible=n_feasible, best_score=best_score,
                fit_seconds=round(fit_seconds, 6),
                fit_overlapped=fit_overlapped))

            # Convergence: incumbent stagnation (single objective) or a
            # frozen Pareto front (multi-objective), measured only over
            # acquisition rounds — the init round sets the baseline.
            # While nothing feasible has been observed the rule is
            # suspended entirely: the acquisition is still hunting for
            # a first feasible design, and "no incumbent improved" says
            # nothing about that hunt (only the budget bounds it).
            if len(self.objectives) > 1:
                new_front = self._front_keys(
                    np.array(true_scores, dtype=float),
                    np.array(feasible, dtype=bool), configs)
                improved = new_front != front_keys
                front_keys = new_front
            else:
                previous = (rounds[-2].best_score if len(rounds) > 1
                            else math.inf)
                improved = best_score < previous - s.tol
            if round_index > 0 and n_feasible > 0:
                stall = 0 if improved else stall + 1
                if s.patience and stall >= s.patience:
                    converged = True
                    reason = "converged"
                    round_index += 1
                    break
            round_index += 1

        observed = DynamicsDataset(
            benchmark=benchmark or "", space=self.space,
            configs=list(configs),
            traces={d: (np.vstack(r) if r
                        else np.empty((0, self.runner.n_samples)))
                    for d, r in rows.items()},
        )
        scores_arr = np.array(true_scores, dtype=float)
        feas_arr = np.array(feasible, dtype=bool)
        pareto: List[ParetoPoint] = []
        if len(self.objectives) > 1 and np.any(feas_arr):
            idx = np.flatnonzero(feas_arr)
            for j in idx[pareto_front(scores_arr[idx])]:
                pareto.append(ParetoPoint(
                    config=configs[j],
                    scores=tuple(float(v) for v in scores_arr[j])))
        return ActiveSearchResult(
            best_config=best_config, best_score=best_score,
            n_simulations=len(configs), rounds=rounds, observed=observed,
            pareto=pareto, converged=converged, reason=reason)

    # ------------------------------------------------------------------
    def _fit(self, configs: List[MachineConfig],
             rows: Dict[str, List[np.ndarray]],
             extra: List[Tuple[MachineConfig, object]],
             rng: np.random.Generator,
             ) -> Dict[str, WaveletPredictorEnsemble]:
        """Fit one ensemble per needed domain on observed + ``extra``."""
        all_configs = configs + [c for c, _ in extra]
        X = self.space.encode_many(all_configs)
        seed = int(rng.integers(2 ** 31))
        out: Dict[str, WaveletPredictorEnsemble] = {}
        for domain in self.domains:
            traces = rows[domain] + [
                np.asarray(r.trace(domain), dtype=float) for _, r in extra]
            out[domain] = WaveletPredictorEnsemble(
                n_members=self.settings.n_members,
                settings=self.settings.predictor,
                seed=seed,
            ).fit(X, np.vstack(traces))
        return out

    def _front_keys(self, scores: np.ndarray, feasible: np.ndarray,
                    configs: List[MachineConfig]) -> frozenset:
        if not np.any(feasible):
            return frozenset()
        idx = np.flatnonzero(feasible)
        return frozenset(configs[j].key()
                         for j in idx[pareto_front(scores[idx])])

    # ------------------------------------------------------------------
    def _select_batch(self, ensembles: Dict[str, WaveletPredictorEnsemble],
                      batch: int, rng: np.random.Generator, keys,
                      true_scores: np.ndarray, feasible: np.ndarray,
                      ) -> List[MachineConfig]:
        """Top-``batch`` candidates under the acquisition strategy.

        One ``member_predictions`` call per domain and pure-numpy
        scoring afterwards: the whole pool is priced without per-config
        Python work, exactly like
        :meth:`~repro.dse.explorer.PredictiveExplorer.search`.
        """
        s = self.settings
        pool_seed = int(rng.integers(2 ** 31))
        weights = None
        if len(self.objectives) > 1:
            raw = -np.log(rng.uniform(1e-12, 1.0, size=len(self.objectives)))
            weights = raw / raw.sum()
        candidates = sample_candidate_pool(
            self.space, s.candidate_pool, pool_seed, exclude_keys=keys)
        if not candidates:
            return []
        X = self.space.encode_many(candidates)
        preds = {d: ensembles[d].member_predictions(X) for d in self.domains}

        pfeas = np.ones(len(candidates), dtype=float)
        for c in self.constraints:
            margins = c.margin_many(preds[c.domain])        # (K, n)
            mu, sd = margins.mean(axis=0), margins.std(axis=0)
            pfeas *= np.where(sd < 1e-12, (mu > 0).astype(float),
                              _norm_cdf(mu / np.maximum(sd, 1e-12)))

        mu, sd, best = self._objective_posterior(preds, weights,
                                                 true_scores, feasible)
        acq = self._acquisition(mu, sd, best, pfeas)
        order = np.argsort(-acq, kind="stable")[:batch]
        return [candidates[i] for i in order]

    def _objective_posterior(self, preds, weights, true_scores, feasible):
        """Per-candidate (mean, std, incumbent) of the acquisition target.

        Single objective: the raw sign-folded score.  Multi-objective:
        a ParEGO-style Chebyshev scalarization under this round's random
        weights, normalized by the observed score ranges so no domain
        dominates by unit alone; the incumbent is the best *observed
        feasible* value under the same scalarization.
        """
        if weights is None:
            member = self.objectives[0].score_many(
                preds[self.objectives[0].domain])            # (K, n)
            mu, sd = member.mean(axis=0), member.std(axis=0)
            if np.any(feasible):
                best = float(true_scores[feasible, 0].min())
            else:
                best = None
            return mu, sd, best
        lo = true_scores.min(axis=0)
        span = np.maximum(true_scores.max(axis=0) - lo, 1e-12)
        member_norm = []
        for j, objective in enumerate(self.objectives):
            scores = objective.score_many(preds[objective.domain])  # (K, n)
            member_norm.append(weights[j] * (scores - lo[j]) / span[j])
        stacked = np.stack(member_norm)                       # (m, K, n)
        scalar = stacked.max(axis=0) + 0.05 * stacked.sum(axis=0)
        mu, sd = scalar.mean(axis=0), scalar.std(axis=0)
        if np.any(feasible):
            obs = (true_scores[feasible] - lo[None, :]) / span[None, :]
            weighted = obs * weights[None, :]
            best = float((weighted.max(axis=1)
                          + 0.05 * weighted.sum(axis=1)).min())
        else:
            best = None
        return mu, sd, best

    def _acquisition(self, mu: np.ndarray, sd: np.ndarray,
                     best: Optional[float],
                     pfeas: np.ndarray) -> np.ndarray:
        """Higher-is-better acquisition scores for one candidate pool."""
        strategy = self.settings.strategy
        if strategy == "max_variance":
            # Pure uncertainty sampling: improve the model everywhere it
            # is unsure, objective and feasibility notwithstanding.
            return sd
        if best is None:
            # No feasible incumbent yet: hunt for feasibility first,
            # preferring uncertain candidates among equally likely ones.
            return pfeas * (1.0 + sd)
        if strategy == "ei":
            gap = best - mu
            safe_sd = np.maximum(sd, 1e-12)
            z = gap / safe_sd
            ei = gap * _norm_cdf(z) + safe_sd * _norm_pdf(z)
            ei = np.where(sd < 1e-12, np.maximum(gap, 0.0), ei)
            return ei * pfeas
        # "ucb" (a lower-confidence bound, since scores are minimized):
        # optimistic value mu - kappa*sd, shifted so the best candidate
        # scores highest and feasibility can weigh multiplicatively.
        lcb = mu - self.settings.kappa * sd
        return (lcb.max() - lcb + 1e-12) * pfeas


def run_active_search(runner, workload,
                      objectives: Union[Objective, Sequence[Objective]],
                      constraints: Sequence[Constraint] = (),
                      settings: Optional[ActiveSearchSettings] = None,
                      space: Optional[DesignSpace] = None,
                      init_configs: Optional[Sequence[MachineConfig]] = None,
                      **kwargs) -> ActiveSearchResult:
    """Functional entry point: build an :class:`ActiveSearch` and run it."""
    search = ActiveSearch(runner, objectives, constraints=constraints,
                          settings=settings, space=space, **kwargs)
    return search.run(workload, init_configs=init_configs)
