"""Model-driven design-space exploration.

This is the payoff the paper promises: once the wavelet neural networks
are trained on a few hundred simulations, *every other* configuration's
dynamics can be predicted in microseconds — so architects can search the
full design space against scenario-aware criteria ("worst-case power
under 100 W", "IQ AVF never above 0.3", "best CPI subject to both")
without running another simulation.

:class:`PredictiveExplorer` wraps per-domain
:class:`~repro.core.predictor.WaveletNeuralPredictor` models and
evaluates :class:`Constraint`/:class:`Objective` terms over predicted
*traces*, not just aggregates — which is exactly what distinguishes this
methodology from the aggregate-only predictive-DSE line of work.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predictor import WaveletNeuralPredictor
from repro.dse.space import DesignSpace
from repro.errors import ExperimentError, ModelError
from repro.uarch.params import MachineConfig

#: Reduction functions applicable to predicted traces.  Each reducer is
#: vectorized: it accepts either one trace (1-D) or a stacked trace
#: matrix (2-D, one row per configuration) and reduces along ``axis``
#: (default: the sample axis), so the explorer scores thousands of
#: candidate configurations in a handful of numpy calls.
REDUCERS: Dict[str, Callable[..., np.ndarray]] = {
    "mean": lambda t, axis=-1: np.mean(t, axis=axis),
    "max": lambda t, axis=-1: np.max(t, axis=axis),
    "min": lambda t, axis=-1: np.min(t, axis=axis),
    "p95": lambda t, axis=-1: np.percentile(t, 95, axis=axis),
    "p99": lambda t, axis=-1: np.percentile(t, 99, axis=axis),
    "std": lambda t, axis=-1: np.std(t, axis=axis),
    "amax_abs": lambda t, axis=-1: np.max(np.abs(t), axis=axis),
}


def register_reducer(name: str, fn: Callable[..., np.ndarray],
                     overwrite: bool = False) -> None:
    """Register a custom trace reducer for scenario criteria.

    The reducer must have signature ``fn(traces, axis=-1)`` and reduce a
    trace array along ``axis`` (like ``np.mean``), so constraints and
    objectives built on it stay fully vectorized.  It is probed once at
    registration with a small matrix; malformed reducers are rejected
    with :class:`~repro.errors.ModelError`.

    Parameters
    ----------
    name:
        Reducer name as referenced by :class:`Constraint` /
        :class:`Objective` (a valid identifier).
    fn:
        The reduction callable.
    overwrite:
        Allow replacing an existing reducer (off by default so built-ins
        are not shadowed by accident).
    """
    if not isinstance(name, str) or not name.isidentifier():
        raise ModelError(
            f"reducer name must be a valid identifier string, got {name!r}"
        )
    if name in REDUCERS and not overwrite:
        raise ModelError(
            f"reducer {name!r} already registered; pass overwrite=True to "
            f"replace it"
        )
    if not callable(fn):
        raise ModelError(f"reducer {name!r} must be callable, got {fn!r}")
    # Strictly positive probe: reducers like harmonic means are valid on
    # real traces (the simulators clamp them positive) but undefined at 0.
    probe = np.arange(1.0, 9.0).reshape(2, 4)
    try:
        reduced = np.asarray(fn(probe, axis=-1), dtype=float)
    except Exception as exc:
        raise ModelError(
            f"reducer {name!r} failed its probe call fn(traces, axis=-1): "
            f"{exc}"
        ) from exc
    if reduced.shape != (2,) or not np.all(np.isfinite(reduced)):
        raise ModelError(
            f"reducer {name!r} must map a (n, samples) matrix to a finite "
            f"length-n vector along axis=-1, got shape {reduced.shape}"
        )
    REDUCERS[name] = fn


#: Names that :func:`unregister_reducer` refuses to remove (built-ins an
#: existing Constraint/Objective may rely on); overwritten built-ins can
#: still be restored via ``register_reducer(name, fn, overwrite=True)``.
_BUILTIN_REDUCERS = frozenset(REDUCERS)


def unregister_reducer(name: str) -> None:
    """Remove a custom reducer registered via :func:`register_reducer`."""
    if name in _BUILTIN_REDUCERS:
        raise ModelError(f"cannot unregister built-in reducer {name!r}")
    if name not in REDUCERS:
        raise ModelError(f"reducer {name!r} is not registered")
    del REDUCERS[name]


def _reduce(name: str, traces: np.ndarray) -> np.ndarray:
    """Apply a named reducer along the sample axis."""
    return np.asarray(REDUCERS[name](np.asarray(traces, dtype=float),
                                     axis=-1), dtype=float)


@dataclass(frozen=True)
class Constraint:
    """A scenario constraint over one domain's predicted dynamics.

    ``Constraint("power", "max", "<=", 100.0)`` reads: the predicted
    power trace's maximum must not exceed 100 W.  Trace-level reducers
    ("max", "p95") are the scenario-aware part — aggregate-only models
    cannot express them.
    """

    domain: str
    reducer: str
    op: str
    bound: float

    def __post_init__(self):
        if not isinstance(self.domain, str) or not self.domain:
            raise ModelError(
                f"domain must be a non-empty string, got {self.domain!r}"
            )
        if self.reducer not in REDUCERS:
            raise ModelError(
                f"unknown reducer {self.reducer!r}; choose from "
                f"{sorted(REDUCERS)}"
            )
        if self.op not in ("<=", ">="):
            raise ModelError(f"op must be '<=' or '>=', got {self.op!r}")
        if isinstance(self.bound, bool) or not isinstance(
                self.bound, numbers.Real) or not np.isfinite(
                    float(self.bound)):
            raise ModelError(
                f"bound must be a finite number, got {self.bound!r}"
            )

    def satisfied(self, trace: np.ndarray) -> bool:
        value = float(_reduce(self.reducer, trace))
        return value <= self.bound if self.op == "<=" else value >= self.bound

    def satisfied_many(self, traces: np.ndarray) -> np.ndarray:
        """Vectorized feasibility over a stacked ``(n, samples)`` matrix."""
        values = _reduce(self.reducer, traces)
        return values <= self.bound if self.op == "<=" else values >= self.bound

    def margin(self, trace: np.ndarray) -> float:
        """Positive slack when satisfied, negative when violated."""
        value = float(_reduce(self.reducer, trace))
        return self.bound - value if self.op == "<=" else value - self.bound

    def margin_many(self, traces: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`margin` over stacked traces.

        Accepts any array whose **last** axis is the sample axis — a
        ``(n, samples)`` matrix gives per-configuration margins, a
        ``(K, n, samples)`` ensemble stack gives per-(member,
        configuration) margins — so the active-learning acquisition can
        estimate feasibility probabilities in one numpy call.
        """
        values = _reduce(self.reducer, traces)
        return self.bound - values if self.op == "<=" else values - self.bound

    def describe(self) -> str:
        return f"{self.reducer}({self.domain}) {self.op} {self.bound:g}"


@dataclass(frozen=True)
class Objective:
    """Minimize or maximize a reduced trace statistic."""

    domain: str
    reducer: str = "mean"
    maximize: bool = False

    def __post_init__(self):
        if self.reducer not in REDUCERS:
            raise ModelError(
                f"unknown reducer {self.reducer!r}; choose from "
                f"{sorted(REDUCERS)}"
            )

    def score(self, trace: np.ndarray) -> float:
        """Score where *lower is always better* (sign-folded)."""
        return float(self.score_many(trace))

    def score_many(self, traces: np.ndarray) -> np.ndarray:
        """Vectorized scores over a stacked ``(n, samples)`` matrix."""
        values = _reduce(self.reducer, traces)
        return -values if self.maximize else values

    def describe(self) -> str:
        verb = "maximize" if self.maximize else "minimize"
        return f"{verb} {self.reducer}({self.domain})"


@dataclass
class ExplorationResult:
    """Outcome of a predictive design-space search."""

    best_config: Optional[MachineConfig]
    best_score: float
    n_evaluated: int
    n_feasible: int
    ranked: List[Tuple[MachineConfig, float]] = field(default_factory=list)

    @property
    def feasible_fraction(self) -> float:
        return self.n_feasible / self.n_evaluated if self.n_evaluated else 0.0


class PredictiveExplorer:
    """Search a design space using fitted dynamics models.

    Parameters
    ----------
    space:
        The design space whose encoding the models were trained with.
    models:
        Domain name -> fitted :class:`WaveletNeuralPredictor`.  Every
        domain referenced by a constraint or objective must be present.
    """

    def __init__(self, space: DesignSpace,
                 models: Dict[str, WaveletNeuralPredictor]):
        self.space = space
        self.models = dict(models)
        for domain, model in self.models.items():
            if model.selected_indices_ is None:
                raise ModelError(f"model for domain {domain!r} is not fitted")

    # ------------------------------------------------------------------
    def candidate_grid(self, split: str = "train",
                       limit: Optional[int] = None,
                       seed: int = 0) -> List[MachineConfig]:
        """Candidate configurations: the full split grid, or a uniform
        sample of ``limit`` points when the grid is larger."""
        total = self.space.size(split)
        if limit is not None and total > limit:
            return self.space.sample_random(limit, split=split, seed=seed)
        level_sets = [p.levels(split) for p in self.space.parameters]
        configs = []
        for combo in itertools.product(*level_sets):
            values = dict(zip(self.space.names, combo))
            configs.append(self.space.config_from_values(values))
        return configs

    def predict_traces(self, configs: Sequence[MachineConfig],
                       domains: Iterable[str]) -> Dict[str, np.ndarray]:
        """Predicted dynamics per domain, shape ``(n_configs, n_samples)``."""
        X = self.space.encode_many(configs)
        out = {}
        for domain in domains:
            if domain not in self.models:
                raise ExperimentError(
                    f"no model for domain {domain!r}; have "
                    f"{sorted(self.models)}"
                )
            out[domain] = self.models[domain].predict(X)
        return out

    def search(self, objective: Objective,
               constraints: Sequence[Constraint] = (),
               candidates: Optional[Sequence[MachineConfig]] = None,
               limit: int = 4096, top_k: int = 10,
               seed: int = 0) -> ExplorationResult:
        """Find the best feasible configuration under the objective.

        Parameters
        ----------
        objective:
            What to optimize.
        constraints:
            Scenario constraints every feasible config must satisfy.
        candidates:
            Explicit candidate list; defaults to (a sample of) the train
            grid.
        limit:
            Candidate budget when sampling the grid.
        top_k:
            How many ranked feasible configs to return (a non-negative
            integer).
        """
        if (isinstance(top_k, bool) or not isinstance(top_k, numbers.Integral)
                or top_k < 0):
            raise ModelError(
                f"top_k must be a non-negative integer, got {top_k!r}"
            )
        if candidates is None:
            candidates = self.candidate_grid(limit=limit, seed=seed)
        candidates = list(candidates)
        domains = {objective.domain} | {c.domain for c in constraints}
        # One stacked predict() per domain, then pure-numpy scoring: no
        # per-configuration Python work anywhere on this path.
        traces = self.predict_traces(candidates, domains)

        feasible = np.ones(len(candidates), dtype=bool)
        for c in constraints:
            feasible &= c.satisfied_many(traces[c.domain])
        scores = objective.score_many(traces[objective.domain])

        n_feasible = int(np.count_nonzero(feasible))
        idx = np.flatnonzero(feasible)
        order = idx[np.argsort(scores[idx], kind="stable")]
        if order.size:
            best_config = candidates[order[0]]
            best_score = float(scores[order[0]])
        else:
            best_config, best_score = None, float("inf")
        ranked = [(candidates[i], float(scores[i])) for i in order[:top_k]]
        return ExplorationResult(
            best_config=best_config,
            best_score=best_score,
            n_evaluated=len(candidates),
            n_feasible=n_feasible,
            ranked=ranked,
        )

    def sensitivity(self, base: MachineConfig, parameter: str,
                    domain: str, reducer: str = "mean") -> List[Tuple[float, float]]:
        """One-parameter sweep: predicted statistic at every train level.

        Returns ``[(level, value), ...]`` — the "what if we only grew the
        L2?" question answered from the model in microseconds.
        """
        if reducer not in REDUCERS:
            raise ModelError(f"unknown reducer {reducer!r}")
        p = self.space.parameter(parameter)
        configs = []
        for level in p.train_levels:
            values = self.space.values_of(base)
            values[parameter] = level
            configs.append(self.space.config_from_values(values))
        traces = self.predict_traces(configs, [domain])[domain]
        values = _reduce(reducer, traces)
        return [(float(level), float(value))
                for level, value in zip(p.train_levels, values)]
