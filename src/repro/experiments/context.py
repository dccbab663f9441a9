"""Shared experiment context: datasets and models, built once.

Most figures consume the same underlying data — the 200-train/50-test
sweep per benchmark and the per-domain wavelet neural networks.  The
context builds each piece lazily and caches it, so running every bench
in one pytest session costs one sweep, not fourteen.

Two scales are provided:

``Scale.paper()``
    Exactly the paper's setup: 200 train / 50 test configurations, all
    12 benchmarks everywhere, 128 samples.
``Scale.quick()``
    Identical sampling but trimmed benchmark lists for the two most
    model-hungry sweeps (Figures 9 and 10), keeping a full bench run in
    minutes.  Select with ``REPRO_SCALE=quick|paper`` (default: paper
    for the library, quick for the benches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.core.metrics import pooled_nmse_percent
from repro.core.predictor import WaveletNeuralPredictor
from repro.dse.dataset import DynamicsDataset
from repro.dse.runner import SweepPlan, SweepRunner
from repro.dse.space import DesignSpace, paper_design_space
from repro.engine import ExecutionEngine, create_engine
from repro.workloads.spec2000 import BENCHMARK_NAMES

#: Domains with predictive models in the evaluation.
EVAL_DOMAINS = ("cpi", "power", "avf")


@dataclass(frozen=True)
class Scale:
    """Scope knobs for experiment execution."""

    name: str
    n_train: int = 200
    n_test: int = 50
    n_samples: int = 128
    n_coefficients: int = 16
    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    fig9_benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    fig10_benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    seed: int = 0

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's full setup."""
        return cls(name="paper")

    @classmethod
    def quick(cls) -> "Scale":
        """Full fidelity for single-dataset figures; trimmed benchmark
        lists for the coefficient/sampling sweeps."""
        return cls(
            name="quick",
            fig9_benchmarks=("bzip2", "gcc", "mcf", "swim", "twolf", "vpr"),
            fig10_benchmarks=("gcc", "mcf", "swim", "vpr"),
        )

    @classmethod
    def from_env(cls, default: str = "paper") -> "Scale":
        """Scale selected by ``REPRO_SCALE`` (``default`` when unset)."""
        name, source = settings.lookup("scale")
        if source == "default":
            name = settings.check("scale", default)
        return cls.quick() if name == "quick" else cls.paper()


class ExperimentContext:
    """Lazily-built, cached datasets and models for all experiments.

    Parameters
    ----------
    scale:
        Scope knobs; defaults to the ``REPRO_SCALE`` environment.
    engine:
        Execution engine shared by every sweep this context runs;
        defaults to one built from :func:`repro.settings.resolve`.
    """

    def __init__(self, scale: Optional[Scale] = None,
                 engine: Optional[ExecutionEngine] = None):
        self.scale = scale or Scale.from_env()
        self.engine = engine or create_engine(
            **settings.resolve().engine_options())
        self.space = paper_design_space()
        self.dvm_space = self.space.with_dvm_parameter()
        self._datasets: Dict[Tuple, Tuple[DynamicsDataset, DynamicsDataset]] = {}
        self._models: Dict[Tuple, WaveletNeuralPredictor] = {}

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def _dataset_key(self, benchmark: str, n_samples: int, dvm: bool,
                     dvm_threshold: float) -> Tuple:
        return (benchmark, n_samples, dvm, dvm_threshold if dvm else None)

    def dataset(self, benchmark: str, n_samples: Optional[int] = None,
                dvm: bool = False, dvm_threshold: float = 0.3,
                ) -> Tuple[DynamicsDataset, DynamicsDataset]:
        """(train, test) datasets for one benchmark.

        With ``dvm=True`` the design space gains the paper's tenth
        parameter (DVM on/off at the given threshold); test
        configurations are sampled over the extended space too.
        """
        n_samples = n_samples or self.scale.n_samples
        key = self._dataset_key(benchmark, n_samples, dvm, dvm_threshold)
        if key not in self._datasets:
            for _ in self.iter_datasets((benchmark,), n_samples, dvm,
                                        dvm_threshold):
                pass
        return self._datasets[key]

    def prefetch(self, benchmarks: Sequence[str],
                 n_samples: Optional[int] = None, dvm: bool = False,
                 dvm_threshold: float = 0.3) -> None:
        """Build several benchmarks' (train, test) datasets as one batch.

        Figure drivers that iterate benchmarks call this first: all the
        missing sweeps are submitted together, so a parallel engine
        stays saturated across benchmark boundaries instead of draining
        at the tail of each per-benchmark batch.
        """
        for _ in self.iter_datasets(benchmarks, n_samples, dvm,
                                    dvm_threshold):
            pass

    def iter_datasets(self, benchmarks: Sequence[str],
                      n_samples: Optional[int] = None, dvm: bool = False,
                      dvm_threshold: float = 0.3) -> Iterator[str]:
        """Yield benchmark names as their (train, test) datasets land.

        Already-built benchmarks yield first; the rest have their
        train+test sweeps submitted as **one** engine batch and yield in
        sweep-completion order, each one's datasets stored in the
        context before its name is yielded.  Consumers can therefore fit
        models for finished benchmarks while the remaining benchmarks
        are still simulating — the streaming overlap the ROADMAP's
        "async streaming sweeps" item asks for.
        """
        n_samples = n_samples or self.scale.n_samples
        missing: List[str] = []
        for bench in dict.fromkeys(benchmarks):  # de-dup, keep order
            key = self._dataset_key(bench, n_samples, dvm, dvm_threshold)
            if key in self._datasets:
                yield bench
            else:
                missing.append(bench)
        if not missing:
            return
        space = self.dvm_space if dvm else self.space
        plan = SweepPlan(space=space, n_train=self.scale.n_train,
                         n_test=self.scale.n_test, seed=self.scale.seed)
        # Every benchmark shares one sampling plan, so the configuration
        # lists are drawn once and shared across all submitted sweeps.
        train_cfgs, test_cfgs = plan.sample()
        if dvm:
            train_cfgs = [
                c.with_dvm(c.dvm_enabled, dvm_threshold) for c in train_cfgs
            ]
            test_cfgs = [
                c.with_dvm(c.dvm_enabled, dvm_threshold) for c in test_cfgs
            ]
        runner = SweepRunner(n_samples=n_samples, engine=self.engine)
        requests = [(bench, [train_cfgs, test_cfgs]) for bench in missing]
        partial: Dict[int, Dict[int, DynamicsDataset]] = {}
        for request_index, group_index, ds in runner.run_grid_streaming(
                requests, space):
            groups = partial.setdefault(request_index, {})
            groups[group_index] = ds
            if len(groups) == 2:
                bench = missing[request_index]
                key = self._dataset_key(bench, n_samples, dvm, dvm_threshold)
                self._datasets[key] = (groups[0], groups[1])
                yield bench

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def model(self, benchmark: str, domain: str,
              n_coefficients: Optional[int] = None,
              n_samples: Optional[int] = None,
              scheme: str = "magnitude", dvm: bool = False,
              dvm_threshold: float = 0.3) -> WaveletNeuralPredictor:
        """A fitted wavelet neural network for (benchmark, domain)."""
        n_coefficients = n_coefficients or self.scale.n_coefficients
        n_samples = n_samples or self.scale.n_samples
        key = (benchmark, domain, n_coefficients, n_samples, scheme,
               dvm, dvm_threshold if dvm else None)
        if key not in self._models:
            train, _ = self.dataset(benchmark, n_samples, dvm, dvm_threshold)
            model = WaveletNeuralPredictor(
                n_coefficients=n_coefficients, scheme=scheme,
            ).fit(train.design_matrix(), train.domain(domain))
            self._models[key] = model
        return self._models[key]

    # ------------------------------------------------------------------
    # Errors (the canonical MSE%)
    # ------------------------------------------------------------------
    def test_errors(self, benchmark: str, domain: str,
                    n_coefficients: Optional[int] = None,
                    n_samples: Optional[int] = None,
                    scheme: str = "magnitude", dvm: bool = False,
                    dvm_threshold: float = 0.3) -> np.ndarray:
        """Per-test-configuration MSE% for one (benchmark, domain)."""
        model = self.model(benchmark, domain, n_coefficients, n_samples,
                           scheme, dvm, dvm_threshold)
        _, test = self.dataset(benchmark, n_samples, dvm, dvm_threshold)
        predicted = model.predict(test.design_matrix())
        return pooled_nmse_percent(test.domain(domain), predicted)

    def errors_by_benchmark(self, domain: str,
                            benchmarks: Optional[Sequence[str]] = None,
                            n_coefficients: Optional[int] = None,
                            n_samples: Optional[int] = None,
                            ) -> Dict[str, np.ndarray]:
        """MSE% arrays per benchmark for one domain.

        All benchmarks' train+test sweeps are submitted as one engine
        batch; each benchmark's models are fitted and scored the moment
        its sweep drains, overlapping fitting with the simulation tail
        of the remaining benchmarks.  The returned dict is keyed in the
        requested benchmark order regardless of completion order.
        """
        benchmarks = tuple(benchmarks or self.scale.benchmarks)
        errors: Dict[str, np.ndarray] = {}
        for bench in self.iter_datasets(benchmarks, n_samples):
            errors[bench] = self.test_errors(bench, domain, n_coefficients,
                                             n_samples)
        return {bench: errors[bench] for bench in benchmarks}


_CONTEXT: Optional[ExperimentContext] = None


def get_context() -> ExperimentContext:
    """The process-wide shared context (created on first use)."""
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = ExperimentContext()
    return _CONTEXT
