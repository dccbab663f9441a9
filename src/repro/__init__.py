"""repro — workload-dynamics-aware microarchitecture design space exploration.

A faithful reproduction of Cho, Zhang & Li, *Informed Microarchitecture
Design Space Exploration using Workload Dynamics* (MICRO 2007): wavelet
multiresolution decomposition + per-coefficient RBF neural networks that
predict a workload's CPI / power / AVF *time series* at unexplored
design points, plus every substrate the paper depends on (superscalar
simulator, Wattch-style power model, ACE/AVF analysis, synthetic SPEC
CPU 2000 workloads, LHS design-space sampling, and the DVM case study).

Quick start
-----------
>>> import repro
>>> sim = repro.Simulator()
>>> result = sim.run("gcc", repro.baseline_config(), n_samples=128)
>>> result.trace("cpi").shape
(128,)

Fit a dynamics predictor over a sampled design space::

    space = repro.paper_design_space()
    runner = repro.SweepRunner()
    train, test = runner.run_train_test("gcc")
    model = repro.WaveletNeuralPredictor(n_coefficients=16)
    model.fit(train.design_matrix(), train.domain("cpi"))
    errors = repro.pooled_nmse_percent(
        test.domain("cpi"), model.predict(test.design_matrix()))

See ``examples/`` for complete scripts and ``benchmarks/`` for the
drivers that regenerate every table and figure of the paper.
"""

from repro.core.predictor import (
    PredictorSettings,
    WaveletNeuralPredictor,
    WaveletPredictorEnsemble,
)
from repro.core.metrics import (
    directional_symmetry,
    nmse_percent,
    pooled_nmse_percent,
    quartile_thresholds,
)
from repro.core.wavelets import MultiresolutionAnalysis, dwt, haar_dwt, haar_idwt, idwt
from repro.core.rbf import RBFNetwork
from repro.core.regression_tree import RegressionTree
from repro.dse.active import (
    ActiveSearch,
    ActiveSearchResult,
    ActiveSearchSettings,
)
from repro.dse.explorer import (
    Constraint,
    Objective,
    PredictiveExplorer,
    register_reducer,
)
from repro.dse.lhs import l2_star_discrepancy, latin_hypercube
from repro.engine import (
    ExecutionEngine,
    ParallelExecutor,
    ResultCache,
    SimJob,
    create_engine,
)
from repro.dse.runner import SweepPlan, SweepRunner
from repro.dse.space import DesignSpace, paper_design_space
from repro.dse.dataset import DynamicsDataset
from repro.power.thermal import DTMPolicy, ThermalModel
from repro.reliability.dvm import DVMPolicy
from repro.uarch.params import MachineConfig, baseline_config
from repro.uarch.simulator import SimulationResult, Simulator
from repro.workloads.spec2000 import BENCHMARK_NAMES, get_benchmark, list_benchmarks

__version__ = "1.0.0"

__all__ = [
    # Core predictive models
    "WaveletNeuralPredictor",
    "WaveletPredictorEnsemble",
    "PredictorSettings",
    "RBFNetwork",
    "RegressionTree",
    # Wavelets
    "MultiresolutionAnalysis",
    "dwt",
    "idwt",
    "haar_dwt",
    "haar_idwt",
    # Metrics
    "pooled_nmse_percent",
    "nmse_percent",
    "directional_symmetry",
    "quartile_thresholds",
    # Simulation
    "Simulator",
    "SimulationResult",
    "MachineConfig",
    "baseline_config",
    "DVMPolicy",
    # Design space exploration
    "DesignSpace",
    "paper_design_space",
    "latin_hypercube",
    "l2_star_discrepancy",
    "SweepRunner",
    "SweepPlan",
    "DynamicsDataset",
    "PredictiveExplorer",
    "Constraint",
    "Objective",
    "register_reducer",
    "ActiveSearch",
    "ActiveSearchResult",
    "ActiveSearchSettings",
    # Execution engine
    "SimJob",
    "ExecutionEngine",
    "ParallelExecutor",
    "ResultCache",
    "create_engine",
    "ThermalModel",
    "DTMPolicy",
    # Workloads
    "BENCHMARK_NAMES",
    "get_benchmark",
    "list_benchmarks",
    "__version__",
]
