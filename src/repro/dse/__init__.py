"""Design-space exploration: sampling, sweeping and importance analysis.

``space``
    :class:`~repro.dse.space.DesignSpace` — the paper's Table 2 parameter
    levels (train and test splits) and normalized design-vector encoding.
``lhs``
    Latin Hypercube Sampling with L2-star-discrepancy matrix selection
    (Section 3's sampling strategy).
``runner`` / ``dataset``
    Sweep execution over (benchmark × configuration) and the resulting
    :class:`~repro.dse.dataset.DynamicsDataset`.
``importance``
    Regression-tree split-order / split-frequency aggregation feeding the
    Figure 11 star plots.
``explorer``
    :class:`~repro.dse.explorer.PredictiveExplorer` — one-shot search of
    the full space against :class:`~repro.dse.explorer.Constraint` /
    :class:`~repro.dse.explorer.Objective` scenario criteria, evaluated
    on *predicted traces* through the vectorized reducer registry.
``active``
    :class:`~repro.dse.active.ActiveSearch` — the closed loop: ensemble
    uncertainty picks each next engine batch (EI / UCB / max-variance
    acquisition, Pareto mode, budget/convergence stopping).
"""

from repro.dse.space import DesignSpace, Parameter, paper_design_space
from repro.dse.lhs import latin_hypercube, l2_star_discrepancy, best_lhs_matrix
from repro.dse.dataset import DynamicsDataset
from repro.dse.runner import SweepRunner
from repro.dse.active import (
    ActiveSearch,
    ActiveSearchResult,
    ActiveSearchSettings,
    ParetoPoint,
    RoundRecord,
    pareto_front,
)

__all__ = [
    "DesignSpace",
    "Parameter",
    "paper_design_space",
    "latin_hypercube",
    "l2_star_discrepancy",
    "best_lhs_matrix",
    "DynamicsDataset",
    "SweepRunner",
    "ActiveSearch",
    "ActiveSearchResult",
    "ActiveSearchSettings",
    "ParetoPoint",
    "RoundRecord",
    "pareto_front",
]
