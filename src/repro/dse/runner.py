"""Sweep execution: simulate benchmarks across sampled configurations.

:class:`SweepRunner` reproduces the paper's data-collection step: run the
simulator over every (benchmark, configuration) pair and collect the
per-interval CPI / power / AVF traces into
:class:`~repro.dse.dataset.DynamicsDataset` objects.

All simulation goes through the execution engine
(:mod:`repro.engine`): each sweep becomes one job batch, so the same
code path transparently gains process-pool parallelism
(``SweepRunner(engine=create_engine(jobs=8))``) and on-disk result
caching (``create_engine(cache_dir=...)``).  Because every job is
deterministic, the parallel and sequential paths produce bit-identical
datasets.

Two consumption styles are offered.  The batch methods (``run_configs``,
``run_many``, ``run_train_test``) block until every job finishes and
return datasets in group order.  The streaming generators
(``run_many_streaming``, ``run_grid_streaming``) submit the same jobs as
one engine batch but yield each group's dataset the moment its last job
drains — in *completion* order — so callers can fit models on finished
groups while the remainder of the sweep is still simulating.  Both
styles assemble datasets identically; ``tests/test_streaming.py`` pins
that they are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dse.dataset import DynamicsDataset
from repro.dse.lhs import sample_test_configs, sample_train_configs
from repro.dse.space import DesignSpace, paper_design_space
from repro.engine.executor import ExecutionEngine
from repro.engine.jobs import SimJob
from repro.engine.shm import stack_rows
from repro.uarch.params import MachineConfig
from repro.uarch.simulator import DOMAINS, SimulationResult, Simulator
from repro.workloads.phases import WorkloadModel


@dataclass(frozen=True)
class SweepPlan:
    """A reproducible train/test sampling plan over a design space."""

    space: DesignSpace
    n_train: int = 200
    n_test: int = 50
    n_lhs_matrices: int = 20
    seed: int = 0

    def sample(self) -> Tuple[List[MachineConfig], List[MachineConfig]]:
        """Draw the (train, test) configuration lists."""
        train = sample_train_configs(
            self.space, self.n_train, self.n_lhs_matrices, self.seed
        )
        test = sample_test_configs(self.space, self.n_test, self.seed + 1)
        return train, test


def _benchmark_name(workload: Union[str, WorkloadModel]) -> str:
    """Canonical benchmark name (resolves registry aliases)."""
    if isinstance(workload, WorkloadModel):
        return workload.name
    from repro.workloads.spec2000 import get_benchmark

    return get_benchmark(workload).name


def _block_row(result: SimulationResult, domain: str):
    """``(matrix, row)`` locating ``result``'s ``domain`` trace in its
    block, or ``None`` (no block, or a derived domain)."""
    block = result.block
    if block is None or domain not in block.traces:
        return None
    return block.traces[domain], result.row


class SweepRunner:
    """Runs simulation sweeps and assembles datasets.

    Parameters
    ----------
    simulator:
        Backend settings to stamp onto each job; defaults to the
        interval model with noise.
    domains:
        Metric domains to record (default: cpi, power, avf, iq_avf).
    n_samples:
        Trace resolution (the paper's default is 128).
    engine:
        Execution engine for the job batches; defaults to a fresh
        in-process engine.  Pass
        ``repro.engine.create_engine(jobs=..., cache_dir=...)`` for
        parallel and/or cached sweeps.
    """

    def __init__(self, simulator: Optional[Simulator] = None,
                 domains: Sequence[str] = DOMAINS,
                 n_samples: int = 128,
                 engine: Optional[ExecutionEngine] = None):
        self.simulator = simulator or Simulator()
        self.domains = tuple(domains)
        self.n_samples = n_samples
        self.engine = engine or ExecutionEngine()

    # ------------------------------------------------------------------
    def jobs_for(self, workload: Union[str, WorkloadModel],
                 configs: Sequence[MachineConfig]) -> List[SimJob]:
        """The job batch one :meth:`run_configs` call would submit."""
        return self.simulator.jobs(workload, configs,
                                   n_samples=self.n_samples)

    def _assemble(self, benchmark: str, configs: Sequence[MachineConfig],
                  results: Sequence[SimulationResult],
                  space: DesignSpace) -> DynamicsDataset:
        # stack_rows gathers each domain block by block: a zero-copy
        # slice of a kernel group's matrix (or the batch's shared-memory
        # arena) when its rows are consecutive (a cold sweep), else one
        # gather per block (a warm sweep's hits are rows of the blocks
        # its lookups read).
        traces = {
            d: (stack_rows([result.trace(d) for result in results],
                           [_block_row(result, d) for result in results])
                if results else np.empty((0, self.n_samples)))
            for d in self.domains
        }
        return DynamicsDataset(
            benchmark=benchmark, space=space,
            configs=list(configs), traces=traces,
        )

    # ------------------------------------------------------------------
    def run_configs(self, workload: Union[str, WorkloadModel],
                    configs: Sequence[MachineConfig],
                    space: Optional[DesignSpace] = None) -> DynamicsDataset:
        """Simulate one benchmark over a list of configurations."""
        space = space or paper_design_space()
        jobs = self.jobs_for(workload, configs)
        results = self.engine.run(jobs)
        return self._assemble(_benchmark_name(workload), configs, results,
                              space)

    def run_train_test(self, workload: Union[str, WorkloadModel],
                       plan: Optional[SweepPlan] = None,
                       ) -> Tuple[DynamicsDataset, DynamicsDataset]:
        """The paper's 200-train / 50-test data collection for one benchmark.

        Train and test configurations are submitted as **one** job batch
        so a parallel engine keeps every worker busy across the split
        boundary.
        """
        plan = plan or SweepPlan(space=paper_design_space())
        train_cfgs, test_cfgs = plan.sample()
        datasets = self.run_many(workload, [train_cfgs, test_cfgs], plan.space)
        return datasets[0], datasets[1]

    def run_many(self, workload: Union[str, WorkloadModel],
                 config_groups: Sequence[Sequence[MachineConfig]],
                 space: Optional[DesignSpace] = None,
                 ) -> List[DynamicsDataset]:
        """Simulate several configuration groups as a single job batch.

        Returns one dataset per group, in group order.  Submitting all
        groups at once maximizes executor utilization and lets the cache
        deduplicate configurations shared between groups.
        """
        datasets: List[Optional[DynamicsDataset]] = [None] * len(config_groups)
        for group_index, dataset in self.run_many_streaming(
                workload, config_groups, space):
            datasets[group_index] = dataset
        return datasets  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Active learning
    # ------------------------------------------------------------------
    def run_active(self, workload: Union[str, WorkloadModel],
                   objectives, constraints: Sequence = (),
                   settings=None, space: Optional[DesignSpace] = None,
                   init_configs: Optional[Sequence[MachineConfig]] = None,
                   **kwargs):
        """Closed-loop active-learning search (see :mod:`repro.dse.active`).

        Instead of simulating a fixed LHS sample, the loop alternates
        ensemble fitting, acquisition scoring, and top-``batch_size``
        engine batches until the simulation ``budget`` is spent or the
        incumbent converges.  Every batch goes through this runner's
        engine, so parallel and cached execution apply unchanged.

        Parameters
        ----------
        workload:
            Benchmark name or workload model.
        objectives:
            One :class:`~repro.dse.explorer.Objective` or a sequence
            (several enable Pareto mode).
        constraints:
            Scenario :class:`~repro.dse.explorer.Constraint` terms.
        settings:
            :class:`~repro.dse.active.ActiveSearchSettings`; keyword
            arguments (``budget=...``, ``strategy=...``) may be passed
            directly instead.
        space:
            Design space; defaults to the paper's Table 2 space.
        init_configs:
            Explicit initial design (e.g. the prefix of a fixed LHS
            sweep, for matched-seed comparisons).

        Returns
        -------
        :class:`~repro.dse.active.ActiveSearchResult`
        """
        from repro.dse.active import ActiveSearch

        search = ActiveSearch(self, objectives, constraints=constraints,
                              settings=settings, space=space, **kwargs)
        return search.run(workload, init_configs=init_configs)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def run_many_streaming(self, workload: Union[str, WorkloadModel],
                           config_groups: Sequence[Sequence[MachineConfig]],
                           space: Optional[DesignSpace] = None,
                           ) -> Iterator[Tuple[int, DynamicsDataset]]:
        """Stream ``(group_index, dataset)`` pairs as groups drain.

        All groups are submitted as **one** engine batch; each group's
        dataset is yielded the moment its last job resolves, in group
        *completion* order.  The assembled datasets are bit-identical to
        :meth:`run_many`'s — only the delivery order differs.
        """
        for _, group_index, dataset in self.run_grid_streaming(
                [(workload, config_groups)], space):
            yield group_index, dataset

    def run_grid_streaming(
            self,
            requests: Sequence[Tuple[Union[str, WorkloadModel],
                                     Sequence[Sequence[MachineConfig]]]],
            space: Optional[DesignSpace] = None,
            ) -> Iterator[Tuple[int, int, DynamicsDataset]]:
        """Stream a whole (workload x configuration-group) grid.

        ``requests`` is a sequence of ``(workload, config_groups)``
        pairs.  Every job across every request is submitted as a single
        engine batch — a large worker pool stays saturated across
        benchmark boundaries instead of draining at the tail of each
        per-benchmark sweep — and ``(request_index, group_index,
        dataset)`` triples are yielded as each group's jobs drain.

        Cache hits resolve immediately, so fully-cached groups are
        yielded before any simulation completes.  Empty groups are
        yielded first of all.
        """
        space = space or paper_design_space()
        jobs: List[SimJob] = []
        slots = []       # (benchmark, configs, results, request/group index)
        owner: List[Tuple[int, int]] = []  # global job index -> (slot, pos)
        for request_index, (workload, config_groups) in enumerate(requests):
            benchmark = _benchmark_name(workload)
            for group_index, group in enumerate(config_groups):
                group = list(group)
                slot = {
                    "request": request_index,
                    "group": group_index,
                    "benchmark": benchmark,
                    "configs": group,
                    "results": [None] * len(group),
                    "remaining": len(group),
                }
                position = len(slots)
                slots.append(slot)
                if group:
                    group_jobs = self.jobs_for(workload, group)
                    jobs.extend(group_jobs)
                    owner.extend((position, i) for i in range(len(group)))

        handle = self.engine.submit(jobs)
        # Degenerate groups have nothing to wait for.
        for slot in slots:
            if slot["remaining"] == 0:
                yield (slot["request"], slot["group"],
                       self._assemble(slot["benchmark"], slot["configs"],
                                      slot["results"], space))
        for job_index, result in handle.as_completed():
            position, local = owner[job_index]
            slot = slots[position]
            slot["results"][local] = result
            slot["remaining"] -= 1
            if slot["remaining"] == 0:
                yield (slot["request"], slot["group"],
                       self._assemble(slot["benchmark"], slot["configs"],
                                      slot["results"], space))
