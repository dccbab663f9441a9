"""Unified simulation facade.

:class:`Simulator` hides the backend choice:

* ``backend="interval"`` — the fast vectorized first-order model
  (:mod:`repro.uarch.interval_model`), used for design-space sweeps;
* ``backend="detailed"`` — the cycle-level out-of-order pipeline
  (:mod:`repro.uarch.detailed`), used for mechanism studies and for
  validating the interval model.

Both produce :class:`SimulationResult` objects holding the per-interval
CPI / power / AVF / IQ-AVF traces the predictive models consume; the
engine runs jobs in kernel groups whose results are the rows of one
:class:`ResultBlock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.uarch.params import MachineConfig
from repro.workloads.phases import WorkloadModel

#: Trace domains every backend must produce.
DOMAINS = ("cpi", "power", "avf", "iq_avf")

#: Supported backends.
BACKENDS = ("interval", "detailed")


@dataclass(frozen=True)
class SimulationResult:
    """Per-interval workload dynamics for one (benchmark, config) run.

    A row view of a :class:`ResultBlock`: a result the engine runs is
    row :attr:`row` of its kernel group's :attr:`block`, and its arrays
    are views of that block's rows.  A lone result built directly (a
    detailed job, a shared-memory delivery, a cache test) has no block;
    the result cache stores it as a one-row block.  Pickling drops the
    block, so a row travels alone.
    """

    benchmark: str
    config: MachineConfig
    n_samples: int
    backend: str
    traces: Dict[str, np.ndarray]
    components: Dict[str, np.ndarray] = field(default_factory=dict)
    #: The block this result is a row of (``None``: a lone result).
    block: Optional["ResultBlock"] = field(default=None, init=False,
                                           repr=False, compare=False)
    #: This result's row in :attr:`block`.
    row: int = field(default=0, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "block": None, "row": 0}

    def trace(self, domain: str) -> np.ndarray:
        """The dynamics trace for one domain ("cpi", "power", ...).

        The derived ``"ipc"`` domain is inf-free: a zero-CPI interval
        (possible in artificial traces) maps to 0 IPC instead of
        overflowing to infinity.
        """
        if domain == "ipc":
            cpi = self.traces["cpi"]
            return np.divide(1.0, cpi, out=np.zeros_like(cpi, dtype=float),
                             where=cpi != 0)
        if domain not in self.traces:
            raise SimulationError(
                f"unknown domain {domain!r}; have {sorted(self.traces)}"
            )
        return self.traces[domain]

    def aggregate(self, domain: str) -> float:
        """Whole-run mean of a domain (what global models predict)."""
        return float(np.mean(self.trace(domain)))

    def detach(self) -> "SimulationResult":
        """A result that pins no memory beyond its own arrays.

        A row of a :class:`ResultBlock` holds views of the whole block
        (for a kernel group, even of one, possibly of larger kernel
        intermediates), and a result delivered over the shared-memory
        transport (:mod:`repro.engine.shm`) read-only views of a
        batch-wide arena.  Detaching copies each array into private,
        writable memory and drops the block reference, so long-lived
        stores such as the in-memory result cache never pin a whole
        block or arena through one row.  A row of a block over its own
        private :attr:`ResultBlock.buffer` (a disk-cache hit) and a lone
        result whose arrays own their memory are returned unchanged.  A
        hit's buffer holds every row that one lookup read from one
        stored block, so a kept hit pins those rows even after its
        blockmates are gone: at most one lookup's rows of one block.
        """
        if self.block is not None:
            if self.block.buffer is not None:
                return self
        elif all(arr.base is None for arr in (*self.traces.values(),
                                               *self.components.values())):
            return self
        return SimulationResult(
            benchmark=self.benchmark, config=self.config,
            n_samples=self.n_samples, backend=self.backend,
            traces={d: a.copy() for d, a in self.traces.items()},
            components={d: a.copy() for d, a in self.components.items()},
        )


@dataclass(frozen=True)
class ResultBlock:
    """The results of one kernel group, stacked: the unit the engine moves.

    Every trace and component is one ``(len(configs), ...)`` array whose
    row ``i`` belongs to ``configs[i]``; for an interval group these are
    the kernel's :class:`~repro.uarch.interval_model.IntervalBatchResult`
    matrices themselves, uncopied.  :meth:`row` views one row as a
    :class:`SimulationResult`.  The result cache stores a block's rows
    as one contiguous buffer under one header.  A lone result is a
    one-row block (:meth:`lone`).
    """

    benchmark: str
    backend: str
    n_samples: int
    configs: Tuple[MachineConfig, ...]
    traces: Dict[str, np.ndarray]
    components: Dict[str, np.ndarray] = field(default_factory=dict)
    #: The private buffer every array of the block views, when it holds
    #: nothing else (the rows one cache lookup read); else ``None``.
    buffer: Optional[bytearray] = field(default=None, repr=False,
                                        compare=False)

    @classmethod
    def lone(cls, result: SimulationResult) -> "ResultBlock":
        """``result`` as a one-row block of views of its own arrays."""
        return cls(benchmark=result.benchmark, backend=result.backend,
                   n_samples=result.n_samples, configs=(result.config,),
                   traces={d: a[None] for d, a in result.traces.items()},
                   components={d: a[None]
                               for d, a in result.components.items()})

    def __len__(self) -> int:
        return len(self.configs)

    def row(self, index: int) -> SimulationResult:
        """Row ``index`` as a result whose arrays are views of the block."""
        result = SimulationResult(
            self.benchmark, self.configs[index], self.n_samples,
            self.backend, {d: a[index] for d, a in self.traces.items()},
            {d: a[index] for d, a in self.components.items()})
        object.__setattr__(result, "block", self)
        object.__setattr__(result, "row", index)
        return result

    def rows(self) -> List[SimulationResult]:
        """Every row, in order (see :meth:`row`)."""
        return [self.row(index) for index in range(len(self))]


def interval_result_to_simulation(batch) -> List[SimulationResult]:
    """The rows of an interval-kernel batch as simulation results.

    ``batch`` is an :class:`~repro.uarch.interval_model.\
IntervalBatchResult`; its matrices become one :class:`ResultBlock`
    without a copy, and each result is a row view of that block
    (:meth:`SimulationResult.detach` copies one out when a consumer
    must not pin the block).  The matrices are made read-only, as
    shared-memory deliveries are, so no row changes between its store
    and the result cache's commit.
    """
    traces = {"cpi": batch.cpi, "power": batch.power,
              "avf": batch.avf, "iq_avf": batch.iq_avf}
    for arr in (*traces.values(), *batch.components.values()):
        arr.flags.writeable = False
    return ResultBlock(
        benchmark=batch.benchmark, backend="interval",
        n_samples=batch.n_samples, configs=batch.configs,
        traces=traces, components=batch.components,
    ).rows()


class Simulator:
    """Runs workloads over machine configurations.

    Parameters
    ----------
    backend:
        ``"interval"`` (default, fast) or ``"detailed"`` (cycle-level).
    noise:
        Whether the interval backend adds its deterministic measurement
        texture; ignored by the detailed backend (whose nondeterminism is
        organic).

    Examples
    --------
    >>> from repro.uarch.params import baseline_config
    >>> sim = Simulator()
    >>> result = sim.run("gcc", baseline_config(), n_samples=128)
    >>> result.trace("cpi").shape
    (128,)
    """

    def __init__(self, backend: str = "interval", noise: bool = True):
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self.backend = backend
        self.noise = noise

    def run(self, workload: Union[str, WorkloadModel], config: MachineConfig,
            n_samples: int = 128,
            instructions_per_sample: int = 1000) -> SimulationResult:
        """Simulate one (workload, configuration) pair.

        Builds the one engine job (see :meth:`jobs`) and runs it in this
        process, without checkpointing.

        Parameters
        ----------
        workload:
            Benchmark name or a :class:`WorkloadModel`.
        config:
            Machine configuration (with or without DVM enabled).
        n_samples:
            Trace resolution; the paper's default is 128.
        instructions_per_sample:
            Detailed backend only: synthetic instructions simulated per
            trace interval (the paper uses 200M/128 per interval; the
            synthetic traces need far fewer for stable statistics).
        """
        [job] = self.jobs(workload, [config], n_samples,
                          instructions_per_sample)
        return replace(job, checkpoint_every=0).run()

    # ------------------------------------------------------------------
    def jobs(self, workload: Union[str, WorkloadModel],
             configs: Sequence[MachineConfig],
             n_samples: int = 128,
             instructions_per_sample: int = 1000) -> List["SimJob"]:
        """Build engine jobs carrying this simulator's backend settings.

        Returns one :class:`~repro.engine.jobs.SimJob` per configuration.
        """
        from repro.engine.jobs import make_jobs

        return make_jobs(workload, configs, backend=self.backend,
                         n_samples=n_samples,
                         instructions_per_sample=instructions_per_sample,
                         noise=self.noise)
