"""Unified simulation facade.

:class:`Simulator` hides the backend choice:

* ``backend="interval"`` — the fast vectorized first-order model
  (:mod:`repro.uarch.interval_model`), used for design-space sweeps;
* ``backend="detailed"`` — the cycle-level out-of-order pipeline
  (:mod:`repro.uarch.detailed`), used for mechanism studies and for
  validating the interval model.

Both produce a :class:`SimulationResult` holding the per-interval
CPI / power / AVF / IQ-AVF traces the predictive models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Union

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
    """Per-interval workload dynamics for one (benchmark, config) run."""

    benchmark: str
    config: MachineConfig
    n_samples: int
    backend: str
    traces: Dict[str, np.ndarray]
    components: Dict[str, np.ndarray] = field(default_factory=dict)

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
        """A result whose arrays own their memory.

        Results delivered over the shared-memory transport
        (:mod:`repro.engine.shm`) hold read-only views into a
        batch-wide arena; detaching copies them into private, writable
        arrays so the arena can be reclaimed (and so long-lived stores
        such as the in-memory result cache never pin a whole batch).
        Results that already own their arrays are returned unchanged.
        """
        arrays = list(self.traces.values()) + list(self.components.values())
        if all(arr.base is None for arr in arrays):
            return self
        return SimulationResult(
            benchmark=self.benchmark, config=self.config,
            n_samples=self.n_samples, backend=self.backend,
            traces={d: np.array(a) for d, a in self.traces.items()},
            components={d: np.array(a) for d, a in self.components.items()},
        )


def interval_result_to_simulation(res) -> SimulationResult:
    """Wrap one interval-kernel result as a :class:`SimulationResult`.

    ``res`` is an :class:`~repro.uarch.interval_model.IntervalSimResult`
    — either from a scalar :func:`~repro.uarch.interval_model.\
simulate_interval` call or one row of a batched
    :class:`~repro.uarch.interval_model.IntervalBatchResult` (whose
    arrays are views into the batch matrices; :meth:`SimulationResult.\
detach` copies them when a consumer needs owning arrays).
    """
    return SimulationResult(
        benchmark=res.benchmark, config=res.config,
        n_samples=res.n_samples, backend="interval",
        traces={"cpi": res.cpi, "power": res.power,
                "avf": res.avf, "iq_avf": res.iq_avf},
        components=res.components,
    )


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
