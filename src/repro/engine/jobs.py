"""Simulation jobs: the unit of work the execution engine schedules.

A :class:`SimJob` fully describes one (workload, configuration) run —
benchmark, machine configuration, backend, trace resolution, and DVM /
noise options — and exposes a *deterministic content-hash key*.  The key
is stable across processes and interpreter runs (unlike ``hash()``), so
it can name on-disk cache entries and deduplicate identical work inside
a batch, no matter which executor ends up running the job.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import EngineError
from repro.uarch.params import MachineConfig
from repro.workloads.phases import WorkloadModel

#: Backends the engine accepts (mirrors ``repro.uarch.simulator.BACKENDS``
#: without importing it, to keep this module import-light for workers).
JOB_BACKENDS = ("interval", "detailed")

#: Bump when the simulation semantics change incompatibly: old cache
#: entries become unreachable instead of silently wrong.
KEY_VERSION = "simjob/v1"


def _canonical(obj):
    """A recursively canonical, process-stable form of ``obj``.

    Arrays are replaced by (dtype, shape, content digest) so the result
    never depends on numpy's truncating ``repr``; dataclasses are walked
    field by field.
    """
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        return ("ndarray", str(obj.dtype), obj.shape, digest.hexdigest())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, _canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(item) for item in obj)
    if isinstance(obj, float):
        return repr(obj)
    return obj


def _canonical_config(config: MachineConfig):
    """:func:`_canonical` of a config, memoized on the frozen instance.

    A sweep builds one job per (benchmark, config) pair, so every config
    is keyed once per benchmark; the field walk runs only the first time.
    """
    cached = config.__dict__.get("_canonical")
    if cached is None:
        cached = _canonical(config)
        object.__setattr__(config, "_canonical", cached)
    return cached


@dataclass(frozen=True)
class SimJob:
    """One (workload, configuration) simulation request.

    Attributes
    ----------
    benchmark:
        Benchmark name; resolved through the workload registry unless an
        explicit ``workload`` model is attached.
    config:
        Machine configuration to simulate.
    backend:
        ``"interval"`` or ``"detailed"``.
    n_samples:
        Trace resolution (the paper's default is 128).
    instructions_per_sample:
        Detailed backend only; ignored by the interval model.
    noise:
        Interval backend measurement texture; ignored by the detailed
        backend.
    workload:
        Optional explicit :class:`WorkloadModel`, for workloads outside
        the registry.  Its content participates in the job key.
    checkpoint_every, checkpoint_dir:
        Detailed backend only: snapshot the core every N intervals into
        ``checkpoint_dir`` (keyed by this job's content hash) so a
        killed sweep resumes mid-benchmark.  Threaded through the job
        itself — pickled to pool workers — so enabling checkpointing
        never mutates ``os.environ``.  ``None`` means *unset*: the job
        falls back to the run settings of whatever process runs it; an
        explicit ``0`` disables checkpointing even when they enable it.
        **Excluded from the job key**: checkpointing changes where
        intermediate state lives, never the result.
    """

    benchmark: str
    config: MachineConfig
    backend: str = "interval"
    n_samples: int = 128
    instructions_per_sample: int = 1000
    noise: bool = True
    workload: Optional[WorkloadModel] = None
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None

    def __post_init__(self):
        if self.backend not in JOB_BACKENDS:
            raise EngineError(
                f"unknown backend {self.backend!r}; choose from {JOB_BACKENDS}"
            )
        if not isinstance(self.benchmark, str) or not self.benchmark:
            raise EngineError(
                f"benchmark must be a non-empty string, got {self.benchmark!r}"
            )
        if self.n_samples <= 0:
            raise EngineError(
                f"n_samples must be positive, got {self.n_samples}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 0:
            raise EngineError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.workload is not None and self.workload.name != self.benchmark:
            raise EngineError(
                f"job benchmark {self.benchmark!r} does not match attached "
                f"workload {self.workload.name!r}"
            )

    # ------------------------------------------------------------------
    def key(self) -> str:
        """Deterministic content-hash identity (hex SHA-256).

        Stable across processes and interpreter runs; two jobs share a
        key exactly when they are guaranteed to produce the same
        :class:`~repro.uarch.simulator.SimulationResult`.  Options that
        a backend ignores are excluded so e.g. interval jobs differing
        only in ``instructions_per_sample`` share one cache entry.

        Memoized: the engine consults the key on every cache lookup,
        store, and dedup check, and the job is immutable.

        Examples
        --------
        >>> from repro.engine.jobs import SimJob
        >>> from repro.uarch.params import baseline_config
        >>> a = SimJob("gcc", baseline_config(), n_samples=8)
        >>> a.key() == SimJob("gcc", baseline_config(), n_samples=8).key()
        True
        >>> a.key() == SimJob("mcf", baseline_config(), n_samples=8).key()
        False
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        parts = [
            KEY_VERSION,
            self.benchmark,
            self.backend,
            self.n_samples,
            _canonical_config(self.config),
        ]
        if self.backend == "interval":
            parts.append(("noise", self.noise))
        else:
            parts.append(("ips", self.instructions_per_sample))
        if self.workload is not None:
            parts.append(("workload", _canonical(self.workload)))
        key = hashlib.sha256(repr(tuple(parts)).encode("utf8")).hexdigest()
        object.__setattr__(self, "_key", key)
        return key

    def run(self):
        """Execute this job in the current process.

        Returns a :class:`~repro.uarch.simulator.SimulationResult`: the
        job runs as a kernel group of one
        (:func:`repro.engine.kernel.run_jobs`), bit-identical to the
        same job inside any batch.  Imported lazily so job objects stay
        cheap to pickle into worker processes.

        Detailed jobs checkpoint according to their own checkpoint
        fields (see :func:`~repro.uarch.detailed.run_detailed_group`):
        mid-run snapshots are written under a file named by this job's
        content-hash key, so a killed sweep resumes each job from its
        last checkpoint — in any process, on any executor — instead of
        restarting it.
        """
        from repro.engine.kernel import run_jobs

        return run_jobs([self])[0]


def make_jobs(workload: Union[str, WorkloadModel],
              configs: Sequence[MachineConfig],
              backend: str = "interval",
              n_samples: int = 128,
              instructions_per_sample: int = 1000,
              noise: bool = True) -> List[SimJob]:
    """Build one :class:`SimJob` per configuration for a single workload.

    String workloads are canonicalized through the registry (aliases such
    as ``"bzip"`` resolve to ``"bzip2"``), so unknown names fail here —
    before any job executes — and alias spellings never fragment the
    content-hash cache.
    """
    if isinstance(workload, WorkloadModel):
        benchmark, model = workload.name, workload
    else:
        from repro.workloads.spec2000 import get_benchmark

        benchmark, model = get_benchmark(workload).name, None
    return [
        SimJob(benchmark=benchmark, config=config, backend=backend,
               n_samples=n_samples,
               instructions_per_sample=instructions_per_sample,
               noise=noise, workload=model)
        for config in configs
    ]
