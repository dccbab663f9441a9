"""Dataset container for workload-dynamics sweeps.

A :class:`DynamicsDataset` holds, for one benchmark, the simulated
dynamics traces of every sampled configuration in every metric domain,
plus the encoded design matrix — everything the predictive models need
for fitting and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.dse.space import DesignSpace
from repro.uarch.params import MachineConfig


@dataclass
class DynamicsDataset:
    """Traces and design vectors for one benchmark over many configs.

    Attributes
    ----------
    benchmark:
        Benchmark name.
    space:
        The design space the configurations were drawn from (used for
        encoding).
    configs:
        The sampled machine configurations.
    traces:
        Domain name -> array of shape ``(n_configs, n_samples)``.
        Datasets assembled from a sweep may hold **read-only zero-copy
        views** into a kernel group's matrices or, from a parallel
        sweep, the engine's shared-memory arena (see
        :mod:`repro.engine.shm`); call :meth:`materialize` for private
        writable copies.
    """

    benchmark: str
    space: DesignSpace
    configs: List[MachineConfig]
    traces: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.configs)
        for domain, arr in self.traces.items():
            if arr.shape[0] != n:
                raise ConfigurationError(
                    f"domain {domain!r}: {arr.shape[0]} trace rows for "
                    f"{n} configurations"
                )

    # ------------------------------------------------------------------
    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def n_samples(self) -> int:
        if not self.traces:
            raise ConfigurationError("dataset has no traces")
        return next(iter(self.traces.values())).shape[1]

    @property
    def domains(self) -> Sequence[str]:
        return tuple(sorted(self.traces))

    def design_matrix(self) -> np.ndarray:
        """Encoded design vectors, shape ``(n_configs, n_parameters)``."""
        return self.space.encode_many(self.configs)

    def domain(self, name: str) -> np.ndarray:
        """Trace matrix for one domain."""
        if name not in self.traces:
            raise ConfigurationError(
                f"domain {name!r} not in dataset; have {sorted(self.traces)}"
            )
        return self.traces[name]

    def materialize(self) -> "DynamicsDataset":
        """A dataset whose trace matrices own their memory.

        Traces assembled as zero-copy views keep the whole batch's
        shared-memory arena alive; materializing copies them out so the
        arena can be reclaimed (e.g. before stashing a dataset for the
        rest of a long session).  Returns ``self`` when every matrix
        already owns its data.
        """
        if all(arr.base is None for arr in self.traces.values()):
            return self
        return DynamicsDataset(
            benchmark=self.benchmark, space=self.space,
            configs=list(self.configs),
            traces={d: np.array(arr) for d, arr in self.traces.items()},
        )

    def subset(self, indices: Sequence[int]) -> "DynamicsDataset":
        """A new dataset restricted to the given configuration indices."""
        idx = list(indices)
        return DynamicsDataset(
            benchmark=self.benchmark,
            space=self.space,
            configs=[self.configs[i] for i in idx],
            traces={d: arr[idx] for d, arr in self.traces.items()},
        )

    # ------------------------------------------------------------------
    # Persistence (npz + reconstructable configs)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialize traces + configuration values to an ``.npz`` file."""
        path = Path(path)
        config_values = np.array(
            [[getattr(c, name) for name in self.space.names if name != "dvm"]
             for c in self.configs], dtype=float,
        )
        dvm_flags = np.array([c.dvm_enabled for c in self.configs], dtype=bool)
        np.savez_compressed(
            path,
            benchmark=np.array(self.benchmark),
            param_names=np.array([n for n in self.space.names if n != "dvm"]),
            config_values=config_values,
            dvm_flags=dvm_flags,
            **{f"trace_{d}": arr for d, arr in self.traces.items()},
        )

    @classmethod
    def load(cls, path, space: Optional[DesignSpace] = None) -> "DynamicsDataset":
        """Load a dataset saved by :meth:`save`."""
        from repro.dse.space import paper_design_space

        data = np.load(Path(path), allow_pickle=False)
        space = space or paper_design_space()
        names = [str(n) for n in data["param_names"]]
        configs = []
        for row, dvm in zip(data["config_values"], data["dvm_flags"]):
            values = {name: val for name, val in zip(names, row)}
            cfg = space.config_from_values(values)
            if dvm:
                cfg = cfg.with_dvm(True)
            configs.append(cfg)
        traces = {
            key[len("trace_"):]: data[key]
            for key in data.files if key.startswith("trace_")
        }
        return cls(benchmark=str(data["benchmark"]), space=space,
                   configs=configs, traces=traces)
