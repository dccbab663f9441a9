"""The microarchitecture design space (the paper's Table 2).

Nine parameters with discrete levels; the *train* and *test* splits use
(partially disjoint) level sets, exactly as in Table 2 — so the test
configurations probe the models at genuinely unexplored design points.

Design vectors are encoded for the models by mapping each parameter value
to ``[0, 1]``: sizes on a log2 scale (a 4 MB L2 is "twice" a 1 MB L2 in
two steps, not sixteen), latencies and widths handled likewise for
consistency with the powers-of-two level grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._validation import rng_from_seed
from repro.errors import ConfigurationError, SamplingError
from repro.uarch.params import VARIED_PARAMETERS, MachineConfig

#: Recognized split names.
SPLITS = ("train", "test")


@dataclass(frozen=True)
class Parameter:
    """One design-space dimension with its train/test level sets."""

    name: str
    train_levels: Tuple[float, ...]
    test_levels: Tuple[float, ...]
    log_scale: bool = True
    description: str = ""

    def __post_init__(self):
        if not self.train_levels or not self.test_levels:
            raise ConfigurationError(f"parameter {self.name}: empty level set")
        if tuple(sorted(self.train_levels)) != self.train_levels:
            raise ConfigurationError(
                f"parameter {self.name}: train levels must be sorted ascending"
            )
        if tuple(sorted(self.test_levels)) != self.test_levels:
            raise ConfigurationError(
                f"parameter {self.name}: test levels must be sorted ascending"
            )
        # encode()'s range, the union of train and test levels.
        levels = self.train_levels + self.test_levels
        object.__setattr__(self, "_lo", self._scaled(min(levels)))
        object.__setattr__(self, "_hi", self._scaled(max(levels)))

    def levels(self, split: str) -> Tuple[float, ...]:
        """Level set for ``split`` ("train" or "test")."""
        if split not in SPLITS:
            raise ConfigurationError(f"split must be one of {SPLITS}, got {split!r}")
        return self.train_levels if split == "train" else self.test_levels

    @property
    def n_levels(self) -> int:
        """Number of train levels (Table 2's "# of Levels" column)."""
        return len(self.train_levels)

    def _scaled(self, value: float) -> float:
        return math.log2(value) if self.log_scale else float(value)

    def encode(self, value: float) -> float:
        """Normalize a parameter value to ``[0, 1]``.

        The range is the union of train and test levels so both splits
        encode consistently.
        """
        if self._hi == self._lo:
            return 0.5
        return (self._scaled(value) - self._lo) / (self._hi - self._lo)


def _table2_parameters() -> Tuple[Parameter, ...]:
    """The paper's Table 2, verbatim."""
    return (
        Parameter("fetch_width", (2, 4, 8, 16), (2, 8),
                  description="fetch/issue/commit width"),
        Parameter("rob_size", (96, 128, 160), (128, 160),
                  description="reorder buffer entries"),
        Parameter("iq_size", (32, 64, 96, 128), (32, 64),
                  description="issue queue entries"),
        Parameter("lsq_size", (16, 24, 32, 64), (16, 24, 32),
                  description="load/store queue entries"),
        Parameter("l2_size_kb", (256, 1024, 2048, 4096), (256, 1024, 4096),
                  description="unified L2 capacity (KB)"),
        Parameter("l2_latency", (8, 12, 14, 16, 20), (8, 12, 14),
                  log_scale=False, description="L2 access latency (cycles)"),
        Parameter("il1_size_kb", (8, 16, 32, 64), (8, 16, 32),
                  description="L1 instruction cache capacity (KB)"),
        Parameter("dl1_size_kb", (8, 16, 32, 64), (16, 32, 64),
                  description="L1 data cache capacity (KB)"),
        Parameter("dl1_latency", (1, 2, 3, 4), (1, 2, 3),
                  log_scale=False, description="L1 data cache latency (cycles)"),
    )


#: The DVM design parameter of Section 5 (0 = disabled, 1 = enabled).
DVM_PARAMETER = Parameter("dvm", (0, 1), (0, 1), log_scale=False,
                          description="dynamic vulnerability management enabled")


class DesignSpace:
    """A discrete microarchitecture design space.

    Parameters
    ----------
    parameters:
        Ordered parameter definitions; defaults to the paper's Table 2.

    Examples
    --------
    >>> space = paper_design_space()
    >>> space.n_parameters
    9
    >>> space.size("train")
    245760
    >>> cfg = space.config_from_values({p.name: p.train_levels[0]
    ...                                 for p in space.parameters})
    >>> cfg.fetch_width
    2
    """

    def __init__(self, parameters: Optional[Sequence[Parameter]] = None):
        self._parameters: Tuple[Parameter, ...] = tuple(
            parameters if parameters is not None else _table2_parameters()
        )
        names = [p.name for p in self._parameters]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate parameter names in {names}")

    # ------------------------------------------------------------------
    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        return self._parameters

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self._parameters)

    @property
    def n_parameters(self) -> int:
        return len(self._parameters)

    def parameter(self, name: str) -> Parameter:
        """Look a parameter up by name."""
        for p in self._parameters:
            if p.name == name:
                return p
        raise ConfigurationError(f"unknown parameter {name!r}; have {self.names}")

    def size(self, split: str = "train") -> int:
        """Number of distinct configurations in the split's full grid."""
        out = 1
        for p in self._parameters:
            out *= len(p.levels(split))
        return out

    def with_dvm_parameter(self) -> "DesignSpace":
        """The Section 5 space: Table 2 plus the DVM on/off parameter."""
        if "dvm" in self.names:
            return self
        return DesignSpace(self._parameters + (DVM_PARAMETER,))

    # ------------------------------------------------------------------
    # Configuration construction
    # ------------------------------------------------------------------
    def config_from_values(self, values: Dict[str, float]) -> MachineConfig:
        """Build a :class:`MachineConfig` from a name->value mapping.

        Unknown names raise; the special ``dvm`` parameter maps to
        ``dvm_enabled``.  Parameters absent from the space keep their
        Table 1 baseline defaults.
        """
        kwargs = {}
        for name, value in values.items():
            if name == "dvm":
                kwargs["dvm_enabled"] = bool(round(value))
            elif name in VARIED_PARAMETERS:
                kwargs[name] = int(value)
            else:
                raise ConfigurationError(f"unknown parameter {name!r}")
        return MachineConfig(**kwargs)

    def config_from_level_indices(self, indices: Sequence[int],
                                  split: str = "train") -> MachineConfig:
        """Build a config from per-parameter level indices."""
        if len(indices) != self.n_parameters:
            raise ConfigurationError(
                f"expected {self.n_parameters} level indices, got {len(indices)}"
            )
        values = {}
        for p, idx in zip(self._parameters, indices):
            levels = p.levels(split)
            if not 0 <= idx < len(levels):
                raise ConfigurationError(
                    f"level index {idx} out of range for {p.name} ({split})"
                )
            values[p.name] = levels[idx]
        return self.config_from_values(values)

    def values_of(self, config: MachineConfig) -> Dict[str, float]:
        """Extract this space's parameter values from a config."""
        out = {}
        for p in self._parameters:
            if p.name == "dvm":
                out[p.name] = float(config.dvm_enabled)
            else:
                out[p.name] = float(getattr(config, p.name))
        return out

    # ------------------------------------------------------------------
    # Model encoding
    # ------------------------------------------------------------------
    def encode(self, config: MachineConfig) -> np.ndarray:
        """Normalized design vector for one configuration."""
        vals = self.values_of(config)
        return np.array([p.encode(vals[p.name]) for p in self._parameters])

    def encode_many(self, configs: Iterable[MachineConfig]) -> np.ndarray:
        """Design matrix, one row per configuration.

        Column-wise: each parameter's distinct values are encoded once
        with :meth:`Parameter.encode` and gathered, so every row equals
        :meth:`encode` of its configuration bit for bit.
        """
        attrs = ["dvm_enabled" if p.name == "dvm" else p.name
                 for p in self._parameters]
        values = np.array([[getattr(c, a) for a in attrs] for c in configs],
                          dtype=float)
        if not len(values):
            raise ConfigurationError("encode_many received no configurations")
        out = np.empty(values.shape)
        for k, p in enumerate(self._parameters):
            levels, codes = np.unique(values[:, k], return_inverse=True)
            out[:, k] = np.array([p.encode(v) for v in levels.tolist()])[codes]
        return out

    # ------------------------------------------------------------------
    # Random (test-split) sampling
    # ------------------------------------------------------------------
    def sample_random(self, n: int, split: str = "test",
                      seed=0, unique: bool = True) -> List[MachineConfig]:
        """``n`` independent uniform draws over the split's level grid.

        This is how the paper builds its 50-point test set ("a randomly
        and independently generated set of test data points").
        """
        if n < 1:
            raise SamplingError(f"n must be >= 1, got {n}")
        if unique and n > self.size(split):
            raise SamplingError(
                f"cannot draw {n} unique configurations from a grid of "
                f"{self.size(split)}"
            )
        rng = rng_from_seed(seed)
        highs = [len(p.levels(split)) for p in self._parameters]
        budget = 1000 * n
        seen = set()
        rows: List[tuple] = []
        attempts = 0
        while len(rows) < n:
            if attempts >= budget:
                raise SamplingError(
                    f"rejection sampling failed to find {n} unique points"
                )
            # One row per attempt, in the row-major order of the scalar
            # draws ``rng.integers(high)`` parameter by parameter.  A round
            # draws only the rows still missing, so it never draws past
            # the n-th accepted row and ``rng`` ends where they would.
            need = min(n - len(rows), budget - attempts)
            attempts += need
            for idx in map(tuple, rng.integers(highs, size=(need, len(highs)))
                           .tolist()):
                if unique:
                    if idx in seen:
                        continue
                    seen.add(idx)
                rows.append(idx)
        return [self.config_from_level_indices(idx, split) for idx in rows]


def paper_design_space() -> DesignSpace:
    """The 9-parameter Table 2 design space."""
    return DesignSpace()


#: Table 2 rendered as rows for reports: (name, train, test, #levels).
def table2_rows(space: Optional[DesignSpace] = None) -> List[Tuple[str, str, str, int]]:
    """Human-readable Table 2 rows for the given (default: paper) space."""
    space = space or paper_design_space()
    rows = []
    for p in space.parameters:
        rows.append((
            p.name,
            ", ".join(str(int(v)) for v in p.train_levels),
            ", ".join(str(int(v)) for v in p.test_levels),
            p.n_levels,
        ))
    return rows
