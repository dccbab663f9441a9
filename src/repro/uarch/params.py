"""Machine configuration: the paper's Table 1 baseline and Table 2 knobs.

The nine *varied* parameters (Table 2) are ``fetch_width``, ``rob_size``,
``iq_size``, ``lsq_size``, ``l2_size_kb``, ``l2_latency``, ``il1_size_kb``,
``dl1_size_kb`` and ``dl1_latency``.  Everything else is fixed at the
Table 1 baseline (branch predictor, TLBs, functional units, memory
latency, ...).

The DVM case study (Section 5) adds dynamic vulnerability management as a
tenth design parameter — represented here by ``dvm_enabled`` and
``dvm_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Names of the 9 design-space parameters, in Table 2 order.
VARIED_PARAMETERS: Tuple[str, ...] = (
    "fetch_width",
    "rob_size",
    "iq_size",
    "lsq_size",
    "l2_size_kb",
    "l2_latency",
    "il1_size_kb",
    "dl1_size_kb",
    "dl1_latency",
)


@dataclass(frozen=True)
class MachineConfig:
    """A superscalar machine configuration.

    Field defaults are the paper's Table 1 baseline.  The processor is
    ``fetch_width``-wide at fetch/issue/commit (the paper's 8-wide
    baseline ties the three widths together, and Table 2 varies them as
    one "Fetch_width" knob).
    """

    # --- Table 2 varied parameters -----------------------------------
    fetch_width: int = 8
    rob_size: int = 96
    iq_size: int = 96
    lsq_size: int = 48
    l2_size_kb: int = 2048
    l2_latency: int = 12
    il1_size_kb: int = 32
    dl1_size_kb: int = 64
    dl1_latency: int = 1

    # --- Table 1 fixed baseline --------------------------------------
    branch_predictor_entries: int = 2048     # gshare
    branch_history_bits: int = 10
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 32
    itlb_entries: int = 128
    dtlb_entries: int = 256
    tlb_miss_latency: int = 200
    il1_assoc: int = 2
    il1_line_bytes: int = 32
    dl1_assoc: int = 4
    dl1_line_bytes: int = 64
    l2_assoc: int = 4
    l2_line_bytes: int = 128
    memory_latency: int = 200
    int_alu: int = 8
    int_mul: int = 4
    fp_alu: int = 8
    fp_mul: int = 4
    mem_ports: int = 2
    frequency_ghz: float = 3.0

    # --- DVM (Section 5's tenth design parameter) --------------------
    dvm_enabled: bool = False
    dvm_threshold: float = 0.3

    def __post_init__(self):
        for name in VARIED_PARAMETERS:
            value = getattr(self, name)
            if not isinstance(value, (int,)) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.lsq_size > self.rob_size:
            raise ConfigurationError(
                f"lsq_size ({self.lsq_size}) cannot exceed rob_size "
                f"({self.rob_size}): every in-flight memory op occupies a "
                f"ROB entry"
            )
        if not 0.0 < self.dvm_threshold < 1.0:
            raise ConfigurationError(
                f"dvm_threshold must be in (0, 1), got {self.dvm_threshold}"
            )

    # ------------------------------------------------------------------
    def varied_values(self) -> Dict[str, int]:
        """The 9 Table 2 parameter values as a dict."""
        return {name: getattr(self, name) for name in VARIED_PARAMETERS}

    def key(self) -> Tuple:
        """Hashable identity used for caching and seeding.

        Memoized: the batched kernel derives one noise seed per config
        per call, and the engine keys every cache lookup off it.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = tuple(getattr(self, f.name) for f in fields(self))
            object.__setattr__(self, "_key", cached)
        return cached

    def __getstate__(self):
        # SimJob.key() memoizes the config's canonical form on the
        # instance; it is larger than the config itself and workers
        # receive jobs already keyed, so it stays out of pickles.
        state = dict(self.__dict__)
        state.pop("_canonical", None)
        return state

    def with_dvm(self, enabled: bool = True, threshold: float = None) -> "MachineConfig":
        """Copy of this config with the DVM design parameter changed."""
        kwargs = {"dvm_enabled": enabled}
        if threshold is not None:
            kwargs["dvm_threshold"] = threshold
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Readable multi-line summary of the varied parameters."""
        lines = [f"{name:>12s} = {getattr(self, name)}" for name in VARIED_PARAMETERS]
        if self.dvm_enabled:
            lines.append(f"{'dvm':>12s} = enabled (threshold {self.dvm_threshold})")
        return "\n".join(lines)

    @property
    def pipeline_depth(self) -> int:
        """Front-end depth in cycles, growing gently with machine width.

        Wider machines need deeper front ends; this scaling sets the
        branch misprediction penalty base.
        """
        width = self.fetch_width
        depth = 10
        while width > 2:
            depth += 2
            width //= 2
        return depth


class ConfigBatch:
    """A stack of :class:`MachineConfig` objects as broadcastable columns.

    The batched interval kernel (:func:`repro.uarch.interval_model.\
simulate_interval_batch`) evaluates the model equations for many
    configurations at once on ``(batch, samples)`` matrices.  All the
    per-config quantities those equations touch are exposed here as
    ``(batch, 1)`` NumPy columns — one attribute per
    :class:`MachineConfig` field, plus the derived ``pipeline_depth`` —
    so an expression written against a scalar config broadcasts
    unchanged against a batch: ``config.mem_ports / f_mem`` becomes
    ``(B, 1) / (S,) -> (B, S)`` with bit-identical per-element results.

    A ``ConfigBatch`` therefore *duck-types* as a ``MachineConfig`` for
    the vectorized formulas in :mod:`repro.uarch.interval_model`,
    :mod:`repro.reliability.avf`, :mod:`repro.reliability.dvm` and
    :mod:`repro.power.wattch`.  Integer fields keep integer columns
    (``int64``) so int-vs-float promotion matches the scalar
    expressions exactly.
    """

    def __init__(self, configs: Sequence[MachineConfig]):
        configs = tuple(configs)
        if not configs:
            raise ConfigurationError(
                "ConfigBatch needs at least one configuration"
            )
        self.configs: Tuple[MachineConfig, ...] = configs
        n = len(configs)
        for f in fields(MachineConfig):
            values = [getattr(config, f.name) for config in configs]
            setattr(self, f.name, np.asarray(values).reshape(n, 1))
        self.pipeline_depth = np.asarray(
            [config.pipeline_depth for config in configs]
        ).reshape(n, 1)

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, index: int) -> MachineConfig:
        return self.configs[index]

    def map_scalar(self, fn: Callable[[MachineConfig], float]) -> np.ndarray:
        """Evaluate a scalar-config function per member, as a column.

        Used for expressions whose float arithmetic would *not* be
        bit-stable under column broadcasting (e.g. Python-float ``**``
        in the Wattch energy model): the existing scalar code runs once
        per config and the results stack into a ``(batch, 1)`` column.
        """
        return np.asarray(
            [fn(config) for config in self.configs], dtype=float
        ).reshape(len(self.configs), 1)


def baseline_config(**overrides) -> MachineConfig:
    """The Table 1 simulated machine configuration (optionally overridden)."""
    return MachineConfig(**overrides)


#: Table 1 rendered as (parameter, configuration) rows for reports.
TABLE1_ROWS: Tuple[Tuple[str, str], ...] = (
    ("Processor Width", "8-wide fetch/issue/commit"),
    ("Issue Queue", "96"),
    ("ITLB", "128 entries, 4-way, 200 cycle miss"),
    ("Branch Predictor", "2K entries Gshare, 10-bit global history"),
    ("BTB", "2K entries, 4-way"),
    ("Return Address", "32 entries RAS"),
    ("L1 Instruction Cache", "32K, 2-way, 32 Byte/line, 2 ports, 1 cycle access"),
    ("ROB Size", "96 entries"),
    ("Load/Store", "48 entries"),
    ("Integer ALU", "8 I-ALU, 4 I-MUL/DIV, 4 Load/Store"),
    ("FP ALU", "8 FP-ALU, 4 FP-MUL/DIV/SQRT"),
    ("DTLB", "256 entries, 4-way, 200 cycle miss"),
    ("L1 Data Cache", "64KB, 4-way, 64 Byte/line, 2 ports, 1 cycle"),
    ("L2 Cache", "unified 2MB, 4-way, 128 Byte/line, 12 cycle access"),
    ("Memory Access", "64 bit wide, 200 cycles access latency"),
)
