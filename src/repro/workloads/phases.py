"""Phase profiles and phase schedules for synthetic workloads.

A *phase* is a statistically homogeneous stretch of program execution,
described by :class:`PhaseProfile`.  A :class:`WorkloadModel` is a set of
phases plus a deterministic fine-grained *schedule* (which phase is
active in each of :data:`FINE_RESOLUTION` execution slots).  Sampling a
workload at ``n`` points (the paper uses 128 by default, 64–1024 in its
Figure 10 sweep) averages the schedule within each of ``n`` equal
buckets, yielding a per-sample *phase weight matrix* — any per-phase
quantity (instruction mix, miss-rate curve value, ILP parameter, ...)
then becomes a per-sample trace via one matrix product.

The schedules are built from composable primitives (blocks, periodic
overlays, bursts) so each synthetic benchmark gets distinctive, fully
reproducible dynamics with energy concentrated in a modest number of
wavelet coefficients — the property the paper's Figure 4/9 analysis
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro._validation import is_power_of_two
from repro.errors import WorkloadError

#: Number of fine-grained schedule slots per workload.  All supported
#: sampling resolutions (64..1024, Figure 10) divide this evenly.
FINE_RESOLUTION = 1024

#: Per-phase scalar attributes exposed to the simulators.
SCALAR_ATTRIBUTES = (
    "f_load",
    "f_store",
    "f_branch",
    "f_fp",
    "ilp_limit",
    "ilp_halfwindow",
    "branch_mispredict",
    "dl1_compulsory",
    "l2_stream_fraction",
    "inst_footprint_log2kb",
    "mlp",
    "ace_fraction",
    "load_use_weight",
)


@dataclass(frozen=True)
class PhaseProfile:
    """Statistical description of one execution phase.

    Attributes
    ----------
    f_load, f_store, f_branch, f_fp:
        Dynamic instruction mix fractions (the remainder is plain integer
        ALU work).
    ilp_limit:
        Inherent instructions-per-cycle with an unbounded window.
    ilp_halfwindow:
        Window size (instructions) at which half of ``ilp_limit`` is
        achieved; larger values mean longer dependence chains that need a
        big ROB/IQ to extract parallelism.
    branch_mispredict:
        Per-branch misprediction probability under the fixed Table 1
        gshare predictor.
    data_footprints:
        Reuse mixture ``((log2_kb, weight), ...)``: ``weight`` of the data
        accesses reuse a working set of ``2**log2_kb`` KB.  An access
        misses a cache of capacity C when its working set exceeds C
        (smoothed); weights must sum to <= 1, the remainder always hits.
    dl1_compulsory:
        Floor miss rate (cold/conflict misses) for the L1 data cache.
    l2_stream_fraction:
        Fraction of data accesses that stream past any L2 (compulsory
        L2 misses), e.g. stencil sweeps in swim.
    inst_footprint_log2kb:
        Instruction working set (log2 KB) against the IL1.
    mlp:
        Intrinsic memory-level parallelism — overlapping long-latency
        misses, given sufficient window/LSQ.
    ace_fraction:
        Fraction of in-flight state that is ACE (Architecturally Correct
        Execution) bits for AVF accounting.
    load_use_weight:
        Probability that a load feeds the critical path (sensitivity to
        DL1 latency).
    """

    name: str
    f_load: float = 0.25
    f_store: float = 0.10
    f_branch: float = 0.15
    f_fp: float = 0.05
    ilp_limit: float = 4.0
    ilp_halfwindow: float = 32.0
    branch_mispredict: float = 0.05
    data_footprints: Tuple[Tuple[float, float], ...] = ((5.0, 0.05),)
    dl1_compulsory: float = 0.003
    l2_stream_fraction: float = 0.0
    inst_footprint_log2kb: float = 3.5
    mlp: float = 1.5
    ace_fraction: float = 0.55
    load_use_weight: float = 0.35

    def __post_init__(self):
        for frac_name in ("f_load", "f_store", "f_branch", "f_fp",
                          "branch_mispredict", "dl1_compulsory",
                          "l2_stream_fraction", "ace_fraction",
                          "load_use_weight"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(
                    f"phase {self.name}: {frac_name} must be in [0, 1], got {value}"
                )
        if self.f_load + self.f_store + self.f_branch + self.f_fp > 1.0:
            raise WorkloadError(
                f"phase {self.name}: instruction mix fractions exceed 1"
            )
        if self.ilp_limit <= 0 or self.ilp_halfwindow <= 0 or self.mlp < 1.0:
            raise WorkloadError(
                f"phase {self.name}: ilp_limit/ilp_halfwindow must be positive "
                f"and mlp >= 1"
            )
        if any(w < 0.0 for _, w in self.data_footprints):
            raise WorkloadError(
                f"phase {self.name}: data footprint weights must be >= 0"
            )
        total_w = sum(w for _, w in self.data_footprints)
        if total_w > 1.0 + 1e-9:
            raise WorkloadError(
                f"phase {self.name}: data footprint weights sum to {total_w} > 1"
            )

    @property
    def f_mem(self) -> float:
        """Fraction of memory instructions (loads + stores)."""
        return self.f_load + self.f_store


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------
def block_schedule(blocks: Sequence[Tuple[int, float]],
                   resolution: int = FINE_RESOLUTION) -> np.ndarray:
    """Concatenate phase blocks: ``[(phase_index, fraction), ...]``.

    Fractions are normalized to sum to 1; the final block absorbs
    rounding.
    """
    if not blocks:
        raise WorkloadError("block_schedule requires at least one block")
    fracs = np.array([f for _, f in blocks], dtype=float)
    if np.any(fracs <= 0):
        raise WorkloadError("block fractions must be positive")
    fracs = fracs / fracs.sum()
    out = np.empty(resolution, dtype=int)
    start = 0
    for (phase_idx, _), frac in zip(blocks, fracs):
        length = int(round(frac * resolution))
        out[start:start + length] = phase_idx
        start += length
    out[start:] = blocks[-1][0]
    return out


def overlay_periodic(schedule: np.ndarray, phase_index: int, period: int,
                     duty: float = 0.5, offset: int = 0) -> np.ndarray:
    """Replace a periodic duty-cycle portion of ``schedule`` with a phase.

    Models loop-level alternation (e.g. compress/reorder in bzip2).
    Returns a new array.
    """
    if period < 2:
        raise WorkloadError(f"period must be >= 2, got {period}")
    if not 0.0 < duty < 1.0:
        raise WorkloadError(f"duty must be in (0, 1), got {duty}")
    out = schedule.copy()
    pos = (np.arange(out.size) + offset) % period
    out[pos < duty * period] = phase_index
    return out


def overlay_bursts(schedule: np.ndarray, phase_index: int,
                   positions: Sequence[float], width: float) -> np.ndarray:
    """Insert short bursts of a phase at fractional positions.

    Models garbage-collection pauses, context refills, or the thermal
    spikes that motivate scenario-driven optimization.  Returns a new
    array.
    """
    if not 0.0 < width < 1.0:
        raise WorkloadError(f"width must be in (0, 1), got {width}")
    out = schedule.copy()
    n = out.size
    half = max(int(width * n / 2), 1)
    for pos in positions:
        if not 0.0 <= pos <= 1.0:
            raise WorkloadError(f"burst position must be in [0, 1], got {pos}")
        center = int(pos * (n - 1))
        out[max(center - half, 0):min(center + half, n)] = phase_index
    return out


def overlay_drift(schedule: np.ndarray, phase_a: int, phase_b: int) -> np.ndarray:
    """Gradually shift slots of ``phase_a`` toward ``phase_b`` over time.

    Models slowly-converging computations (e.g. vpr's simulated
    annealing, where late execution behaves differently from early).
    Returns a new array.
    """
    out = schedule.copy()
    n = out.size
    # Deterministic low-discrepancy "probability" ramp: slot i flips when
    # (i * golden_ratio) mod 1 < i/n, giving a smooth density gradient.
    golden = 0.6180339887498949
    ramp = (np.arange(n) * golden) % 1.0
    flips = (out == phase_a) & (ramp < np.arange(n) / n)
    out[flips] = phase_b
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic per-domain measurement texture.

    Real simulations contain effects a config->trace model cannot see
    (OS interference, replacement nondeterminism, sampling skew).  Each
    (benchmark, configuration) pair receives seeded Gaussian texture
    whose standard deviation is the given fraction of the trace's own
    temporal standard deviation.
    """

    cpi: float = 0.10
    power: float = 0.11
    avf: float = 0.06

    def level(self, domain: str) -> float:
        """Noise fraction for a metric domain."""
        if domain in ("cpi", "ipc"):
            return self.cpi
        if domain == "power":
            return self.power
        if domain in ("avf", "iq_avf"):
            return self.avf
        raise WorkloadError(f"unknown noise domain {domain!r}")


@dataclass(frozen=True)
class WorkloadModel:
    """A synthetic benchmark: phases + schedule + noise texture.

    Attributes
    ----------
    name:
        Benchmark name (e.g. ``"gcc"``).
    phases:
        The phase profiles; schedule entries index into this tuple.
    schedule:
        Length-:data:`FINE_RESOLUTION` integer array of phase indices.
    noise:
        Per-domain measurement-texture levels.
    description:
        One-line characterization used in docs and reports.
    """

    name: str
    phases: Tuple[PhaseProfile, ...]
    schedule: np.ndarray
    noise: NoiseModel = field(default_factory=NoiseModel)
    description: str = ""

    def __post_init__(self):
        if len(self.phases) == 0:
            raise WorkloadError(f"workload {self.name}: needs at least one phase")
        sched = np.asarray(self.schedule, dtype=int)
        if sched.ndim != 1 or sched.size != FINE_RESOLUTION:
            raise WorkloadError(
                f"workload {self.name}: schedule must be 1-D with "
                f"{FINE_RESOLUTION} entries, got shape {sched.shape}"
            )
        if sched.min() < 0 or sched.max() >= len(self.phases):
            raise WorkloadError(
                f"workload {self.name}: schedule indexes phase "
                f"{sched.max()} but only {len(self.phases)} phases exist"
            )
        object.__setattr__(self, "schedule", sched)

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def phase_weights(self, n_samples: int, smooth: bool = True) -> np.ndarray:
        """Per-sample phase occupancy, shape ``(n_samples, n_phases)``.

        Each row sums to 1 and gives the fraction of the sample interval
        spent in each phase.  ``n_samples`` must be a power of two
        dividing :data:`FINE_RESOLUTION`.

        With ``smooth=True`` (default) a short [1/4, 1/2, 1/4] kernel is
        applied along time: phase transitions bleed into neighbouring
        sampling intervals the way they do in real measurements (an
        interval straddling a phase change reports blended statistics).
        This also keeps the sampled dynamics energy concentrated at the
        coarser wavelet scales, matching the compressibility the paper
        demonstrates in its Figures 4 and 9.
        """
        if not is_power_of_two(n_samples) or n_samples > FINE_RESOLUTION:
            raise WorkloadError(
                f"n_samples must be a power of two <= {FINE_RESOLUTION}, "
                f"got {n_samples}"
            )
        bucket = FINE_RESOLUTION // n_samples
        onehot = np.zeros((FINE_RESOLUTION, self.n_phases), dtype=float)
        onehot[np.arange(FINE_RESOLUTION), self.schedule] = 1.0
        weights = onehot.reshape(n_samples, bucket, self.n_phases).mean(axis=1)
        if smooth and n_samples >= 4:
            padded = np.vstack([weights[:1], weights, weights[-1:]])
            weights = (0.25 * padded[:-2] + 0.5 * padded[1:-1]
                       + 0.25 * padded[2:])
        return weights

    def phase_vector(self, attribute: str) -> np.ndarray:
        """Per-phase values of a scalar attribute, shape ``(n_phases,)``."""
        if attribute not in SCALAR_ATTRIBUTES:
            raise WorkloadError(
                f"unknown scalar attribute {attribute!r}; "
                f"choose from {SCALAR_ATTRIBUTES}"
            )
        return np.array([getattr(p, attribute) for p in self.phases])

    def attribute_trace(self, attribute: str, n_samples: int) -> np.ndarray:
        """Per-sample trace of a scalar attribute (phase-weighted mean)."""
        return self.phase_weights(n_samples) @ self.phase_vector(attribute)

    def attributes(self, n_samples: int) -> Dict[str, np.ndarray]:
        """All scalar attribute traces at the given resolution."""
        weights = self.phase_weights(n_samples)
        return {
            name: weights @ self.phase_vector(name)
            for name in SCALAR_ATTRIBUTES
        }

    def footprint_components(self):
        """Stacked data-footprint mixtures for vectorized miss-rate math.

        Returns ``(log2kb, weight)`` arrays of shape
        ``(n_phases, max_components)``; phases with fewer components are
        zero-weight padded.
        """
        max_k = max(len(p.data_footprints) for p in self.phases)
        log2kb = np.zeros((self.n_phases, max_k))
        weight = np.zeros((self.n_phases, max_k))
        for i, p in enumerate(self.phases):
            for j, (fp, w) in enumerate(p.data_footprints):
                log2kb[i, j] = fp
                weight[i, j] = w
        return log2kb, weight
