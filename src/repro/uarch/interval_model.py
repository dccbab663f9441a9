"""Fast first-order superscalar performance model (the sweep backend).

The paper's data comes from ~3,000 detailed simulations (12 benchmarks x
250 configurations).  Detailed cycle-level simulation in Python at that
scale is intractable, so the design-space sweeps run this *interval
model*: a vectorized first-order out-of-order processor model in the
tradition of Karkhanis & Smith's interval analysis — a base steady-state
IPC set by width / inherent ILP / in-flight window, degraded by additive
miss-event penalties (branch mispredictions, IL1 / DL1 / L2 misses) with
window- and MLP-based overlap corrections.

The kernel is *batched*: :func:`simulate_interval_batch` advances a
whole list of configurations through one benchmark at once, evaluating
every model equation on stacked ``(configs, samples)`` matrices — the
per-config parameters enter as ``(configs, 1)`` columns
(:class:`~repro.uarch.params.ConfigBatch`) and the per-sample workload
attributes as shared rows.  Workload attributes, phase weights and
footprint mixtures are computed once per batch instead of once per
config, and the only remaining per-config Python work is the handful of
operations whose floating-point result would change under broadcasting
(phase-mixing matvecs, the Wattch energy scalars, the seeded noise
draws).  One call on a few hundred configs replaces a few hundred
scalar calls at far more than an order of magnitude less wall time
(``benchmarks/bench_kernel.py`` pins the ratio), and every row is
**bit-identical** to the scalar result for that configuration.

:func:`simulate_interval` — the historical one-config entry point — is
the batch-of-one special case; ``tests/test_kernel_batch.py`` pins
golden trace digests proving the rewrite changed no bits.

A seeded, deterministic noise texture (see
:class:`~repro.workloads.phases.NoiseModel`) models the simulation
effects a config->trace predictor cannot see, giving prediction error a
realistic floor.

The detailed cycle-level simulator in :mod:`repro.uarch.detailed` is the
reference implementation these first-order equations are validated
against (see ``tests/test_backend_agreement.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import stable_hash
from repro.errors import SimulationError
from repro.power.wattch import power_trace_batch
from repro.reliability.avf import AVFModel, structure_capacity_bits
from repro.reliability.dvm import DVMPolicy
from repro.uarch.jit import ewma_scan
from repro.uarch.params import ConfigBatch, MachineConfig
from repro.workloads.phases import WorkloadModel

#: Miss-curve smoothing (log2-KB units): how sharply an access stream
#: transitions from hitting to missing as its working set crosses the
#: cache capacity.
_DL1_SHARPNESS = 0.7
_L2_SHARPNESS = 0.9
_IL1_SHARPNESS = 0.5

#: IL1 probes per instruction (fetch-block granularity).
_IL1_ACCESS_PER_INST = 0.25

#: Fraction of the issue queue assumed occupied by waiting instructions
#: when sizing the effective window (IQ binds only when small).
_IQ_WAITING_SHARE = 0.45

#: Dispatch inefficiency: achievable throughput as a fraction of width.
_DISPATCH_EFFICIENCY = 0.92

#: Residual overlap of long-latency misses beyond explicit MLP
#: bookkeeping (run-ahead effects, hardware prefetch, write buffering).
_MEMORY_OVERLAP = 0.6

#: Performance components copied into every result's ``components``.
_COMPONENT_KEYS = (
    "cpi_base", "cpi_branch", "cpi_dl1_lat", "cpi_l2hit",
    "cpi_mem", "cpi_il1", "mem_stall_frac", "waiting_frac",
    "dl1_miss_rate", "l2_miss_rate", "il1_miss_rate",
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class IntervalSimResult:
    """Per-sample traces produced by one interval-model run."""

    benchmark: str
    config: MachineConfig
    n_samples: int
    cpi: np.ndarray
    power: np.ndarray
    avf: np.ndarray
    iq_avf: np.ndarray
    components: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def ipc(self) -> np.ndarray:
        """Instructions per cycle, the reciprocal CPI trace."""
        return 1.0 / self.cpi

    def trace(self, domain: str) -> np.ndarray:
        """Trace lookup by domain name ("cpi", "power", "avf", "iq_avf")."""
        try:
            return {"cpi": self.cpi, "power": self.power,
                    "avf": self.avf, "iq_avf": self.iq_avf,
                    "ipc": self.ipc}[domain]
        except KeyError:
            raise SimulationError(f"unknown trace domain {domain!r}") from None


@dataclass(frozen=True)
class IntervalBatchResult:
    """Stacked traces for one benchmark across a whole config batch.

    Every trace and component is a ``(len(configs), n_samples)`` matrix
    whose row ``i`` is bit-identical to the scalar
    :func:`simulate_interval` result for ``configs[i]``.  Indexing
    (``batch[i]``) materializes that row as an
    :class:`IntervalSimResult` whose arrays are *views* into the batch
    matrices.  The engine takes the matrices over uncopied as one
    :class:`~repro.uarch.simulator.ResultBlock`
    (:func:`~repro.uarch.simulator.interval_result_to_simulation`): the
    group's results are row views of it, the result cache writes its
    rows as one buffer, and :meth:`~repro.uarch.simulator.\
SimulationResult.detach` copies one row out where a consumer must not
    pin the block.
    """

    benchmark: str
    configs: Tuple[MachineConfig, ...]
    n_samples: int
    cpi: np.ndarray
    power: np.ndarray
    avf: np.ndarray
    iq_avf: np.ndarray
    components: Dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, index: int) -> IntervalSimResult:
        return IntervalSimResult(
            benchmark=self.benchmark,
            config=self.configs[index],
            n_samples=self.n_samples,
            cpi=self.cpi[index],
            power=self.power[index],
            avf=self.avf[index],
            iq_avf=self.iq_avf[index],
            components={k: v[index] for k, v in self.components.items()},
        )

    def __iter__(self) -> Iterator[IntervalSimResult]:
        return (self[i] for i in range(len(self)))


def _mix_phases(weights: np.ndarray, phase_rows: np.ndarray) -> np.ndarray:
    """Schedule-weighted phase mixing, one matvec per config row.

    Kept as per-row ``(samples, phases) @ (phases,)`` products instead
    of one ``weights @ phase_rows.T`` matmul on purpose: BLAS uses a
    different summation order for matrix-matrix than for matrix-vector
    products, and the batch kernel's contract is bit-identity with the
    scalar path.  The loop is over configs only (cheap); each matvec is
    the exact call the scalar model issued.
    """
    out = np.empty((phase_rows.shape[0], weights.shape[0]))
    for row in range(phase_rows.shape[0]):
        out[row] = weights @ phase_rows[row]
    return out


def _mixed_miss_rates(workload: WorkloadModel, batch: ConfigBatch,
                      n_samples: int) -> Dict[str, np.ndarray]:
    """Per-sample DL1 / L2 / IL1 miss rates, ``(configs, samples)`` each.

    An access component with working set ``2**fp`` KB misses a cache of
    ``C`` KB with probability ``sigmoid((fp - log2 C) / sharpness)`` —
    the smoothed capacity-miss model; per-phase rates are then mixed by
    the schedule's phase weights.  The footprint mixture is evaluated on
    a ``(configs, phases, components)`` stack so one pass covers the
    whole batch.
    """
    weights = workload.phase_weights(n_samples)
    fp_log2, fp_w = workload.footprint_components()

    log2_dl1 = np.log2(batch.dl1_size_kb)[:, :, None]    # (B, 1, 1)
    log2_l2 = np.log2(batch.l2_size_kb)[:, :, None]

    dl1_capacity = np.sum(
        fp_w * _sigmoid((fp_log2 - log2_dl1) / _DL1_SHARPNESS), axis=-1
    )
    l2_capacity = np.sum(
        fp_w * _sigmoid((fp_log2 - log2_l2) / _L2_SHARPNESS), axis=-1
    )
    stream = workload.phase_vector("l2_stream_fraction")
    compulsory = workload.phase_vector("dl1_compulsory")

    dl1_phase = np.clip(compulsory + stream + dl1_capacity, 0.0, 1.0)
    l2_phase = np.clip(stream + l2_capacity, 0.0, dl1_phase)

    inst_fp = workload.phase_vector("inst_footprint_log2kb")
    il1_phase = np.clip(
        0.004 + 0.6 * _sigmoid((inst_fp - np.log2(batch.il1_size_kb))
                               / _IL1_SHARPNESS),
        0.0, 1.0,
    )

    return {
        "dl1": _mix_phases(weights, dl1_phase),  # misses per data access
        "l2": _mix_phases(weights, l2_phase),    # mem accesses per access
        "il1": _mix_phases(weights, il1_phase),  # misses per IL1 probe
    }


def _performance(workload: WorkloadModel, batch: ConfigBatch,
                 n_samples: int,
                 attrs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Per-sample CPI and its additive components, batched.

    Every equation is the scalar model's expression verbatim; the
    config-dependent terms are ``(configs, 1)`` columns and broadcast
    against the shared ``(samples,)`` workload attributes, so each
    output row carries the scalar result's exact bits.
    """
    miss = _mixed_miss_rates(workload, batch, n_samples)

    f_load = attrs["f_load"]
    f_mem = attrs["f_load"] + attrs["f_store"]
    f_branch = attrs["f_branch"]

    # ---- effective in-flight window --------------------------------
    window = np.minimum(
        batch.rob_size,
        np.minimum(batch.iq_size / _IQ_WAITING_SHARE,
                   batch.lsq_size / np.maximum(f_mem, 1e-6)),
    )

    # ---- steady-state IPC -------------------------------------------
    ilp_window = attrs["ilp_limit"] * window / (window + attrs["ilp_halfwindow"])
    width_cap = _DISPATCH_EFFICIENCY * batch.fetch_width
    port_cap = batch.mem_ports / np.maximum(f_mem, 1e-6)
    ipc0 = np.minimum(np.minimum(width_cap, ilp_window), port_cap)
    cpi_base = 1.0 / ipc0

    # ---- branch mispredictions --------------------------------------
    refill = batch.pipeline_depth + 0.25 * window / ipc0
    cpi_branch = f_branch * attrs["branch_mispredict"] * refill

    # ---- DL1 hit latency on dependence chains ------------------------
    hiding = attrs["ilp_halfwindow"] / (window + attrs["ilp_halfwindow"])
    cpi_dl1_lat = (f_load * attrs["load_use_weight"]
                   * (batch.dl1_latency - 1) * (2.0 * hiding + 0.2))

    # ---- DL1 miss, L2 hit --------------------------------------------
    l2hit_events = f_mem * np.maximum(miss["dl1"] - miss["l2"], 0.0)
    lat_l2 = batch.l2_latency - batch.dl1_latency
    exposure = _sigmoid((lat_l2 - 0.3 * window / ipc0) / 4.0)
    mlp_short = 1.0 + (attrs["mlp"] - 1.0) * 0.4
    cpi_l2hit = l2hit_events * lat_l2 * exposure / mlp_short

    # ---- L2 miss (memory) --------------------------------------------
    mem_events = f_mem * miss["l2"]
    mlp_long = 1.0 + (attrs["mlp"] - 1.0) * np.clip(
        np.minimum(batch.lsq_size / 32.0, window / 96.0), 0.0, 1.0
    )
    mem_lat = batch.memory_latency + batch.l2_latency
    hide = np.clip(window / (ipc0 * mem_lat), 0.0, 0.35)
    cpi_mem = _MEMORY_OVERLAP * mem_events * mem_lat * (1.0 - hide) / mlp_long

    # ---- IL1 misses (front-end bubbles, mostly L2 hits) ---------------
    il1_events = _IL1_ACCESS_PER_INST * miss["il1"]
    cpi_il1 = il1_events * batch.l2_latency * 0.7

    cpi = cpi_base + cpi_branch + cpi_dl1_lat + cpi_l2hit + cpi_mem + cpi_il1
    mem_stall = (cpi_l2hit + cpi_mem) / cpi
    waiting_frac = np.clip(1.0 - ilp_window / width_cap, 0.0, 1.0)

    return {
        "cpi": cpi,
        "ipc": 1.0 / cpi,
        "cpi_base": cpi_base,
        "cpi_branch": cpi_branch,
        "cpi_dl1_lat": cpi_dl1_lat,
        "cpi_l2hit": cpi_l2hit,
        "cpi_mem": cpi_mem,
        "cpi_il1": cpi_il1,
        "mem_stall_frac": mem_stall,
        "waiting_frac": waiting_frac,
        "window": window,
        "dl1_miss_rate": miss["dl1"],
        "l2_miss_rate": miss["l2"],
        "il1_miss_rate": miss["il1"],
        "f_mem": f_mem,
    }


def _persistence_smooth_rows(traces: np.ndarray,
                             alpha: float = 0.3) -> np.ndarray:
    """Occupancy persistence across sampling intervals, per row.

    Queue occupancy (and hence AVF) is integrated state: it fills and
    drains over many cycles, carrying across interval boundaries.  A
    forward exponential filter (fill/drain time constant of a couple of
    intervals) followed by one short symmetric pass models that
    carry-over, low-passing the occupancy traces relative to the
    instantaneous-rate traces (CPI, power).

    The forward filter is the shared scan in
    :func:`repro.uarch.jit.ewma_scan` — one vector op across all rows
    per time step (or the numba kernel under ``REPRO_JIT``), replacing
    the historical per-element Python loop bit-identically.
    """
    out = ewma_scan(traces, alpha)
    padded = np.concatenate([out[:, :1], out, out[:, -1:]], axis=1)
    return (0.25 * padded[:, :-2] + 0.5 * padded[:, 1:-1]
            + 0.25 * padded[:, 2:])


def _noise_scales(traces: np.ndarray, level: float) -> np.ndarray:
    """Per-row noise scales, vectorized: ``level * std``, or for a flat
    row ``level * max(|mean|, 1e-12) * 0.1``.

    ``np.std`` over the last axis of a C-contiguous matrix reduces each
    row with the same pairwise order as a standalone per-row call, so
    these scales carry the scalar path's exact bits.
    """
    scales = level * np.std(traces, axis=-1)
    flat = scales == 0.0
    if flat.any():
        means = np.abs(np.mean(traces[flat], axis=-1))
        scales[flat] = level * np.maximum(means, 1e-12) * 0.1
    return scales


def simulate_interval_batch(workload: WorkloadModel,
                            configs: Union[ConfigBatch,
                                           Sequence[MachineConfig]],
                            n_samples: int = 128,
                            dvm_policy: Optional[DVMPolicy] = None,
                            noise: bool = True) -> IntervalBatchResult:
    """Run the interval model for a whole batch of configurations.

    One kernel invocation advances every configuration through
    ``workload`` on stacked ``(configs, samples)`` matrices; workload
    attributes, phase weights and footprint mixtures are computed once
    for the batch.  Row ``i`` of every output is bit-identical to
    ``simulate_interval(workload, configs[i], ...)``.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.phases.WorkloadModel` (shared by the
        whole batch — that sharing is where the speedup comes from).
    configs:
        The configurations, as a sequence or a prebuilt
        :class:`~repro.uarch.params.ConfigBatch`.  DVM is applied to
        exactly the members with ``dvm_enabled`` set, each at its own
        ``dvm_threshold`` (or at ``dvm_policy``'s threshold when one is
        passed, matching the scalar entry point).
    n_samples:
        Trace resolution (power of two <= 1024; the paper uses 128).
    noise:
        Apply the deterministic measurement texture.  The per-config
        noise streams are seeded from each config's own content (same
        seeds, same draw order as the scalar path), so batching never
        changes a single sample.
    """
    batch = configs if isinstance(configs, ConfigBatch) else ConfigBatch(configs)
    n_configs = len(batch)

    attrs = workload.attributes(n_samples)
    perf = _performance(workload, batch, n_samples, attrs)

    avf_model = AVFModel(batch)
    avf = avf_model.avf_traces(
        perf["ipc"], perf["mem_stall_frac"], attrs["ace_fraction"],
        perf["f_mem"], perf["window"], perf["waiting_frac"],
    )
    iq_avf = avf["iq"]
    cpi = perf["cpi"]

    dvm_engaged = np.zeros((n_configs, n_samples))
    enabled = batch.dvm_enabled          # (B, 1) bool column
    if enabled.any():
        # Scalar semantics: an explicit policy overrides every config's
        # own threshold; otherwise each config manages to its own.
        policy = dvm_policy or DVMPolicy()
        threshold = (policy.threshold if dvm_policy is not None
                     else batch.dvm_threshold)
        managed_avf, managed_cpi, engaged = policy.apply_interval_effect(
            iq_avf, cpi, batch, perf["mem_stall_frac"], threshold=threshold
        )
        iq_avf = np.where(enabled, managed_avf, iq_avf)
        cpi = np.where(enabled, managed_cpi, cpi)
        dvm_engaged = np.where(enabled, engaged, 0.0)

    # Occupancy state persists across interval boundaries: all four
    # structures' traces go through one stacked scan (rows are
    # independent, so stacking changes no bits).
    stacked = np.concatenate([iq_avf, avf["rob"], avf["lsq"], avf["regfile"]])
    smoothed = _persistence_smooth_rows(stacked)
    iq_avf = smoothed[:n_configs]
    rob_smooth = smoothed[n_configs:2 * n_configs]
    lsq_smooth = smoothed[2 * n_configs:3 * n_configs]
    rf_smooth = smoothed[3 * n_configs:]

    # Processor AVF re-weighted with the (possibly DVM-managed) IQ AVF.
    bits = structure_capacity_bits(batch)
    total_bits = sum(bits.values())
    processor_avf = (
        iq_avf * bits["iq"]
        + rob_smooth * bits["rob"]
        + lsq_smooth * bits["lsq"]
        + rf_smooth * bits["regfile"]
    ) / total_bits

    ipc = 1.0 / cpi
    mix = {k: attrs[k] for k in ("f_load", "f_store", "f_branch", "f_fp")}
    power = power_trace_batch(
        batch, ipc, mix, perf["dl1_miss_rate"],
        _IL1_ACCESS_PER_INST * perf["il1_miss_rate"],
    )

    if noise:
        # Per-config streams: each row's generator is seeded from that
        # config's content and drawn in the scalar path's exact order
        # (cpi, power, avf, iq_avf) — batching a job next to others
        # never changes its texture.  A row's draws for its k noisy
        # traces are one standard_normal(k * n_samples) call, the same
        # stream as k normal(size=n_samples) calls; everything else is
        # matrix-wide: scales up front, then ``0.0 + scale * z`` (what
        # normal(scale=...) computes per sample) and the clamps.
        levels = workload.noise
        planned = [
            (traces, _noise_scales(traces, level))
            for traces, level in ((cpi, levels.cpi), (power, levels.power),
                                  (processor_avf, levels.avf),
                                  (iq_avf, levels.avf)) if level > 0.0
        ]
        if planned:
            draws = np.stack([
                np.random.default_rng(stable_hash(
                    workload.name, config.key(), n_samples,
                )).standard_normal(len(planned) * n_samples)
                for config in batch.configs
            ]).reshape(n_configs, len(planned), n_samples)
            for index, (traces, scales) in enumerate(planned):
                traces += 0.0 + scales[:, None] * draws[:, index]
        cpi = np.maximum(cpi, 0.05)
        power = np.maximum(power, 1.0)
        processor_avf = np.clip(processor_avf, 0.0, 1.0)
        iq_avf = np.clip(iq_avf, 0.0, 1.0)

    components = {k: perf[k] for k in _COMPONENT_KEYS}
    components["dvm_engaged"] = dvm_engaged
    components["rob_avf"] = avf["rob"]
    components["lsq_avf"] = avf["lsq"]

    return IntervalBatchResult(
        benchmark=workload.name,
        configs=batch.configs,
        n_samples=n_samples,
        cpi=cpi,
        power=power,
        avf=processor_avf,
        iq_avf=iq_avf,
        components=components,
    )


def simulate_interval(workload: WorkloadModel, config: MachineConfig,
                      n_samples: int = 128,
                      dvm_policy: Optional[DVMPolicy] = None,
                      noise: bool = True) -> IntervalSimResult:
    """Run the interval model for one (workload, configuration) pair.

    The batch-of-one case of :func:`simulate_interval_batch` (same
    bits, same seeds — the golden-digest tests in
    ``tests/test_kernel_batch.py`` pin the equivalence against the
    pre-batching implementation).

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.phases.WorkloadModel`.
    config:
        Machine configuration; if ``config.dvm_enabled`` the DVM policy
        (``dvm_policy`` or one built from ``config.dvm_threshold``) is
        applied to the IQ AVF and CPI traces.
    n_samples:
        Trace resolution (power of two <= 1024; the paper uses 128).
    noise:
        Apply the deterministic measurement texture (disable for exact
        model-equation tests).
    """
    return simulate_interval_batch(
        workload, (config,), n_samples=n_samples,
        dvm_policy=dvm_policy, noise=noise,
    )[0]
