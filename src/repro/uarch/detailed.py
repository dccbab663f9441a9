"""Detailed simulation driver: trace synthesis + pipeline + models.

Runs the cycle-level :class:`~repro.uarch.pipeline.OutOfOrderCore` over a
synthesized instruction stream, producing the same per-interval
CPI / power / AVF / IQ-AVF traces as the interval backend — the ground
truth used for mechanism studies (the DVM case study) and for validating
the interval model's first-order equations.

Detailed jobs cost seconds each (the engine's dominant expense), so
:meth:`DetailedSimulator.run` supports **per-interval checkpointing**:
every ``checkpoint_every`` intervals it atomically snapshots the core's
full microarchitectural state (caches, predictor, DVM controller, the
cross-interval dependence window) plus the traces measured so far into
an ``.npz`` file.  A re-run with the same arguments resumes from the
snapshot and produces a **bit-identical**
:class:`~repro.uarch.simulator.SimulationResult` — a killed sweep
restarts mid-benchmark instead of from scratch.  The engine keys
checkpoint files by job content hash under the cache directory (see
:func:`checkpoint_settings_from_env` and
:meth:`repro.engine.jobs.SimJob.run`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.power.wattch import WattchModel
from repro.reliability.avf import AVFModel
from repro.reliability.dvm import DVMController, DVMPolicy
from repro.uarch.params import MachineConfig
from repro.workloads.generator import synthesize_interval
from repro.workloads.phases import WorkloadModel
from repro.workloads.spec2000 import get_benchmark

#: Bump when checkpoint contents change incompatibly: old snapshots are
#: then ignored (and deleted) instead of mis-resumed.  v2 replaced the
#: pickled core blob with the engine-independent array snapshot
#: (:meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state`) stored
#: as plain ``state_*`` arrays — no pickling on either side, and either
#: execution engine can resume it.  v1 files fail the meta digest (the
#: version participates) and are deleted, never mis-resumed.
CHECKPOINT_VERSION = "ckpt/v2"

#: Trace arrays a snapshot carries, in a fixed order.
_TRACE_FIELDS = ("cpi", "power", "avf", "iq_avf", "mispredicts", "throttled")


def _default_checkpoint_dir() -> str:
    """Directory snapshots land in when none is configured explicitly:
    ``$REPRO_CHECKPOINT_DIR``, else ``$REPRO_CACHE_DIR/checkpoints``
    when a cache directory is configured, else ``.repro-checkpoints``.
    """
    directory = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
    if directory:
        return directory
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return (str(Path(cache_dir) / "checkpoints") if cache_dir
            else ".repro-checkpoints")


def resolve_checkpoint_settings(every: Optional[int] = None,
                                directory: Optional[str] = None,
                                ) -> Tuple[int, Optional[str]]:
    """Effective ``(checkpoint_every, checkpoint_dir)`` for one run.

    Explicit arguments — the values a :class:`~repro.engine.jobs.SimJob`
    carries — win; the ``REPRO_CHECKPOINT_EVERY`` /
    ``REPRO_CHECKPOINT_DIR`` environment only fills the gaps, so
    checkpoint settings normally travel *inside* jobs (to pool workers)
    and the environment is never mutated to transport them.
    """
    if every is None:
        raw = os.environ.get("REPRO_CHECKPOINT_EVERY", "").strip()
        if not raw:
            return 0, None
        try:
            every = int(raw)
        except ValueError:
            raise SimulationError(
                f"REPRO_CHECKPOINT_EVERY must be an integer, got {raw!r}"
            )
    if every <= 0:
        return 0, None
    return every, (directory or _default_checkpoint_dir())


def checkpoint_settings_from_env() -> Tuple[int, Optional[str]]:
    """The ``(checkpoint_every, checkpoint_dir)`` environment knobs.

    Kept for library users who configure checkpointing through the
    environment; equivalent to :func:`resolve_checkpoint_settings` with
    no explicit overrides.
    """
    return resolve_checkpoint_settings(None, None)


def _checkpoint_meta(workload: WorkloadModel, config: MachineConfig,
                     n_samples: int, instructions_per_sample: int,
                     warmup: bool,
                     dvm_controller: Optional[DVMController]) -> str:
    """Digest identifying which run a snapshot belongs to.

    A snapshot resumed under any different argument would silently
    produce wrong traces; the digest makes such mismatches detectable
    (stale files are ignored and deleted).  The workload and any DVM
    policy participate by *content*, not name, so editing a custom
    :class:`WorkloadModel` — or overriding ``dvm_policy`` — between
    runs invalidates old snapshots too.
    """
    from repro.engine.jobs import _canonical

    policy = _canonical(dvm_controller.policy) if dvm_controller else None
    parts = (CHECKPOINT_VERSION, _canonical(workload), n_samples,
             instructions_per_sample, bool(warmup), config.key(), policy)
    return hashlib.sha256(repr(parts).encode("utf8")).hexdigest()


def _save_checkpoint(path: Path, meta: str, next_interval: int,
                     core, traces) -> None:
    """Atomically snapshot ``core`` + measured traces (tmp + replace)."""
    payload = {"meta": np.array(meta), "next": np.array(next_interval),
               "state_version": np.array(CHECKPOINT_VERSION)}
    for name, arr in core.snapshot_state().items():
        payload["state_" + name] = arr
    for name, arr in zip(_TRACE_FIELDS, traces):
        payload[name] = arr[:next_interval]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.stem,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_checkpoint(path: Path, meta: str, n_samples: int,
                     config: MachineConfig,
                     dvm_controller: Optional[DVMController]):
    """``(core, traces, next_interval)`` from a snapshot, or ``None``.

    Corrupt, stale-version, or wrong-run snapshots are deleted and
    treated as absent — the run then starts from interval 0.  The core
    is rebuilt from ``config`` and the ``state_*`` arrays are loaded
    through :meth:`~repro.uarch.pipeline.OutOfOrderCore.restore_state`
    — no unpickling of executable state ever happens.
    """
    from repro.uarch.pipeline import OutOfOrderCore

    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if ("state_version" not in data.files
                    or str(data["state_version"]) != CHECKPOINT_VERSION):
                raise ValueError("checkpoint from an incompatible version")
            if str(data["meta"]) != meta:
                raise ValueError("checkpoint belongs to a different run")
            next_interval = int(data["next"])
            if not 0 < next_interval < n_samples:
                raise ValueError("checkpoint interval out of range")
            traces = []
            for name in _TRACE_FIELDS:
                arr = np.empty(n_samples)
                arr[:next_interval] = data[name]
                traces.append(arr)
            core = OutOfOrderCore(config, dvm=dvm_controller)
            core.restore_state({
                key[len("state_"):]: data[key]
                for key in data.files
                if key.startswith("state_") and key != "state_version"
            })
        return core, traces, next_interval
    except Exception:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def sweep_checkpoints(directory: Union[str, Path],
                      ttl_seconds: float = 7 * 24 * 3600,
                      now: Optional[float] = None) -> Tuple[int, int]:
    """Remove orphaned checkpoint snapshots under ``directory``.

    Returns ``(files_removed, bytes_reclaimed)``.  A snapshot is swept
    when it is a leftover ``*.tmp`` from a crashed atomic save, an
    ``*.npz`` that is unreadable or from another checkpoint version
    (pre-v2 pickled snapshots have no ``state_version`` field), or an
    ``*.npz`` older than ``ttl_seconds`` (completed runs delete their
    snapshot, so an old one belongs to a sweep nobody resumed).
    ``repro cache gc`` calls this for the cache's checkpoint directory.
    """
    root = Path(directory)
    if not root.is_dir():
        return 0, 0
    if now is None:
        now = time.time()
    removed = 0
    reclaimed = 0
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        name = path.name
        if name.endswith(".tmp"):
            stale = True
        elif name.endswith(".npz"):
            try:
                stale = now - path.stat().st_mtime > ttl_seconds
            except OSError:
                continue
            if not stale:
                try:
                    with np.load(path, allow_pickle=False) as data:
                        stale = ("state_version" not in data.files
                                 or str(data["state_version"])
                                 != CHECKPOINT_VERSION)
                except Exception:
                    stale = True
        else:
            continue
        if not stale:
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        reclaimed += size
    return removed, reclaimed


class DetailedSimulator:
    """Cycle-level simulation of one machine configuration.

    Parameters
    ----------
    config:
        The machine to simulate; when ``config.dvm_enabled`` a
        :class:`DVMController` with ``config.dvm_threshold`` gates
        dispatch (the paper's Figure 16 policy).
    dvm_policy:
        Optional explicit policy overriding the config-derived one.
    """

    def __init__(self, config: MachineConfig,
                 dvm_policy: Optional[DVMPolicy] = None):
        self.config = config
        if config.dvm_enabled:
            policy = dvm_policy or DVMPolicy(threshold=config.dvm_threshold)
            self.dvm_controller: Optional[DVMController] = DVMController(policy)
        else:
            self.dvm_controller = None

    def run(self, workload: Union[str, WorkloadModel], n_samples: int = 64,
            instructions_per_sample: int = 1000, warmup: bool = True,
            checkpoint_every: Optional[int] = None,
            checkpoint_path=None):
        """Simulate ``n_samples`` intervals and assemble the result.

        With ``warmup=True`` an extra unmeasured copy of the first
        interval is simulated first, standing in for the paper's
        fast-forward to the SimPoint region (caches and predictor warm).

        With ``checkpoint_every`` and ``checkpoint_path`` set, the full
        simulation state is snapshotted every ``checkpoint_every``
        measured intervals; a matching snapshot found at
        ``checkpoint_path`` resumes the run mid-benchmark, bit-identical
        to an uninterrupted one.  The snapshot is removed once the run
        completes.

        Returns a :class:`~repro.uarch.simulator.SimulationResult`
        (imported lazily to avoid a module cycle).
        """
        from repro.uarch.pipeline import OutOfOrderCore
        from repro.uarch.simulator import SimulationResult

        if isinstance(workload, str):
            workload = get_benchmark(workload)
        if n_samples < 1 or instructions_per_sample < 1:
            raise SimulationError(
                "n_samples and instructions_per_sample must be >= 1"
            )
        checkpointing = (checkpoint_path is not None
                         and checkpoint_every is not None
                         and checkpoint_every > 0)
        if checkpointing:
            checkpoint_path = Path(checkpoint_path)
            meta = _checkpoint_meta(workload, self.config, n_samples,
                                    instructions_per_sample, warmup,
                                    self.dvm_controller)

        start_interval = 0
        core = None
        if checkpointing:
            resumed = _load_checkpoint(checkpoint_path, meta, n_samples,
                                       self.config, self.dvm_controller)
            if resumed is not None:
                core, traces, start_interval = resumed
                (cpi, power, avf, iq_avf, mispredicts, throttled) = traces
        if core is None:
            core = OutOfOrderCore(self.config, dvm=self.dvm_controller)
            if warmup:
                core.run_interval(
                    synthesize_interval(workload, 0, n_samples,
                                        instructions_per_sample, seed=1)
                )
            cpi = np.empty(n_samples)
            power = np.empty(n_samples)
            avf = np.empty(n_samples)
            iq_avf = np.empty(n_samples)
            mispredicts = np.empty(n_samples)
            throttled = np.empty(n_samples)

        power_model = WattchModel(self.config)
        avf_model = AVFModel(self.config)

        for i in range(start_interval, n_samples):
            trace = synthesize_interval(workload, i, n_samples,
                                        instructions_per_sample)
            stats = core.run_interval(trace)
            cpi[i] = stats.cpi
            power[i] = power_model.power_from_counters(stats.counters,
                                                       stats.cycles)
            structure_avf = avf_model.avf_from_counters(stats.ace_bit_cycles,
                                                        stats.cycles)
            avf[i] = structure_avf["processor"]
            iq_avf[i] = structure_avf["iq"]
            mispredicts[i] = stats.branch_mispredicts / stats.instructions
            throttled[i] = stats.dvm_throttled_cycles / stats.cycles
            if (checkpointing and (i + 1) % checkpoint_every == 0
                    and i + 1 < n_samples):
                _save_checkpoint(checkpoint_path, meta, i + 1, core,
                                 (cpi, power, avf, iq_avf, mispredicts,
                                  throttled))

        if checkpointing:
            try:
                checkpoint_path.unlink()  # the run completed; snapshot stale
            except OSError:
                pass

        return SimulationResult(
            benchmark=workload.name,
            config=self.config,
            n_samples=n_samples,
            backend="detailed",
            traces={"cpi": cpi, "power": power, "avf": avf,
                    "iq_avf": iq_avf},
            components={"mispredict_rate": mispredicts,
                        "dvm_throttled_frac": throttled},
        )


def run_detailed_group(jobs, engine: Optional[str] = None):
    """Run a group of detailed jobs sharing one workload signature as
    one batched interval stream.

    The batched twin of ``[job.run() for job in jobs]``: every member's
    core state is stacked into one
    :class:`~repro.uarch.pipeline_kernel.BatchKernelState` and each
    interval advances the whole group through a single
    :func:`~repro.uarch.pipeline_kernel.step_interval_batch` call
    against the group's one synthesized trace.  Everything *around* the
    kernel stays per-member and exactly mirrors
    :meth:`DetailedSimulator.run`: checkpoint resolution/resume/save
    uses each job's own settings and content-hash path in the unchanged
    ``ckpt/v2`` format (a member's :class:`KernelState` arrays are
    views into the stacked batch, so its per-core snapshot slices out
    unchanged), warmup runs only for members starting fresh (resumed
    members sit out via the ``active`` mask — ragged groups are the
    normal case after a partial crash), and power / AVF / mispredict
    post-processing calls the exact scalar model code per member.

    ``engine`` selects the stepper: ``None``/``"auto"`` and ``"batch"``
    use the compiled ``prange`` kernel when numba is importable (plain
    loop otherwise); ``"batch-interp"`` forces the plain loop (the
    parity-test configuration); ``"per-job"`` bypasses batching
    entirely.  All engines are bit-identical.  Results align with
    ``jobs``.
    """
    from repro.uarch.pipeline import COUNTER_KEYS, OutOfOrderCore
    from repro.uarch.pipeline_kernel import (
        ACE_IQ, ACE_LSQ, ACE_REGFILE, ACE_ROB, OI_MISPREDICTS, OI_THROTTLED,
        BatchKernelState, run_interval_on_batch)
    from repro.uarch.simulator import SimulationResult

    jobs = list(jobs)
    if engine in (None, "auto"):
        engine = "batch"
    if engine == "per-job":
        return [job.run() for job in jobs]
    if engine not in ("batch", "batch-interp"):
        raise SimulationError(
            f"unknown detailed group engine {engine!r}; choose from "
            f"(None, 'auto', 'batch', 'batch-interp', 'per-job')"
        )
    compiled = engine == "batch"
    if not jobs:
        return []

    lead = jobs[0]
    n_samples = lead.n_samples
    ips = lead.instructions_per_sample
    for job in jobs:
        if (job.backend != "detailed" or job.benchmark != lead.benchmark
                or job.n_samples != n_samples
                or job.instructions_per_sample != ips):
            raise SimulationError(
                "detailed group members must share benchmark, n_samples "
                "and instructions_per_sample"
            )
    workload = (lead.workload if lead.workload is not None
                else get_benchmark(lead.benchmark))

    members = []
    for job in jobs:
        dvm = DetailedSimulator(job.config).dvm_controller
        every, directory = resolve_checkpoint_settings(
            job.checkpoint_every, job.checkpoint_dir)
        path = meta = None
        if every:
            path = Path(directory) / f"{job.key()}.ckpt.npz"
            meta = _checkpoint_meta(workload, job.config, n_samples, ips,
                                    True, dvm)
        core = None
        start = 0
        if path is not None:
            resumed = _load_checkpoint(path, meta, n_samples, job.config, dvm)
            if resumed is not None:
                core, traces, start = resumed
        if core is None:
            core = OutOfOrderCore(job.config, dvm=dvm)
            traces = [np.empty(n_samples) for _ in _TRACE_FIELDS]
        members.append({
            "job": job, "core": core, "traces": traces, "start": start,
            "every": every, "path": path, "meta": meta,
            "power": WattchModel(job.config), "avf": AVFModel(job.config),
        })

    cores = [member["core"] for member in members]
    batch = BatchKernelState([core._enter_kernel_mode() for core in cores])

    # Unmeasured warmup interval — fresh members only (resumed cores
    # already warmed before their snapshot was taken).
    fresh = np.array([1 if member["start"] == 0 else 0
                      for member in members], dtype=np.uint8)
    if fresh.any():
        warm = synthesize_interval(workload, 0, n_samples, ips, seed=1)
        run_interval_on_batch(cores, batch, warm, fresh, compiled=compiled)

    first = min(member["start"] for member in members)
    for i in range(first, n_samples):
        trace = synthesize_interval(workload, i, n_samples, ips)
        active = np.array([1 if member["start"] <= i else 0
                           for member in members], dtype=np.uint8)
        out_counters, out_ace, out_ints, cycles = run_interval_on_batch(
            cores, batch, trace, active, compiled=compiled)
        n_instr = len(trace)
        for b, member in enumerate(members):
            if not active[b]:
                continue
            counters = {key: float(out_counters[b, index])
                        for index, key in enumerate(COUNTER_KEYS)}
            ace = {"iq": float(out_ace[b, ACE_IQ]),
                   "rob": float(out_ace[b, ACE_ROB]),
                   "lsq": float(out_ace[b, ACE_LSQ]),
                   "regfile": float(out_ace[b, ACE_REGFILE])}
            n_cycles = int(cycles[b])
            cpi, power, avf, iq_avf, mispredicts, throttled = member["traces"]
            cpi[i] = n_cycles / n_instr
            power[i] = member["power"].power_from_counters(counters, n_cycles)
            structure_avf = member["avf"].avf_from_counters(ace, n_cycles)
            avf[i] = structure_avf["processor"]
            iq_avf[i] = structure_avf["iq"]
            mispredicts[i] = int(out_ints[b, OI_MISPREDICTS]) / n_instr
            throttled[i] = int(out_ints[b, OI_THROTTLED]) / n_cycles
            if (member["every"] and (i + 1) % member["every"] == 0
                    and i + 1 < n_samples):
                _save_checkpoint(member["path"], member["meta"], i + 1,
                                 member["core"], tuple(member["traces"]))

    results = []
    for member in members:
        if member["path"] is not None:
            try:
                member["path"].unlink()  # the run completed; snapshot stale
            except OSError:
                pass
        cpi, power, avf, iq_avf, mispredicts, throttled = member["traces"]
        results.append(SimulationResult(
            benchmark=workload.name,
            config=member["job"].config,
            n_samples=n_samples,
            backend="detailed",
            traces={"cpi": cpi, "power": power, "avf": avf,
                    "iq_avf": iq_avf},
            components={"mispredict_rate": mispredicts,
                        "dvm_throttled_frac": throttled},
        ))
    return results
