"""Detailed simulation driver: trace synthesis + pipeline + models.

Runs the cycle-level :class:`~repro.uarch.pipeline.OutOfOrderCore` over a
synthesized instruction stream, producing the same per-interval
CPI / power / AVF / IQ-AVF traces as the interval backend — the ground
truth used for mechanism studies (the DVM case study) and for validating
the interval model's first-order equations.

One private interval loop drives every detailed run: a single
:meth:`DetailedSimulator.run` is a one-member call into it, and
:func:`run_detailed_group` drives a group of jobs sharing a workload
through it, one synthesized trace per interval for the whole group.
Each interval the loop steps its cores with the compiled ``prange``
batch kernel (:mod:`repro.uarch.pipeline_kernel`) when
:func:`repro.engine.kernel.detailed_batch_enabled` holds (``REPRO_JIT``
on and numba importable), and otherwise with the interpreter,
:meth:`~repro.uarch.pipeline.OutOfOrderCore.run_interval`, per member.
Both steppers are bit-identical.

Detailed jobs cost seconds each (the engine's dominant expense), so
the loop supports **per-interval checkpointing**: every
``checkpoint_every`` intervals it atomically snapshots each core's full
microarchitectural state (caches, predictor, DVM controller, the
cross-interval dependence window) plus the traces measured so far into
an ``.npz`` file.  A re-run with the same arguments resumes from the
snapshot and produces a **bit-identical**
:class:`~repro.uarch.simulator.SimulationResult` — a killed sweep
restarts mid-benchmark instead of from scratch.  The engine keys
checkpoint files by job content hash under the cache directory (see
:func:`resolve_checkpoint_settings` and
:meth:`repro.engine.jobs.SimJob.run`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro import settings
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
#: stepper can resume it.  v1 files fail the meta digest (the
#: version participates) and are deleted, never mis-resumed.
CHECKPOINT_VERSION = "ckpt/v2"

#: Trace arrays a snapshot carries, in a fixed order.
_TRACE_FIELDS = ("cpi", "power", "avf", "iq_avf", "mispredicts", "throttled")


def resolve_checkpoint_settings(every: Optional[int] = None,
                                directory: Optional[str] = None,
                                ) -> Tuple[int, Optional[str]]:
    """Effective ``(checkpoint_every, checkpoint_dir)`` for one run: the
    values a :class:`~repro.engine.jobs.SimJob` carries, gaps filled
    from :mod:`repro.settings`."""
    if every is None:
        every = settings.get("checkpoint_every")
    if every <= 0:
        return 0, None
    return every, (directory or settings.get("checkpoint_dir"))


def _checkpoint_meta(workload: WorkloadModel, config: MachineConfig,
                     n_samples: int, instructions_per_sample: int,
                     dvm_controller: Optional[DVMController]) -> str:
    """Digest identifying which run a snapshot belongs to.

    A snapshot resumed under any different argument would silently
    produce wrong traces; the digest makes such mismatches detectable
    (stale files are ignored and deleted).  The workload and any DVM
    policy participate by *content*, not name, so editing a custom
    :class:`WorkloadModel` — or overriding ``dvm_policy`` — between
    runs invalidates old snapshots too.  Every run warms up; the
    literal ``True`` where a warmup flag once stood keeps existing
    ``ckpt/v2`` snapshots resumable.
    """
    from repro.engine.jobs import _canonical

    policy = _canonical(dvm_controller.policy) if dvm_controller else None
    parts = (CHECKPOINT_VERSION, _canonical(workload), n_samples,
             instructions_per_sample, True, config.key(), policy)
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
            instructions_per_sample: int = 1000,
            checkpoint_every: Optional[int] = None,
            checkpoint_path=None):
        """Simulate ``n_samples`` intervals and assemble the result.

        An extra unmeasured copy of the first interval is simulated
        first, standing in for the paper's fast-forward to the SimPoint
        region (caches and predictor warm).

        With ``checkpoint_every`` and ``checkpoint_path`` set, the full
        simulation state is snapshotted every ``checkpoint_every``
        measured intervals; a matching snapshot found at
        ``checkpoint_path`` resumes the run mid-benchmark, bit-identical
        to an uninterrupted one.  The snapshot is removed once the run
        completes.

        Returns a :class:`~repro.uarch.simulator.SimulationResult`
        (imported lazily to avoid a module cycle).
        """
        if isinstance(workload, str):
            workload = get_benchmark(workload)
        every, path = 0, None
        if (checkpoint_path is not None and checkpoint_every is not None
                and checkpoint_every > 0):
            every, path = checkpoint_every, Path(checkpoint_path)
        return _simulate(workload, n_samples, instructions_per_sample,
                         [(self.config, self.dvm_controller, every, path)])[0]


def run_detailed_group(jobs):
    """Run a group of detailed jobs sharing one workload signature as
    one interval stream: the group twin of ``[job.run() for job in
    jobs]``, bit-identical to it.

    Each interval is synthesized once for the whole group and stepped
    for every member (through the compiled batch kernel when
    :func:`repro.engine.kernel.detailed_batch_enabled` holds).
    Checkpoint resolution, resume and save use each job's own settings
    and content-hash path in the unchanged ``ckpt/v2`` format, so
    ragged groups (some members resuming, some fresh) are the normal
    case after a partial crash.  Results align with ``jobs``.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    lead = jobs[0]
    for job in jobs:
        if (job.backend != "detailed" or job.benchmark != lead.benchmark
                or job.n_samples != lead.n_samples
                or job.instructions_per_sample
                != lead.instructions_per_sample):
            raise SimulationError(
                "detailed group members must share benchmark, n_samples "
                "and instructions_per_sample"
            )
    workload = (lead.workload if lead.workload is not None
                else get_benchmark(lead.benchmark))
    runs = []
    for job in jobs:
        every, directory = resolve_checkpoint_settings(
            job.checkpoint_every, job.checkpoint_dir)
        path = Path(directory) / f"{job.key()}.ckpt.npz" if every else None
        runs.append((job.config, DetailedSimulator(job.config).dvm_controller,
                     every, path))
    return _simulate(workload, lead.n_samples, lead.instructions_per_sample,
                     runs)


def _simulate(workload: WorkloadModel, n_samples: int, ips: int,
              runs) -> List:
    """The detailed interval loop; one result per member of ``runs``.

    ``runs`` holds one ``(config, dvm_controller, checkpoint_every,
    checkpoint_path)`` per member (``checkpoint_every`` 0 and path
    ``None`` when not checkpointing).  A member with a matching
    snapshot resumes from it; every other member starts fresh after an
    unmeasured warmup interval (resumed cores warmed before their
    snapshot was taken).  Members sit out the intervals before their
    start through the ``active`` mask.  Power, AVF, mispredict and
    throttle post-processing calls the scalar model code per member.
    """
    from repro.engine.kernel import detailed_batch_enabled
    from repro.uarch.pipeline import OutOfOrderCore
    from repro.uarch.simulator import SimulationResult

    if n_samples < 1 or ips < 1:
        raise SimulationError(
            "n_samples and instructions_per_sample must be >= 1"
        )
    members = []
    for config, dvm, every, path in runs:
        core = meta = None
        start = 0
        if every:
            meta = _checkpoint_meta(workload, config, n_samples, ips, dvm)
            resumed = _load_checkpoint(path, meta, n_samples, config, dvm)
            if resumed is not None:
                core, traces, start = resumed
        if core is None:
            core = OutOfOrderCore(config, dvm=dvm)
            traces = [np.empty(n_samples) for _ in _TRACE_FIELDS]
        members.append({
            "config": config, "core": core, "traces": traces,
            "start": start, "every": every, "path": path, "meta": meta,
            "power": WattchModel(config), "avf": AVFModel(config),
        })

    cores = [member["core"] for member in members]
    batch = None
    if detailed_batch_enabled():
        # Imported here so interpreter-only processes never load it.
        from repro.uarch import pipeline_kernel

        if pipeline_kernel.compiled_batch_step():
            batch = pipeline_kernel.BatchKernelState(
                [core._enter_kernel_mode() for core in cores])

    def step(trace, active):
        """One interval for the active members: stats per member, or
        ``None`` where inactive."""
        if batch is not None:
            return pipeline_kernel.run_interval_on_batch(cores, batch, trace,
                                                         active)
        return [core.run_interval(trace) if on else None
                for core, on in zip(cores, active)]

    fresh = np.array([member["start"] == 0 for member in members],
                     dtype=np.uint8)
    if fresh.any():
        step(synthesize_interval(workload, 0, n_samples, ips, seed=1), fresh)

    for i in range(min(member["start"] for member in members), n_samples):
        trace = synthesize_interval(workload, i, n_samples, ips)
        active = np.array([member["start"] <= i for member in members],
                          dtype=np.uint8)
        for member, stats in zip(members, step(trace, active)):
            if stats is None:
                continue
            cpi, power, avf, iq_avf, mispredicts, throttled = member["traces"]
            cpi[i] = stats.cpi
            power[i] = member["power"].power_from_counters(stats.counters,
                                                           stats.cycles)
            structure_avf = member["avf"].avf_from_counters(
                stats.ace_bit_cycles, stats.cycles)
            avf[i] = structure_avf["processor"]
            iq_avf[i] = structure_avf["iq"]
            mispredicts[i] = stats.branch_mispredicts / stats.instructions
            throttled[i] = stats.dvm_throttled_cycles / stats.cycles
            if (member["every"] and (i + 1) % member["every"] == 0
                    and i + 1 < n_samples):
                _save_checkpoint(member["path"], member["meta"], i + 1,
                                 member["core"], member["traces"])

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
            config=member["config"],
            n_samples=n_samples,
            backend="detailed",
            traces={"cpi": cpi, "power": power, "avf": avf,
                    "iq_avf": iq_avf},
            components={"mispredict_rate": mispredicts,
                        "dvm_throttled_frac": throttled},
        ))
    return results
