"""Detailed groups: one interval stream, raggedness, routing.

:func:`repro.uarch.detailed.run_detailed_group` drives a group of
detailed jobs through the one detailed interval loop: each interval is
synthesized once and stepped by the interpreter for every member.  This
module pins, against the golden digests of ``test_detailed_kernel``:

* groups with ragged structure widths, member by member against
  per-job runs;
* ragged groups: members resuming from different checkpoints (or none),
  with mid-stream checkpoint saves whose per-core ``ckpt/v2`` files
  resume under a single job's run and vice versa;
* the engine plumbing: group routing in ``repro.engine.kernel``,
  backend-homogeneous chunk carving and planning in
  ``repro.engine.executor``, and the compile-memo / cache-dir helpers
  in ``repro.uarch.jit``.
"""

import dataclasses

import numpy as np
import pytest
from executor_utils import chunk_plan
from test_detailed_kernel import (GOLDEN_DIGESTS, _Crash, _digest, _job,
                                  crash_at, golden_cases)

from repro.engine.executor import (ChunkTuner, ParallelExecutor,
                                   batch_group_run, carve_chunk)
from repro.engine.jobs import SimJob
from repro.errors import SimulationError
from repro.uarch import detailed, jit
from repro.uarch.params import baseline_config
from repro.uarch.pipeline import OutOfOrderCore


def _golden_jobs(bench):
    """All golden cases for one benchmark, as a runnable group."""
    cases = [c for c in golden_cases() if c[1] == bench]
    return [c[0] for c in cases], [_job(bench, c[2]) for c in cases]


# ----------------------------------------------------------------------
# Golden digests through a group
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", ["gcc", "mcf", "swim"])
def test_batched_group_matches_goldens(bench):
    """Heterogeneous groups (DVM members included) and the swim
    group-of-one, through the group loop."""
    labels, jobs = _golden_jobs(bench)
    results = detailed.run_detailed_group(jobs)
    for label, result in zip(labels, results):
        assert _digest(result) == GOLDEN_DIGESTS[label]


def test_batch_of_b_slices_per_core():
    """A widened group (ragged widths: iq/rob/lsq all differ) yields the
    golden stream for the member that has one, and every member matches
    its own per-job run bit-for-bit."""
    base = baseline_config()
    configs = [base,
               dataclasses.replace(base, iq_size=16),
               dataclasses.replace(base, iq_size=24, rob_size=128),
               dataclasses.replace(base, lsq_size=24),
               base.with_dvm(True, 0.3)]
    jobs = [_job("gcc", c) for c in configs]
    results = detailed.run_detailed_group(jobs)
    singles = [job.run() for job in jobs]
    assert _digest(results[0]) == GOLDEN_DIGESTS["gcc-baseline"]
    for result, scalar in zip(results, singles):
        for name in scalar.traces:
            assert np.array_equal(result.traces[name],
                                  scalar.traces[name]), name
        for name in scalar.components:
            assert np.array_equal(result.components[name],
                                  scalar.components[name]), name


def test_group_members_must_share_workload():
    assert detailed.run_detailed_group([]) == []
    with pytest.raises(SimulationError, match="must share"):
        detailed.run_detailed_group(
            [_job("gcc", baseline_config()), _job("mcf", baseline_config())])


# ----------------------------------------------------------------------
# Ragged checkpoint resume through a group
# ----------------------------------------------------------------------
def test_ragged_batched_checkpoint_resume(monkeypatch, tmp_path):
    """Crash a group run mid-stream, orphan one member's snapshot, and
    resume: a ragged group (two members resuming, one fresh) must match
    the uncheckpointed per-job reference bit-for-bit and clean up."""
    base = baseline_config()
    configs = [base.with_dvm(True, 0.3),
               dataclasses.replace(base, iq_size=16),
               dataclasses.replace(base, rob_size=128)]
    jobs = [_job("gcc", c, checkpoint_every=3, checkpoint_dir=str(tmp_path))
            for c in configs]
    reference = [dataclasses.replace(job, checkpoint_every=0).run()
                 for job in jobs]

    crash_at(monkeypatch, 5)
    with pytest.raises(_Crash):
        detailed.run_detailed_group(jobs)
    monkeypatch.undo()

    snapshots = sorted(tmp_path.glob("*.ckpt.npz"))
    assert len(snapshots) == len(jobs)  # saved mid-stream at interval 3
    (tmp_path / f"{jobs[2].key()}.ckpt.npz").unlink()  # force one fresh

    resumed = detailed.run_detailed_group(jobs)
    for result, scalar in zip(resumed, reference):
        assert _digest(result) == _digest(scalar)
    assert not list(tmp_path.glob("*.ckpt.npz"))  # completed: all removed


def test_batched_snapshot_resumes_under_scalar_engine(monkeypatch, tmp_path):
    """A snapshot written by a group run is a plain per-core
    ``ckpt/v2`` file: a single job's run resumes it bit-identically."""
    label, bench, config = golden_cases()[4]  # gcc-dvm
    job = _job(bench, config, checkpoint_every=3,
               checkpoint_dir=str(tmp_path))
    crash_at(monkeypatch, 5)
    with pytest.raises(_Crash):
        detailed.run_detailed_group([job, _job(bench, baseline_config(),
                                               checkpoint_every=3,
                                               checkpoint_dir=str(tmp_path))])
    monkeypatch.undo()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
    assert _digest(job.run()) == GOLDEN_DIGESTS[label]


def test_scalar_snapshot_resumes_under_batch(monkeypatch, tmp_path):
    """And the converse: a single job's snapshot resumes through a
    group run."""
    label, bench, config = golden_cases()[0]
    job = _job(bench, config, checkpoint_every=3,
               checkpoint_dir=str(tmp_path))
    calls = [0]
    original = OutOfOrderCore.run_interval

    def wrapper(self, trace, _original=original):
        calls[0] += 1
        if calls[0] > 5:
            raise _Crash()
        return _original(self, trace)

    monkeypatch.setattr(OutOfOrderCore, "run_interval", wrapper)
    with pytest.raises(_Crash):
        job.run()
    monkeypatch.undo()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
    result, = detailed.run_detailed_group([job])
    assert _digest(result) == GOLDEN_DIGESTS[label]


# ----------------------------------------------------------------------
# Engine routing
# ----------------------------------------------------------------------
def test_run_group_routes_groups_through_batch(monkeypatch):
    from repro.engine import kernel

    seen = []
    real = detailed.run_detailed_group

    def spy(jobs):
        seen.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr("repro.uarch.detailed.run_detailed_group", spy)
    labels, jobs = _golden_jobs("gcc")
    results = kernel.run_jobs(jobs)
    assert seen == [len(jobs)]
    for label, result in zip(labels, results):
        assert _digest(result) == GOLDEN_DIGESTS[label]


def test_run_group_per_job_when_batching_off(monkeypatch):
    """With grouping off (``REPRO_BATCH_KERNEL=0``) every detailed job
    is its own group: a one-member ``run_detailed_group``."""
    from repro.engine import kernel

    seen = []
    real = detailed.run_detailed_group

    def spy(jobs):
        seen.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr("repro.uarch.detailed.run_detailed_group", spy)
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
    labels, jobs = _golden_jobs("gcc")
    for label, result in zip(labels, kernel.run_jobs(jobs)):
        assert _digest(result) == GOLDEN_DIGESTS[label]
    assert seen == [1] * len(jobs)


# ----------------------------------------------------------------------
# Backend-homogeneous chunk carving and planning
# ----------------------------------------------------------------------
def _mixed_jobs():
    base = baseline_config()
    variants = [dataclasses.replace(base, iq_size=16 + 8 * i)
                for i in range(6)]
    interval = [SimJob("gcc", c, backend="interval") for c in variants[:2]]
    group_a = [_job("gcc", c) for c in variants]
    group_b = [_job("mcf", c) for c in variants[:2]]
    return interval + group_a + group_b  # runs: 2 interval | 6 gcc | 2 mcf


def test_carve_chunk_unchanged_when_batching_off(monkeypatch):
    """A chunk may split a detailed group, with grouping on or off;
    only a change of backend cuts it short."""
    jobs = _mixed_jobs()
    for batching in ("1", "0"):
        monkeypatch.setenv("REPRO_BATCH_KERNEL", batching)
        assert carve_chunk(jobs, 2, 4) == 6  # shears the gcc group
        assert carve_chunk(jobs, 4, 2) == 6
        assert carve_chunk(jobs, 2, 7) == 9  # and crosses into the mcf one
        assert carve_chunk(jobs, 0, 6) == 2  # interval jobs never join


def test_batch_group_run_lengths():
    jobs = _mixed_jobs()
    assert [batch_group_run(jobs, i) for i in range(len(jobs))] == \
        [1] * len(jobs)


def test_detailed_chunks_spread_groups_over_workers():
    """A tuned plan is sized by per-job cost alone, and an untimed
    detailed sweep's probe wave gives every worker a share of the first
    group rather than the whole group to one worker."""
    tuner = ChunkTuner(target_seconds=1.0)
    tuner.record("detailed", 0.01)
    assert tuner.plan("detailed", 640, workers=4) == 100
    jobs = [SimJob(bench, baseline_config(), backend="detailed", n_samples=8)
            for bench in ("gcc", "mcf") for _ in range(64)]
    plan = chunk_plan(ParallelExecutor(max_workers=4, shm=False), jobs)
    assert plan[:4] == [(0, 4), (4, 8), (8, 12), (12, 16)]
    assert plan[-1][1] == len(jobs)


# ----------------------------------------------------------------------
# jit helpers: compile memo, cache dir
# ----------------------------------------------------------------------
def test_jit_cache_dir_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_JIT_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert jit.jit_cache_dir() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/rc")
    assert jit.jit_cache_dir() == "/tmp/rc/numba-cache"
    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", "/tmp/explicit")
    assert jit.jit_cache_dir() == "/tmp/explicit"


def test_compile_njit_memoizes_per_flags():
    """One compilation per function, whatever the JIT setting: toggling
    it changes dispatch only."""
    def probe(x):
        return x + 1

    first = jit.compile_njit(probe)
    try:
        for enabled in (True, False, None):
            jit.set_jit(enabled)
            assert jit.compile_njit(probe) is first  # memo hit
    finally:
        jit.set_jit(None)
    if jit.jit_available():
        assert first(1) == 2
    else:
        assert first is False
