"""Detailed groups: one interval stream, raggedness, routing.

:func:`repro.uarch.detailed.run_detailed_group` drives a group of
detailed jobs through the one detailed interval loop: each interval is
synthesized once and stepped for every member, by the compiled
``prange`` batch kernel (config-stacked state, numba only) or by the
interpreter.  This module pins, against the golden digests of
``test_detailed_kernel``:

* batch-of-B runs with ragged structure widths, member by member
  against per-job runs;
* thread-count invariance (``REPRO_JIT_THREADS`` ∈ {1, 2, max} —
  rows are independent, so the prange schedule must never show);
* ragged groups: members resuming from different checkpoints (or none)
  under one ``active`` mask, with mid-stream checkpoint saves whose
  per-core ``ckpt/v2`` files resume under a single job's run and vice
  versa (across steppers where numba is installed);
* the engine plumbing: group routing in ``repro.engine.kernel``,
  group-aware chunk carving/planning in ``repro.engine.executor``, and
  the compile-memo / thread-knob / cache-dir helpers in
  ``repro.uarch.jit``.

Checkpoint, warmup and ragged logic run on the interpreter, so they
hold on every CI leg.
"""

import dataclasses

import numpy as np
import pytest
from test_detailed_kernel import (GOLDEN_DIGESTS, _Crash, _digest, _job,
                                  crash_at, golden_cases, stepper)

from repro.engine.executor import ChunkTuner, batch_group_run, carve_chunk
from repro.engine.jobs import SimJob
from repro.errors import SimulationError
from repro.uarch import detailed, jit
from repro.uarch.params import baseline_config
from repro.uarch.pipeline import OutOfOrderCore

BATCH_ON = "repro.engine.kernel.detailed_batch_enabled"


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
    group-of-one, through the interpreter-driven group loop."""
    labels, jobs = _golden_jobs(bench)
    with stepper(False):
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
    with stepper(False):
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


def test_thread_count_invariance():
    """{1, 2, max} threads produce byte-identical streams (compiled
    prange in the numba leg; the knob is still exercised without it)."""
    labels, jobs = _golden_jobs("gcc")
    counts = [1, 2, jit.apply_jit_threads() or 1, None]
    try:
        with stepper(True):
            for count in counts:
                jit.set_jit_threads(count)
                results = detailed.run_detailed_group(jobs)
                for label, result in zip(labels, results):
                    assert _digest(result) == GOLDEN_DIGESTS[label], \
                        (label, count)
    finally:
        jit.set_jit_threads(None)


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
    with stepper(False):
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
    """A snapshot written by a group run (on the compiled kernel where
    numba is installed) is a plain per-core ``ckpt/v2`` file: a single
    job's interpreter run resumes it bit-identically."""
    label, bench, config = golden_cases()[4]  # gcc-dvm
    job = _job(bench, config, checkpoint_every=3,
               checkpoint_dir=str(tmp_path))
    crash_at(monkeypatch, 5)
    with stepper(True), pytest.raises(_Crash):
        detailed.run_detailed_group([job, _job(bench, baseline_config(),
                                               checkpoint_every=3,
                                               checkpoint_dir=str(tmp_path))])
    monkeypatch.undo()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
    with stepper(False):
        assert _digest(job.run()) == GOLDEN_DIGESTS[label]


def test_scalar_snapshot_resumes_under_batch(monkeypatch, tmp_path):
    """And the converse: a single job's interpreter snapshot resumes
    through a group run (on the compiled kernel where numba is
    installed)."""
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
    with stepper(False), pytest.raises(_Crash):
        job.run()
    monkeypatch.undo()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
    with stepper(True):
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
    with stepper(False):
        results = kernel.run_jobs(jobs)
    assert seen == [len(jobs)]
    for label, result in zip(labels, results):
        assert _digest(result) == GOLDEN_DIGESTS[label]


def test_run_group_per_job_when_batching_off(monkeypatch):
    """With grouping off (``REPRO_BATCH_KERNEL=0``) every detailed job
    is its own group and runs through ``job.run()``."""
    from repro.engine import kernel

    def explode(jobs):  # pragma: no cover - must not run
        raise AssertionError("group path taken while grouping is off")

    monkeypatch.setattr("repro.uarch.detailed.run_detailed_group", explode)
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
    labels, jobs = _golden_jobs("gcc")
    with stepper(False):
        for label, result in zip(labels, kernel.run_jobs(jobs)):
            assert _digest(result) == GOLDEN_DIGESTS[label]


def test_detailed_batch_enabled_requires_jit(monkeypatch):
    from repro.engine.kernel import detailed_batch_enabled

    try:
        jit.set_jit(True)
        assert detailed_batch_enabled() == jit.jit_available()
        jit.set_jit(False)
        assert not detailed_batch_enabled()
        monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
        jit.set_jit(True)
        assert not detailed_batch_enabled()
    finally:
        jit.set_jit(None)


# ----------------------------------------------------------------------
# Group-aware chunk carving and planning
# ----------------------------------------------------------------------
def _mixed_jobs():
    base = baseline_config()
    variants = [dataclasses.replace(base, iq_size=16 + 8 * i)
                for i in range(6)]
    interval = [SimJob("gcc", c, backend="interval") for c in variants[:2]]
    group_a = [_job("gcc", c) for c in variants]
    group_b = [_job("mcf", c) for c in variants[:2]]
    return interval + group_a + group_b  # runs: 2 interval | 6 gcc | 2 mcf


def test_carve_chunk_rounds_down_to_group_boundary(monkeypatch):
    monkeypatch.setattr(BATCH_ON, lambda: True)
    jobs = _mixed_jobs()
    # Detailed run starts at 2; a 4-job chunk from there would end at 6,
    # inside the gcc group — it must stop at the run start instead...
    assert carve_chunk(jobs, 2, 4) == 8  # ...no: run IS the chunk head
    # A chunk that holds the whole gcc run plus part of the mcf run
    # rounds down to the mcf boundary.
    assert carve_chunk(jobs, 2, 7) == 8
    assert carve_chunk(jobs, 2, 100) == 10  # both runs fit: keep all


def test_carve_chunk_extends_over_its_own_group(monkeypatch):
    monkeypatch.setattr(BATCH_ON, lambda: True)
    jobs = _mixed_jobs()
    # Chunk starting inside the gcc run with a boundary that shears it:
    # the run is the whole chunk, so it extends to the run's end.
    assert carve_chunk(jobs, 4, 2) == 8
    # Backend homogeneity still cuts first: interval jobs never join.
    assert carve_chunk(jobs, 0, 6) == 2


def test_carve_chunk_unchanged_when_batching_off(monkeypatch):
    monkeypatch.setattr(BATCH_ON, lambda: False)
    jobs = _mixed_jobs()
    assert carve_chunk(jobs, 2, 4) == 6  # shearing allowed, as before
    assert carve_chunk(jobs, 0, 6) == 2


def test_batch_group_run_lengths(monkeypatch):
    jobs = _mixed_jobs()
    monkeypatch.setattr(BATCH_ON, lambda: True)
    assert batch_group_run(jobs, 0) == 1   # interval job
    assert batch_group_run(jobs, 2) == 6   # gcc run
    assert batch_group_run(jobs, 4) == 4   # tail of the gcc run
    assert batch_group_run(jobs, 8) == 2   # mcf run
    monkeypatch.setattr(BATCH_ON, lambda: False)
    assert batch_group_run(jobs, 2) == 1


def test_chunk_tuner_plans_whole_groups():
    tuner = ChunkTuner(target_seconds=1.0)
    tuner.record("detailed", 0.01)
    flat = tuner.plan("detailed", 640, workers=4)
    grouped = tuner.plan("detailed", 640, workers=4, group_size=64)
    assert grouped % 64 == 0
    # Planning in group units keeps the same per-chunk time target:
    # 100 jobs' worth of work, rounded to one whole 64-job group.
    assert flat == 100 and grouped == 64
    # An untuned key probes a single group rather than shearing one.
    probe = ChunkTuner().plan("detailed", 640, workers=4, group_size=64)
    assert probe == 64
    # group_size=1 is exactly the historical plan.
    assert tuner.plan("detailed", 640, 4, group_size=1) == flat


# ----------------------------------------------------------------------
# jit helpers: thread knob, compile memo, cache dir
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
    def probe(x):
        return x + 1

    first = jit.compile_njit(probe)
    assert jit.compile_njit(probe) is first  # memo hit, no recompile
    parallel = jit.compile_njit(probe, parallel=True)
    assert jit.compile_njit(probe, parallel=True) is parallel
    if jit.jit_available():
        assert first is not parallel  # distinct flag keys
        assert first(1) == 2
    else:
        assert first is False and parallel is False


def test_compiled_batch_step_memoized():
    from repro.uarch import pipeline_kernel

    first = pipeline_kernel.compiled_batch_step()
    assert pipeline_kernel.compiled_batch_step() is first
    if not jit.jit_available():
        assert first is False
