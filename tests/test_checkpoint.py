"""Tests for detailed-backend checkpoint/resume.

Pins the PR-3 guarantee: an interrupted detailed run — whether by an
in-process error or a real ``SIGKILL`` — resumes from its latest
snapshot and produces a :class:`SimulationResult` bit-identical to an
uninterrupted run, then removes the snapshot on completion.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import SimJob
from repro.uarch import detailed
from repro.uarch.detailed import (
    DetailedSimulator,
    _checkpoint_meta,
    resolve_checkpoint_settings,
)
from repro.uarch.params import baseline_config
from repro.workloads.spec2000 import get_benchmark

BENCH = "gcc"
N_SAMPLES = 8
IPS = 60


class _Interrupted(RuntimeError):
    pass


def _clean_run(config, **kwargs):
    return DetailedSimulator(config).run(
        BENCH, n_samples=N_SAMPLES, instructions_per_sample=IPS, **kwargs)


def _assert_results_equal(a, b):
    assert a.benchmark == b.benchmark and a.backend == b.backend
    for domain in a.traces:
        assert np.array_equal(a.traces[domain], b.traces[domain])
    for name in a.components:
        assert np.array_equal(a.components[name], b.components[name])


def _count_intervals(monkeypatch, die_after=None):
    """Count the intervals the detailed loop simulates, warmup included
    (and optionally fail before one)."""
    calls = {"n": 0}
    original = detailed.synthesize_interval

    def counting(*args, **kwargs):
        calls["n"] += 1
        if die_after is not None and calls["n"] > die_after:
            raise _Interrupted()
        return original(*args, **kwargs)

    monkeypatch.setattr(detailed, "synthesize_interval", counting)
    return calls


class TestCheckpointResume:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path,
                                                   monkeypatch):
        config = baseline_config()
        path = tmp_path / "job.ckpt.npz"
        clean = _clean_run(config)

        # Interrupt after warmup + 6 measured intervals; the last
        # snapshot (checkpoint_every=3) covers intervals 0..5.
        calls = _count_intervals(monkeypatch, die_after=7)
        with pytest.raises(_Interrupted):
            _clean_run(config, checkpoint_every=3, checkpoint_path=path)
        monkeypatch.undo()
        assert path.exists()

        calls = _count_intervals(monkeypatch)
        resumed = _clean_run(config, checkpoint_every=3,
                             checkpoint_path=path)
        # Resume really skipped the first six intervals (and warmup).
        assert calls["n"] == N_SAMPLES - 6
        _assert_results_equal(clean, resumed)
        assert not path.exists()  # snapshot removed on completion

    def test_completed_run_leaves_no_checkpoint(self, tmp_path):
        config = baseline_config()
        path = tmp_path / "job.ckpt.npz"
        result = _clean_run(config, checkpoint_every=2,
                            checkpoint_path=path)
        _assert_results_equal(_clean_run(config), result)
        assert not path.exists()

    def test_stale_checkpoint_is_ignored_and_deleted(self, tmp_path,
                                                     monkeypatch):
        config = baseline_config()
        path = tmp_path / "job.ckpt.npz"
        _count_intervals(monkeypatch, die_after=5)
        with pytest.raises(_Interrupted):
            _clean_run(config, checkpoint_every=2, checkpoint_path=path)
        monkeypatch.undo()
        assert path.exists()
        # Different instruction budget: the snapshot must not resume.
        other = DetailedSimulator(config).run(
            BENCH, n_samples=N_SAMPLES, instructions_per_sample=IPS + 11,
            checkpoint_every=2, checkpoint_path=path)
        reference = DetailedSimulator(config).run(
            BENCH, n_samples=N_SAMPLES, instructions_per_sample=IPS + 11)
        _assert_results_equal(reference, other)
        assert not path.exists()

    def test_corrupt_checkpoint_is_a_fresh_start(self, tmp_path):
        config = baseline_config()
        path = tmp_path / "job.ckpt.npz"
        path.write_bytes(b"not an npz at all")
        result = _clean_run(config, checkpoint_every=3,
                            checkpoint_path=path)
        _assert_results_equal(_clean_run(config), result)

    def test_dvm_state_survives_resume(self, tmp_path, monkeypatch):
        config = baseline_config().with_dvm(True, 0.3)
        path = tmp_path / "dvm.ckpt.npz"
        clean = _clean_run(config)
        _count_intervals(monkeypatch, die_after=6)
        with pytest.raises(_Interrupted):
            _clean_run(config, checkpoint_every=2, checkpoint_path=path)
        monkeypatch.undo()
        resumed = _clean_run(config, checkpoint_every=2,
                             checkpoint_path=path)
        _assert_results_equal(clean, resumed)


class TestEnvironmentPlumbing:
    def test_settings_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        assert resolve_checkpoint_settings() == (0, None)

    def test_settings_directory_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "8")
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_checkpoint_settings() == (8, ".repro-checkpoints")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/rc")
        every, directory = resolve_checkpoint_settings()
        assert every == 8 and directory == str(Path("/tmp/rc") / "checkpoints")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", "/tmp/ck")
        assert resolve_checkpoint_settings() == (8, "/tmp/ck")
        # Explicit arguments (a job's own fields) win over the environment.
        assert resolve_checkpoint_settings(2, "/tmp/job") == (2, "/tmp/job")
        assert resolve_checkpoint_settings(0, "/tmp/job") == (0, None)

    def test_invalid_every_rejected(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_CHECKPOINT_EVERY"):
            resolve_checkpoint_settings()

    def test_job_run_writes_keyed_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "3")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        job = SimJob(BENCH, baseline_config(), backend="detailed",
                     n_samples=N_SAMPLES, instructions_per_sample=IPS)
        # Patch the loop by hand (monkeypatch.undo would also revert the
        # environment variables set above).
        original = detailed.synthesize_interval
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 7:
                raise _Interrupted()
            return original(*args, **kwargs)

        detailed.synthesize_interval = dying
        try:
            with pytest.raises(_Interrupted):
                job.run()
        finally:
            detailed.synthesize_interval = original
        assert (tmp_path / f"{job.key()}.ckpt.npz").exists()
        resumed = job.run()
        assert not (tmp_path / f"{job.key()}.ckpt.npz").exists()
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY")
        _assert_results_equal(job.run(), resumed)


class TestSigkillResume:
    def test_sigkilled_job_resumes_to_identical_result(self, tmp_path):
        """A real SIGKILL mid-sweep, then a resume in a fresh process."""
        src_root = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src_root) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        env["REPRO_CHECKPOINT_EVERY"] = "2"
        env["REPRO_CHECKPOINT_DIR"] = str(tmp_path)
        out_npz = tmp_path / "resumed.npz"
        common = f"""
import numpy as np
from repro.engine import SimJob
from repro.uarch.params import baseline_config
job = SimJob({BENCH!r}, baseline_config(), backend="detailed",
             n_samples={N_SAMPLES}, instructions_per_sample={IPS})
"""
        killed = common + """
import os, signal
import repro.uarch.detailed as detailed
original = detailed.synthesize_interval
calls = [0]
def dying(*args, **kwargs):
    calls[0] += 1
    if calls[0] > 6:  # warmup + 5 measured intervals
        os.kill(os.getpid(), signal.SIGKILL)
    return original(*args, **kwargs)
detailed.synthesize_interval = dying
job.run()
"""
        resume = common + f"""
result = job.run()
np.savez({str(out_npz)!r}, **result.traces, **result.components)
"""
        first = subprocess.run([sys.executable, "-c", killed], env=env,
                               capture_output=True)
        assert first.returncode == -signal.SIGKILL
        job = SimJob(BENCH, baseline_config(), backend="detailed",
                     n_samples=N_SAMPLES, instructions_per_sample=IPS)
        ckpt = tmp_path / f"{job.key()}.ckpt.npz"
        assert ckpt.exists(), first.stderr.decode()

        second = subprocess.run([sys.executable, "-c", resume], env=env,
                                capture_output=True)
        assert second.returncode == 0, second.stderr.decode()
        assert not ckpt.exists()

        clean = job.run()  # this process has no checkpoint env set
        with np.load(out_npz) as resumed:
            for domain, arr in clean.traces.items():
                assert np.array_equal(resumed[domain], arr)
            for name, arr in clean.components.items():
                assert np.array_equal(resumed[name], arr)


class TestWorkloadContentMeta:
    def test_edited_workload_invalidates_snapshot(self, tmp_path,
                                                  monkeypatch):
        """A snapshot must not resume into a *different* workload that
        merely shares the name (the meta digests workload content)."""
        import dataclasses

        from repro.workloads.spec2000 import get_benchmark

        config = baseline_config()
        path = tmp_path / "named.ckpt.npz"
        original = get_benchmark("gcc")
        edited = dataclasses.replace(get_benchmark("mcf"), name="gcc")

        _count_intervals(monkeypatch, die_after=5)
        with pytest.raises(_Interrupted):
            DetailedSimulator(config).run(
                original, n_samples=N_SAMPLES, instructions_per_sample=IPS,
                checkpoint_every=2, checkpoint_path=path)
        monkeypatch.undo()
        assert path.exists()

        resumed = DetailedSimulator(config).run(
            edited, n_samples=N_SAMPLES, instructions_per_sample=IPS,
            checkpoint_every=2, checkpoint_path=path)
        clean = DetailedSimulator(config).run(
            edited, n_samples=N_SAMPLES, instructions_per_sample=IPS)
        _assert_results_equal(clean, resumed)


class TestDvmPolicyMeta:
    def test_changed_dvm_policy_invalidates_snapshot(self, tmp_path,
                                                     monkeypatch):
        """An explicit dvm_policy override participates in the digest."""
        from repro.reliability.dvm import DVMPolicy

        config = baseline_config().with_dvm(True, 0.3)
        path = tmp_path / "policy.ckpt.npz"
        loose = DVMPolicy(threshold=0.9)

        _count_intervals(monkeypatch, die_after=5)
        with pytest.raises(_Interrupted):
            DetailedSimulator(config, dvm_policy=DVMPolicy(threshold=0.3)).run(
                BENCH, n_samples=N_SAMPLES, instructions_per_sample=IPS,
                checkpoint_every=2, checkpoint_path=path)
        monkeypatch.undo()
        assert path.exists()

        resumed = DetailedSimulator(config, dvm_policy=loose).run(
            BENCH, n_samples=N_SAMPLES, instructions_per_sample=IPS,
            checkpoint_every=2, checkpoint_path=path)
        clean = DetailedSimulator(config, dvm_policy=loose).run(
            BENCH, n_samples=N_SAMPLES, instructions_per_sample=IPS)
        _assert_results_equal(clean, resumed)


class TestMetaDigest:
    def test_meta_digest_pinned(self):
        """Every run warms up, and the snapshot meta still digests the
        literal ``True`` that a warmup flag once contributed, so
        ``ckpt/v2`` snapshots written before the flag went still
        resume."""
        config = baseline_config().with_dvm(True, 0.3)
        meta = _checkpoint_meta(get_benchmark(BENCH), config, N_SAMPLES,
                                IPS, DetailedSimulator(config).dvm_controller)
        assert meta == ("d8b2cadccf3d748f4a86a7b1d132c917"
                        "a66c46dedf28c67c7c05177b33cb8521")
