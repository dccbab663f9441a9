"""Engine lifecycle regression tests (PR-4 bugfix sweep).

Pins the process-global-state and teardown guarantees multi-process
execution depends on:

* abandoning a streaming batch leaks no ``/dev/shm`` segment and
  raises no ``ResourceWarning`` at interpreter exit (pool shutdown and
  arena unlink run exactly once, via finalizers rather than ``__del__``
  ordering luck);
* a worker death mid-chunk surfaces as one structured
  :class:`SimulationError` on the affected jobs while cache-resolved
  siblings in the same batch stay intact;
* byte-cap eviction drops whole segments and is reproducible when
  segments share an mtime (coarse filesystem timestamps): ties break on
  segment filename;
* detailed-backend checkpoint settings travel inside jobs/engine
  config, never via ``os.environ`` mutation.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dse.space import paper_design_space
from repro.engine import (
    ExecutionEngine,
    ParallelExecutor,
    ResultCache,
    SimJob,
)
from repro.engine.cache import SUFFIX
from repro.errors import SimulationError

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


@pytest.fixture(scope="module")
def configs():
    return paper_design_space().sample_random(6, split="train", seed=41)


class _KillWorkerJob(SimJob):
    """A job that kills its worker process mid-chunk (crash testing)."""

    def run(self):
        os._exit(1)


class TestDeterministicTeardown:
    def test_abandoned_batch_leaks_nothing_at_interpreter_exit(self,
                                                               tmp_path):
        """Partially drain a streaming batch, then just exit.

        The subprocess runs under ``-W error::ResourceWarning``; any
        leaked mmap/file would fail it, a resource_tracker complaint
        would land on stderr, and the segment name must be gone from
        the system afterwards.
        """
        src_root = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src_root) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        code = """
from repro.dse.space import paper_design_space
from repro.engine import ExecutionEngine, ParallelExecutor, SimJob

configs = paper_design_space().sample_random(4, split="train", seed=3)
ex = ParallelExecutor(max_workers=2, shm=True)
engine = ExecutionEngine(ex)
handle = engine.submit([SimJob("gcc", c, n_samples=32) for c in configs])
handle.result(0)   # partially drained ...
print(ex.last_arena.name if ex.last_arena is not None else "pickle")
# ... then abandoned: no close(), no further drain, just exit.
"""
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr  # resource_tracker
        name = proc.stdout.strip()
        if name != "pickle":
            import multiprocessing.shared_memory as sm

            with pytest.raises(FileNotFoundError):
                sm.SharedMemory(name=name)

    def test_arena_unlink_runs_exactly_once(self, configs):
        jobs = [SimJob("gcc", c, n_samples=32) for c in configs[:3]]
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            ex.run_batch(jobs)
            arena = ex.last_arena
            assert arena is not None and arena.unlinked
            before = arena._shm  # segment object survives for views
            arena.unlink()  # idempotent: the finalizer already fired
            arena.unlink()
            assert arena._shm is before and arena.unlinked

    def test_close_is_idempotent_and_detaches_finalizer(self, configs):
        ex = ParallelExecutor(max_workers=2)
        ex.run_batch([SimJob("gcc", configs[0], n_samples=16)] * 2)
        # Single job short-circuits; force a pool with two chunks.
        ex.run_batch([SimJob("gcc", c, n_samples=16) for c in configs[:4]])
        assert ex._pool is not None and ex._pool_finalizer.alive
        finalizer = ex._pool_finalizer
        ex.close()
        assert ex._pool is None and ex._pool_finalizer is None
        assert not finalizer.alive  # detached: cannot fire later
        ex.close()  # idempotent


class TestFailurePropagation:
    def test_dead_worker_raises_once_cached_siblings_intact(self, tmp_path,
                                                            configs):
        cache = ResultCache(tmp_path)
        good = [SimJob("gcc", c, n_samples=32) for c in configs[:2]]
        expected = []
        for job in good:
            result = job.run()
            cache.put(job.key(), result)
            expected.append(result)
        # Two killers: the batch has >= 2 executor misses, so it takes
        # the pool path (a single miss would run in-process and
        # os._exit the test itself).
        killers = [_KillWorkerJob("gcc", configs[2], n_samples=32),
                   _KillWorkerJob("gcc", configs[3], n_samples=32)]
        with ParallelExecutor(max_workers=2, chunk_size=1) as ex:
            engine = ExecutionEngine(ex, cache=cache)
            handle = engine.submit(good + killers)
            # Cache hits resolved at submit: available before (and
            # after) the worker death, in any access order.
            assert np.array_equal(handle.result(0).trace("cpi"),
                                  expected[0].trace("cpi"))
            with pytest.raises(SimulationError, match="worker process died"):
                handle.result(2)
            # The failure is terminal and repeatable for the dead job...
            with pytest.raises(SimulationError, match="worker process died"):
                handle.result(2)
            # ... and for its sibling miss, without a fresh pool trip.
            with pytest.raises(SimulationError, match="worker process died"):
                handle.result(3)
            # ... and as_completed surfaces it too, instead of hanging.
            with pytest.raises(SimulationError):
                list(handle.as_completed())
            # Cached siblings remain intact throughout.
            assert np.array_equal(handle.result(1).trace("cpi"),
                                  expected[1].trace("cpi"))
            assert handle.done == 2

    def test_run_batch_reports_structured_error(self, configs):
        jobs = [SimJob("gcc", configs[0], n_samples=16),
                _KillWorkerJob("gcc", configs[1], n_samples=16)]
        with ParallelExecutor(max_workers=2, chunk_size=1) as ex:
            with pytest.raises(SimulationError, match="worker process died"):
                ex.run_batch(jobs)


class TestDeterministicEviction:
    def _fill(self, cache, batches):
        """Commit each batch as one segment; segment name -> size."""
        engine = ExecutionEngine(cache=cache)
        sizes = {}
        for batch in batches:
            engine.run(batch)
            [path] = [p for p in Path(cache.cache_dir).glob(f"*{SUFFIX}")
                      if p.name not in sizes]
            sizes[path.name] = path.stat().st_size
        return sizes

    def _batches(self, benchmark, configs, n):
        return [[SimJob(benchmark, c, n_samples=32) for c in pair]
                for pair in zip(configs[:2 * n:2], configs[1:2 * n:2])]

    def _tie(self, cache, sizes, seconds):
        """Give every segment one mtime, on disk and in the index."""
        for name in sizes:
            os.utime(Path(cache.cache_dir) / name, (seconds, seconds))
            cache._segments[name] = cache._segments[name]._replace(
                mtime_ns=seconds * 10**9)

    def test_same_mtime_eviction_is_name_ordered(self, tmp_path, configs):
        batches = self._batches("gcc", configs, 3)
        writer = ResultCache(tmp_path, memory_items=0)
        sizes = self._fill(writer, batches)
        # Coarse-timestamp filesystem: every segment shares one mtime.
        self._tie(writer, sizes, 1_700_000_000)
        ordered = sorted(sizes)  # the deterministic eviction order
        total = sum(sizes.values())
        target = total - sizes[ordered[0]] - sizes[ordered[1]] + 1
        fresh = ResultCache(tmp_path, memory_items=0)  # index via rescan
        removed, freed = fresh.gc(max_bytes=target)
        assert removed == 2
        assert freed == sizes[ordered[0]] + sizes[ordered[1]]
        survivors = {p.name for p in Path(tmp_path).glob(f"*{SUFFIX}")}
        assert survivors == {ordered[2]}
        # Whole segments go: every record of an evicted one misses.
        hits = [fresh.get(job.key()) is not None
                for batch in batches for job in batch]
        assert sum(hits) == 2 and len(fresh) == 2

    def test_incremental_index_matches_rescan_order(self, tmp_path,
                                                    configs):
        """Eviction picks the same victim whether the index was grown
        by commits or rebuilt by a scan, even with tied mtimes."""
        cache = ResultCache(tmp_path, memory_items=0)
        sizes = self._fill(cache, self._batches("swim", configs, 3))
        self._tie(cache, sizes, 1_700_000_000)
        ordered = sorted(sizes)
        rescanned = ResultCache(tmp_path, memory_items=0)
        rescanned._index()
        assert sorted(rescanned._segments, key=rescanned._age) == ordered
        cache._enforce_cap(sum(sizes.values()) - 1)  # evict exactly one
        incremental_victim = set(sizes) - {p.name for p
                                           in Path(tmp_path).glob(f"*{SUFFIX}")}
        assert incremental_victim == {ordered[0]}

    def test_overwrite_refreshes_recency(self, tmp_path, configs):
        from repro.engine.cache import PendingSegment

        batches = self._batches("vpr", configs, 2)
        cache = ResultCache(tmp_path, memory_items=0)
        sizes = self._fill(cache, batches)
        self._tie(cache, sizes, 1_600_000_000)
        # Rewrite the first batch: the same key set names the same
        # segment, which gets a fresh mtime.
        pending = PendingSegment()
        for job in batches[0]:
            cache.put(job.key(), job.run(), pending)
        cache.commit(pending)
        assert {p.name for p in Path(tmp_path).glob(f"*{SUFFIX}")} \
            == set(sizes)
        cache._enforce_cap(sum(sizes.values()) - 1)
        [kept] = [p.name for p in Path(tmp_path).glob(f"*{SUFFIX}")]
        assert all(cache.get(job.key()) is not None for job in batches[0])
        assert all(cache.get(job.key()) is None for job in batches[1])
        assert len(sizes) == 2 and kept in sizes


class TestCheckpointThreading:
    BENCH, N, IPS = "gcc", 8, 50

    def test_job_carries_checkpoint_settings(self, tmp_path, monkeypatch):
        from repro.uarch import detailed
        from repro.uarch.params import baseline_config

        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        job = SimJob(self.BENCH, baseline_config(), backend="detailed",
                     n_samples=self.N, instructions_per_sample=self.IPS,
                     checkpoint_every=3, checkpoint_dir=str(tmp_path))

        original = detailed.synthesize_interval
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 6:
                raise RuntimeError("interrupted")
            return original(*args, **kwargs)

        monkeypatch.setattr(detailed, "synthesize_interval", dying)
        with pytest.raises(RuntimeError):
            job.run()
        monkeypatch.setattr(detailed, "synthesize_interval", original)
        # With no environment at all, the snapshot landed in the job's
        # own directory and resuming is bit-identical to a clean run.
        ckpt = tmp_path / f"{job.key()}.ckpt.npz"
        assert ckpt.exists()
        resumed = job.run()
        assert not ckpt.exists()
        import dataclasses

        clean = dataclasses.replace(job, checkpoint_every=0,
                                    checkpoint_dir=None).run()
        for domain in clean.traces:
            assert np.array_equal(clean.traces[domain],
                                  resumed.traces[domain])

    def test_checkpoint_fields_do_not_fragment_cache_key(self):
        from repro.uarch.params import baseline_config

        plain = SimJob(self.BENCH, baseline_config(), backend="detailed",
                       n_samples=self.N, instructions_per_sample=self.IPS)
        threaded = SimJob(self.BENCH, baseline_config(), backend="detailed",
                          n_samples=self.N,
                          instructions_per_sample=self.IPS,
                          checkpoint_every=5, checkpoint_dir="/tmp/ck")
        assert plain.key() == threaded.key()

    def test_engine_stamps_only_unset_detailed_jobs(self, tmp_path):
        from repro.uarch.params import baseline_config

        engine = ExecutionEngine(checkpoint_every=4,
                                 checkpoint_dir=tmp_path)
        interval = SimJob(self.BENCH, baseline_config(), n_samples=16)
        assert engine._configure_job(interval) is interval
        detailed = SimJob(self.BENCH, baseline_config(), backend="detailed",
                          n_samples=self.N,
                          instructions_per_sample=self.IPS)
        stamped = engine._configure_job(detailed)
        assert stamped.checkpoint_every == 4
        assert stamped.checkpoint_dir == str(tmp_path)
        own = SimJob(self.BENCH, baseline_config(), backend="detailed",
                     n_samples=self.N, instructions_per_sample=self.IPS,
                     checkpoint_every=9, checkpoint_dir="/elsewhere")
        restamped = engine._configure_job(own)
        assert restamped.checkpoint_every == 9
        assert restamped.checkpoint_dir == "/elsewhere"
