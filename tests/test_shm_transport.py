"""Tests for the zero-copy shared-memory result transport.

Pins the PR-3 tentpole guarantees: shared-memory and pickle transports
are bit-identical across backends, arenas are unlinked on batch
completion / worker crash / early consumer exit while delivered views
stay valid, dataset assembly is zero-copy for contiguous batches, and
the chunk tuner sizes interval and detailed chunks differently.
"""

import multiprocessing.shared_memory as _sm

import numpy as np
import pytest

from repro.dse.runner import SweepRunner
from repro.dse.space import paper_design_space
from repro.engine import (
    ExecutionEngine,
    ParallelExecutor,
    ShmArena,
    SimJob,
    create_engine,
    stack_rows,
)
from repro.engine.executor import PROBE_CHUNK_SIZE
from repro.engine.shm import MAX_COMPONENT_SLOTS
from repro.uarch.params import baseline_config
from repro.uarch.simulator import SimulationResult

from executor_utils import KillWorkerJob, chunk_plan, ordered


@pytest.fixture(scope="module")
def configs():
    return paper_design_space().sample_random(6, split="train", seed=21)


def _assert_results_equal(a, b):
    assert a.benchmark == b.benchmark
    assert a.config == b.config
    assert a.backend == b.backend
    assert a.n_samples == b.n_samples
    assert sorted(a.traces) == sorted(b.traces)
    for domain in a.traces:
        assert np.array_equal(a.traces[domain], b.traces[domain])
    assert list(a.components) == list(b.components)
    for name in a.components:
        assert np.array_equal(a.components[name], b.components[name])


class TestTransportParity:
    def test_interval_shm_matches_pickle_and_local(self, configs):
        jobs = [SimJob("gcc", c, n_samples=64) for c in configs]
        local = ordered(ParallelExecutor(max_workers=1), jobs)
        with ParallelExecutor(max_workers=2, shm=True) as shm_ex:
            via_shm = ordered(shm_ex, jobs)
            assert shm_ex.last_arena is not None  # transport engaged
        with ParallelExecutor(max_workers=2, shm=False) as pickle_ex:
            via_pickle = ordered(pickle_ex, jobs)
            assert pickle_ex.last_arena is None
        for a, b, c in zip(local, via_shm, via_pickle):
            _assert_results_equal(a, b)
            _assert_results_equal(a, c)

    def test_detailed_shm_matches_pickle_and_local(self, configs):
        jobs = [SimJob("mcf", c, backend="detailed", n_samples=4,
                       instructions_per_sample=60) for c in configs[:3]]
        local = ordered(ParallelExecutor(max_workers=1), jobs)
        with ParallelExecutor(max_workers=2, shm=True) as shm_ex:
            via_shm = ordered(shm_ex, jobs)
        with ParallelExecutor(max_workers=2, shm=False) as pickle_ex:
            via_pickle = ordered(pickle_ex, jobs)
        for a, b, c in zip(local, via_shm, via_pickle):
            _assert_results_equal(a, b)
            _assert_results_equal(a, c)

    def test_interval_components_survive_transport(self, configs):
        jobs = [SimJob("swim", c, n_samples=32) for c in configs[:2]]
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            results = ordered(ex, jobs)
        reference = jobs[0].run()
        assert list(results[0].components) == list(reference.components)
        for name, arr in reference.components.items():
            assert np.array_equal(results[0].components[name], arr)


class TestArenaLifecycle:
    def test_unlinked_on_completion_views_stay_valid(self, configs):
        jobs = [SimJob("gcc", c, n_samples=32) for c in configs]
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            results = ordered(ex, jobs)
            arena = ex.last_arena
            assert arena is not None and arena.unlinked
            with pytest.raises(FileNotFoundError):
                _sm.SharedMemory(name=arena.name)
        # Views outlive both the batch and the executor.
        reference = jobs[0].run()
        assert np.array_equal(results[0].trace("cpi"),
                              reference.trace("cpi"))

    def test_unlinked_on_worker_crash(self, configs):
        jobs = [SimJob("gcc", configs[0], n_samples=32),
                KillWorkerJob("gcc", configs[1], n_samples=32)]
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            with pytest.raises(Exception):
                ordered(ex, jobs)
            arena = ex.last_arena
            assert arena is not None and arena.unlinked
            with pytest.raises(FileNotFoundError):
                _sm.SharedMemory(name=arena.name)

    def test_unlinked_on_early_consumer_exit(self, configs):
        jobs = [SimJob("gcc", c, n_samples=32) for c in configs]
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            stream = ex.submit_batch(jobs)
            next(stream)
            stream.close()  # consumer abandons the batch
            arena = ex.last_arena
            assert arena is not None and arena.unlinked

    def test_abandoned_batch_unlinks_arena(self, configs):
        """A stream that is never iterated must not leak its segment."""
        import gc

        ex = ParallelExecutor(max_workers=2, shm=True)
        try:
            stream = ex.submit_batch(
                [SimJob("gcc", c, n_samples=32) for c in configs[:3]])
            name = ex.last_arena.name
            del stream  # abandoned before the first pull
        finally:
            ex.close()  # drops the executor's arena reference
        gc.collect()
        with pytest.raises(FileNotFoundError):
            _sm.SharedMemory(name=name)

    def test_views_are_read_only(self, configs):
        jobs = [SimJob("gcc", c, n_samples=32) for c in configs[:2]]
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            results = ordered(ex, jobs)
        trace = results[0].trace("cpi")
        assert not trace.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            trace[0] = 0.0
        detached = results[0].detach()
        assert detached.trace("cpi").flags.writeable
        assert detached.trace("cpi").base is None

    def test_memory_cache_tier_does_not_pin_arena(self, configs):
        engine = create_engine(jobs=2)
        try:
            jobs = [SimJob("gcc", c, n_samples=32) for c in configs[:3]]
            engine.run(jobs)
            hits = engine.run(jobs)  # all from the in-memory LRU
            assert engine.cache.stats.memory_hits == len(jobs)
            for result in hits:
                assert all(arr.base is None
                           for arr in result.traces.values())
        finally:
            engine.executor.close()


class TestArenaUnit:
    def test_component_overflow_falls_back_to_pickle(self, configs):
        jobs = [SimJob("gcc", configs[0], n_samples=16)]
        arena = ShmArena.create(jobs)
        assert arena is not None
        try:
            result = SimulationResult(
                benchmark="gcc", config=configs[0], n_samples=16,
                backend="interval",
                traces={d: np.arange(16, dtype=float)
                        for d in ("cpi", "power", "avf", "iq_avf")},
                components={f"c{i}": np.full(16, float(i))
                            for i in range(MAX_COMPONENT_SLOTS + 4)},
            )
            desc = arena.write(0, result)
            assert desc.fallback is not None
            _assert_results_equal(arena.materialize(desc), result)
        finally:
            arena.unlink()

    def test_foreign_dtype_falls_back(self, configs):
        jobs = [SimJob("gcc", configs[0], n_samples=8)]
        arena = ShmArena.create(jobs)
        try:
            result = SimulationResult(
                benchmark="gcc", config=configs[0], n_samples=8,
                backend="interval",
                traces={d: np.arange(8, dtype=np.float32)
                        for d in ("cpi", "power", "avf", "iq_avf")},
            )
            desc = arena.write(0, result)
            assert desc.fallback is not None
        finally:
            arena.unlink()


class TestStackRows:
    def test_contiguous_rows_return_view(self):
        base = np.arange(24, dtype=float).reshape(4, 6).copy()
        stacked = stack_rows([base[1], base[2], base[3]])
        assert np.shares_memory(stacked, base)
        assert np.array_equal(stacked, base[1:4])

    def test_non_contiguous_rows_copy(self):
        base = np.arange(24, dtype=float).reshape(4, 6).copy()
        stacked = stack_rows([base[2], base[0]])
        assert not np.shares_memory(stacked, base)
        assert np.array_equal(stacked, np.vstack([base[2], base[0]]))

    def test_rows_given_by_the_caller(self):
        """``rows`` locates each array (a result's block and row): one
        matrix's consecutive rows slice it, anything else gathers."""
        a = np.arange(24, dtype=float).reshape(4, 6)
        b = a + 100.0
        where = [(a, 1), (a, 2)]
        sliced = stack_rows([a[1], a[2]], where)
        assert np.shares_memory(sliced, a)
        assert np.array_equal(sliced, a[1:3])
        where = [(b, 3), (a, 0), (b, 1), None]
        gathered = stack_rows([b[3], a[0], b[1], a[2]], where)
        assert gathered.flags.c_contiguous
        assert not np.shares_memory(gathered, a)
        assert np.array_equal(gathered, np.vstack([b[3], a[0], b[1], a[2]]))

    def test_owning_arrays_copy(self):
        rows = [np.arange(6, dtype=float), np.arange(6, dtype=float) + 1]
        stacked = stack_rows(rows)
        assert stacked.shape == (2, 6)
        assert not np.shares_memory(stacked, rows[0])

    def test_dataset_assembly_is_zero_copy_for_cold_sweep(self, configs):
        with ParallelExecutor(max_workers=2, shm=True) as ex:
            runner = SweepRunner(n_samples=32, engine=ExecutionEngine(ex))
            ds = runner.run_configs("gcc", configs)
            arena = ex.last_arena
            assert arena is not None
            matrix = ds.domain("cpi")
            assert np.shares_memory(matrix, arena._traces()[0])
            # And the sequential path agrees bit-for-bit.
            seq = SweepRunner(n_samples=32).run_configs("gcc", configs)
            for domain in seq.domains:
                assert np.array_equal(seq.domain(domain), ds.domain(domain))
            materialized = ds.materialize()
            assert not np.shares_memory(materialized.domain("cpi"), matrix)
            assert np.array_equal(materialized.domain("cpi"), matrix)


class TestChunkAutotune:
    def test_probe_then_tuned_sizes(self, configs):
        ex = ParallelExecutor(max_workers=2, shm=False)
        jobs = [SimJob("gcc", configs[0], n_samples=16)] * 200
        probes = chunk_plan(ex, jobs)[:ex.max_workers]
        assert all(stop - start <= PROBE_CHUNK_SIZE for start, stop in probes)
        ex.tuner.record("interval", 1e-4)   # fast interval jobs
        ex.tuner.record("detailed", 0.5)    # seconds-per-job detailed
        coarse = ex.tuner.plan("interval", 200, ex.max_workers)
        fine = ex.tuner.plan("detailed", 200, ex.max_workers)
        assert fine == 1
        assert coarse > 8 * fine
        assert coarse <= 100  # every worker still gets a chunk

    def test_timings_recorded_end_to_end(self, configs):
        jobs = [SimJob("gcc", c, n_samples=32) for c in configs]
        with ParallelExecutor(max_workers=2) as ex:
            results = ordered(ex, jobs)
            assert ex.tuner.known("interval")
            assert ex.tuner._tuned["interval"] > 0
        assert [r.config for r in results] == [j.config for j in jobs]

    def test_mixed_backend_chunks_stay_homogeneous(self, configs):
        jobs = ([SimJob("gcc", c, n_samples=16) for c in configs[:3]]
                + [SimJob("gcc", c, backend="detailed", n_samples=4,
                          instructions_per_sample=40) for c in configs[3:5]])
        with ParallelExecutor(max_workers=2) as ex:
            results = ordered(ex, jobs)
        assert [r.backend for r in results] == (["interval"] * 3
                                                + ["detailed"] * 2)
