"""Tests for the batched/parallel/cached execution engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dse.runner import SweepPlan, SweepRunner
from repro.dse.lhs import sample_train_configs
from repro.dse.space import paper_design_space
from repro.engine import (
    ExecutionEngine,
    ParallelExecutor,
    ResultCache,
    SimJob,
    create_engine,
    make_jobs,
)
from repro.engine.cache import SUFFIX
from repro.errors import EngineError
from repro.uarch.params import baseline_config
from repro.uarch.simulator import SimulationResult, Simulator
from repro.workloads.spec2000 import BENCHMARK_NAMES

from executor_utils import chunk_plan, ordered


@pytest.fixture(scope="module")
def configs():
    return paper_design_space().sample_random(6, split="train", seed=11)


@pytest.fixture(scope="module")
def jobs(configs):
    return [SimJob("gcc", c, n_samples=64) for c in configs]


class TestSimJob:
    def test_key_is_content_hash(self, configs):
        a = SimJob("gcc", configs[0], n_samples=64)
        b = SimJob("gcc", configs[0], n_samples=64)
        assert a.key() == b.key()
        assert a.key() != SimJob("mcf", configs[0], n_samples=64).key()
        assert a.key() != SimJob("gcc", configs[1], n_samples=64).key()
        assert a.key() != SimJob("gcc", configs[0], n_samples=128).key()
        assert a.key() != SimJob("gcc", configs[0], n_samples=64,
                                 noise=False).key()

    def test_key_ignores_irrelevant_options(self, configs):
        # The interval backend never reads instructions_per_sample, so it
        # must not fragment the cache.
        a = SimJob("gcc", configs[0], instructions_per_sample=100)
        b = SimJob("gcc", configs[0], instructions_per_sample=9999)
        assert a.key() == b.key()
        da = SimJob("gcc", configs[0], backend="detailed",
                    instructions_per_sample=100)
        db = SimJob("gcc", configs[0], backend="detailed",
                    instructions_per_sample=9999)
        assert da.key() != db.key()

    def test_key_stable_across_processes(self, configs):
        job = SimJob("gcc", baseline_config(), n_samples=64)
        src_root = Path(repro.__file__).resolve().parent.parent
        code = (
            "from repro.engine import SimJob\n"
            "from repro.uarch.params import baseline_config\n"
            "print(SimJob('gcc', baseline_config(), n_samples=64).key())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == job.key()

    def test_run_matches_simulator(self, jobs):
        direct = Simulator().run("gcc", jobs[0].config, 64)
        via_job = jobs[0].run()
        assert np.array_equal(direct.trace("cpi"), via_job.trace("cpi"))

    def test_validation(self, configs):
        with pytest.raises(EngineError):
            SimJob("gcc", configs[0], backend="quantum")
        with pytest.raises(EngineError):
            SimJob("", configs[0])
        with pytest.raises(EngineError):
            SimJob("gcc", configs[0], n_samples=0)

    def test_workload_mismatch_rejected(self, configs):
        from repro.workloads.spec2000 import get_benchmark

        with pytest.raises(EngineError):
            SimJob("gcc", configs[0], workload=get_benchmark("mcf"))

    def test_make_jobs(self, configs):
        batch = make_jobs("swim", configs, n_samples=32)
        assert len(batch) == len(configs)
        assert all(j.benchmark == "swim" and j.n_samples == 32 for j in batch)


class TestExecutors:
    def test_parallel_matches_sequential_bit_identical(self, jobs):
        seq = ordered(ParallelExecutor(max_workers=1), jobs)
        par = ordered(ParallelExecutor(max_workers=2), jobs)
        assert len(seq) == len(par) == len(jobs)
        for a, b in zip(seq, par):
            assert a.benchmark == b.benchmark
            assert a.config == b.config
            for domain in ("cpi", "power", "avf", "iq_avf"):
                assert np.array_equal(a.trace(domain), b.trace(domain))

    def test_result_order_matches_job_order(self, jobs):
        par = ordered(ParallelExecutor(max_workers=2), jobs)
        assert [r.config for r in par] == [j.config for j in jobs]

    def test_empty_batch(self):
        assert ordered(ParallelExecutor(max_workers=2), []) == []
        assert ordered(ParallelExecutor(max_workers=1), []) == []

    def test_worker_exception_propagates(self, configs):
        bad = SimJob("gcc", configs[0], n_samples=64)
        object.__setattr__(bad, "benchmark", "no_such_benchmark")
        with pytest.raises(Exception):
            ordered(ParallelExecutor(max_workers=2), [bad])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(EngineError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(EngineError):
            create_engine(jobs=0)

    @pytest.mark.parametrize("build", [
        ExecutionEngine,
        create_engine,
        lambda: create_engine(jobs=1),
    ], ids=["ExecutionEngine()", "create_engine()", "create_engine(jobs=1)"])
    def test_default_engine_runs_in_process(self, build, jobs, monkeypatch):
        # The in-process executor reads no pool setting: a malformed
        # REPRO_SHM cannot break it, and no pool is ever created.
        monkeypatch.setenv("REPRO_SHM", "flase")
        engine = build()
        results = engine.run(jobs[:3])
        assert [r.config for r in results] == [j.config for j in jobs[:3]]
        assert engine.executor.max_workers == 1
        assert engine.executor._pool is None

    def test_pool_chunk_plan_is_pinned(self):
        # A pool_mixed-shaped batch: per benchmark 200 interval jobs,
        # then one detailed job.  Goldens: a move in the pool's chunk
        # policy must be a deliberate, visible change.
        space = paper_design_space()
        interval = sample_train_configs(space, 200, seed=0)
        detailed = sample_train_configs(space, len(BENCHMARK_NAMES), seed=1)
        batch = []
        for bench, config in zip(BENCHMARK_NAMES, detailed):
            batch += make_jobs(bench, interval)
            batch += make_jobs(bench, [config], backend="detailed",
                               n_samples=32)
        starts = [201 * b for b in range(len(BENCHMARK_NAMES))]
        probe_wave = [(0, 4), (4, 8), (8, 200), (200, 201)] + [
            chunk for s in starts[1:] for chunk in ((s, s + 200),
                                                    (s + 200, s + 201))]
        tuned = [chunk for s in starts for chunk in (
            (s, s + 62), (s + 62, s + 124), (s + 124, s + 186),
            (s + 186, s + 200), (s + 200, s + 201))]

        ex = ParallelExecutor(max_workers=2, shm=False)
        assert chunk_plan(ex, batch) == probe_wave
        ex.tuner.record("interval", 4e-3)  # 0.25 s per chunk: 62 jobs
        assert chunk_plan(ex, batch) == tuned
        ex.tuner.record("detailed", 0.05)
        assert chunk_plan(ex, batch) == tuned


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        assert cache.get(jobs[0].key()) is None
        result = jobs[0].run()
        cache.put(jobs[0].key(), result)
        hit = cache.get(jobs[0].key())
        assert hit is not None
        for domain in ("cpi", "power", "avf", "iq_avf"):
            assert np.array_equal(hit.trace(domain), result.trace(domain))
        assert hit.config == result.config
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_disk_tier_survives_new_instance(self, tmp_path, jobs):
        result = jobs[0].run()
        ResultCache(tmp_path).put(jobs[0].key(), result)
        fresh = ResultCache(tmp_path)  # cold in-memory tier
        hit = fresh.get(jobs[0].key())
        assert hit is not None
        assert fresh.stats.disk_hits == 1
        assert np.array_equal(hit.trace("cpi"), result.trace("cpi"))

    def test_memory_lru_eviction_falls_back_to_disk(self, tmp_path, jobs):
        cache = ResultCache(tmp_path, memory_items=1)
        cache.put(jobs[0].key(), jobs[0].run())
        cache.put(jobs[1].key(), jobs[1].run())  # evicts jobs[0] from memory
        assert cache.get(jobs[1].key()) is not None
        assert cache.stats.memory_hits == 1
        assert cache.get(jobs[0].key()) is not None
        assert cache.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        cache.put(jobs[0].key(), jobs[0].run())
        [path] = list(Path(tmp_path).glob(f"*{SUFFIX}"))
        path.write_bytes(b"not an npz")
        cache.clear_memory()
        assert cache.get(jobs[0].key()) is None

    def test_memory_only_cache(self, jobs):
        cache = ResultCache(cache_dir=None, memory_items=4)
        assert cache.get(jobs[0].key()) is None
        cache.put(jobs[0].key(), jobs[0].run())
        assert cache.get(jobs[0].key()) is not None
        assert len(cache) == 1


class TestExecutionEngine:
    def test_cache_hits_skip_execution(self, tmp_path, jobs):
        class CountingExecutor(ParallelExecutor):
            calls = 0

            def submit_batch(self, batch):
                CountingExecutor.calls += len(batch)
                return super().submit_batch(batch)

        engine = ExecutionEngine(executor=CountingExecutor(max_workers=1),
                                 cache=ResultCache(tmp_path))
        engine.run(jobs)
        assert CountingExecutor.calls == len(jobs)
        engine.run(jobs)  # fully cached
        assert CountingExecutor.calls == len(jobs)

    def test_duplicate_jobs_deduplicated(self, jobs):
        class CountingExecutor(ParallelExecutor):
            calls = 0

            def submit_batch(self, batch):
                CountingExecutor.calls += len(batch)
                return super().submit_batch(batch)

        engine = ExecutionEngine(executor=CountingExecutor(max_workers=1),
                                 cache=None)
        results = engine.run([jobs[0], jobs[1], jobs[0], jobs[0]])
        assert CountingExecutor.calls == 2
        assert np.array_equal(results[0].trace("cpi"), results[2].trace("cpi"))
        assert results[1].config == jobs[1].config

    @pytest.mark.parametrize("memory_items,want", [
        (512, (2, 2, 3)),  # a hit's duplicates hit the memory tier
        (0, (2, 5, 0)),    # without one, the disk again
    ])
    def test_half_warm_batch_with_duplicates(self, tmp_path, jobs,
                                             memory_items, want):
        """``(misses, disk hits, memory hits)`` and the order hits are
        called back and yielded in, as one lookup per job gives them."""
        create_engine(cache_dir=tmp_path).run([jobs[0], jobs[2]])
        engine = ExecutionEngine(
            cache=ResultCache(tmp_path, memory_items=memory_items))
        batch = [jobs[i] for i in (1, 0, 2, 0, 1, 3, 2, 0)]
        called = []
        handle = engine.submit(batch, on_result=lambda i, job, result,
                               cached: called.append((i, cached)))
        hits = [1, 2, 3, 6, 7]
        assert called == [(i, True) for i in hits]
        assert handle.cache_hits == len(hits)
        stats = engine.cache.stats
        assert (stats.misses, stats.disk_hits, stats.memory_hits) == want
        order = [index for index, _ in handle.as_completed()]
        assert order[:len(hits)] == hits
        assert sorted(order[len(hits):]) == [0, 4, 5]
        results = handle.results()
        if memory_items:
            assert results[3] is results[1] and results[6] is results[2]
        for job, result in zip(batch, results):
            assert np.array_equal(result.trace("cpi"), job.run().trace("cpi"))
            assert result.config == job.config

    def test_run_one(self, jobs):
        result = ExecutionEngine().run_one(jobs[0])
        assert isinstance(result, SimulationResult)
        assert result.n_samples == 64


class TestSweepRunnerIntegration:
    def test_parallel_dataset_bit_identical(self, configs):
        seq = SweepRunner(n_samples=64).run_configs("gcc", configs)
        par = SweepRunner(
            n_samples=64,
            engine=ExecutionEngine(ParallelExecutor(max_workers=2)),
        ).run_configs("gcc", configs)
        for domain in seq.domains:
            assert np.array_equal(seq.domain(domain), par.domain(domain))

    def test_parallel_train_test_bit_identical(self):
        plan = SweepPlan(space=paper_design_space(), n_train=10, n_test=4,
                         n_lhs_matrices=2, seed=7)
        seq_train, seq_test = SweepRunner(n_samples=64).run_train_test(
            "mcf", plan)
        par_runner = SweepRunner(
            n_samples=64,
            engine=ExecutionEngine(ParallelExecutor(max_workers=2)),
        )
        par_train, par_test = par_runner.run_train_test("mcf", plan)
        for seq, par in ((seq_train, par_train), (seq_test, par_test)):
            assert [c.key() for c in seq.configs] == [c.key() for c in par.configs]
            for domain in seq.domains:
                assert np.array_equal(seq.domain(domain), par.domain(domain))

    def test_cached_rerun_equivalent(self, tmp_path, configs):
        engine = create_engine(cache_dir=tmp_path)
        runner = SweepRunner(n_samples=64, engine=engine)
        first = runner.run_configs("twolf", configs)
        engine.cache.clear_memory()
        second = runner.run_configs("twolf", configs)
        assert engine.cache.stats.disk_hits == len(configs)
        for domain in first.domains:
            assert np.array_equal(first.domain(domain), second.domain(domain))

    def test_run_many_single_batch(self, configs):
        runner = SweepRunner(n_samples=64)
        groups = [configs[:4], configs[4:]]
        many = runner.run_many("vpr", groups)
        assert [ds.n_configs for ds in many] == [4, 2]
        direct = runner.run_configs("vpr", configs[4:])
        assert np.array_equal(many[1].domain("cpi"), direct.domain("cpi"))


class TestSimulationResultIpc:
    def test_ipc_guards_zero_cpi(self):
        cpi = np.array([0.5, 0.0, 2.0])
        result = SimulationResult(
            benchmark="gcc", config=baseline_config(), n_samples=3,
            backend="interval", traces={"cpi": cpi},
        )
        ipc = result.trace("ipc")
        assert np.all(np.isfinite(ipc))
        assert ipc == pytest.approx([2.0, 0.0, 0.5])

    def test_ipc_normal_path(self):
        result = Simulator().run("gcc", baseline_config(), 64)
        assert np.allclose(result.trace("ipc"),
                           1.0 / result.trace("cpi"))


class TestReviewRegressions:
    def test_alias_benchmark_canonicalized(self, configs):
        # "bzip" (registry alias) must label datasets and key cache
        # entries exactly like "bzip2".
        jobs_alias = make_jobs("bzip", configs[:2], n_samples=64)
        jobs_canon = make_jobs("bzip2", configs[:2], n_samples=64)
        assert [j.benchmark for j in jobs_alias] == ["bzip2", "bzip2"]
        assert [j.key() for j in jobs_alias] == [j.key() for j in jobs_canon]
        ds = SweepRunner(n_samples=64).run_configs("bzip", configs[:2])
        assert ds.benchmark == "bzip2"

    def test_unknown_benchmark_fails_before_execution(self, configs):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            make_jobs("no_such_benchmark", configs[:1])

    def test_run_many_with_empty_group(self, configs):
        runner = SweepRunner(n_samples=64)
        many = runner.run_many("gcc", [configs[:2], []])
        assert [ds.n_configs for ds in many] == [2, 0]
        assert many[1].domain("cpi").shape == (0, 64)

    def test_cli_engine_honours_env_fallback(self, monkeypatch, tmp_path):
        import io

        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        out = io.StringIO()
        code = main(["sweep", "gcc", "--n-train", "2", "--n-test", "1",
                     "--samples", "64"], out=out)
        assert code == 0
        assert "cache:" in out.getvalue()          # env-enabled cache used
        assert (tmp_path / "envcache").exists()

    def test_register_reducer_accepts_positive_only_reducers(self):
        # Harmonic mean is undefined at 0 but valid on real traces; the
        # registration probe must not reject it.
        from repro.dse.explorer import register_reducer, unregister_reducer

        register_reducer(
            "hmean",
            lambda t, axis=-1: t.shape[-1] / np.sum(1.0 / t, axis=axis),
        )
        unregister_reducer("hmean")

    def test_simulator_jobs_carry_its_settings(self, configs):
        # Jobs built by a simulator carry its backend and noise options,
        # so they run what that simulator's run() runs.
        quiet = Simulator(noise=False)
        [job] = quiet.jobs("gcc", configs[:1], n_samples=64)
        assert (job.backend, job.noise) == ("interval", False)
        direct = quiet.run("gcc", configs[0], 64)
        assert np.array_equal(job.run().trace("cpi"), direct.trace("cpi"))
        noisy = Simulator(noise=True).run("gcc", configs[0], 64)
        assert not np.array_equal(direct.trace("cpi"), noisy.trace("cpi"))
        [detailed] = Simulator(backend="detailed").jobs("gcc", configs[:1])
        assert detailed.backend == "detailed"

    def test_parallel_executor_reuses_pool(self, jobs):
        ex = ParallelExecutor(max_workers=2)
        try:
            ordered(ex, jobs[:2])
            pool = ex._pool
            assert pool is not None
            ordered(ex, jobs[2:4])
            assert ex._pool is pool
        finally:
            ex.close()
        assert ex._pool is None

    def test_search_top_k_zero_still_reports_best(self, configs):
        # Fit a tiny model and ask for counts only (top_k=0): best_config
        # must still be the feasible optimum, not None.
        train = SweepRunner(n_samples=64).run_configs("gcc", configs)
        model = repro.WaveletNeuralPredictor(n_coefficients=8).fit(
            train.design_matrix(), train.domain("cpi"))
        explorer = repro.PredictiveExplorer(train.space, {"cpi": model})
        res = explorer.search(repro.Objective("cpi"), limit=50, top_k=0,
                              seed=1)
        assert res.best_config is not None
        assert res.ranked == []
        full = explorer.search(repro.Objective("cpi"), limit=50, top_k=5,
                               seed=1)
        assert res.best_config.key() == full.best_config.key()
        assert res.best_score == full.best_score

    def test_builtin_reducers_protected(self):
        from repro.dse.explorer import unregister_reducer
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            unregister_reducer("p99")
