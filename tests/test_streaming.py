"""Streaming engine semantics, cache lifecycle, and the cache CLI.

Pins the PR-2 contracts: cache hits resolve before any execution,
``as_completed`` streams in completion order while ``results()`` stays
deterministic, streaming and batch sweeps build bit-identical datasets,
and a byte-capped cache never ends a sweep over budget.
"""

import io
import os

import numpy as np
import pytest

from repro.cli import main
from repro.dse.runner import SweepPlan, SweepRunner
from repro.dse.space import paper_design_space
from repro.engine import (
    VERSION_TAG,
    ExecutionEngine,
    ParallelExecutor,
    ResultCache,
    SimJob,
    create_engine,
)
from repro.engine.cache import SUFFIX
from repro.errors import EngineError

from executor_utils import ordered


@pytest.fixture(scope="module")
def configs():
    return paper_design_space().sample_random(6, split="train", seed=3)


@pytest.fixture(scope="module")
def jobs(configs):
    return [SimJob("gcc", c, n_samples=64) for c in configs]


class FailingExecutor:
    """An executor that must never be asked to run anything."""

    def submit_batch(self, batch):
        raise AssertionError("executor invoked for a fully-cached batch")


class CountingExecutor(ParallelExecutor):
    def __init__(self):
        super().__init__(max_workers=1)
        self.calls = 0

    def submit_batch(self, batch):
        self.calls += len(batch)
        return super().submit_batch(batch)


def local():
    return ParallelExecutor(max_workers=1)


class TestBatchHandle:
    def test_results_in_job_order(self, jobs):
        reference = ordered(local(), jobs)
        handle = ExecutionEngine().submit(jobs)
        streamed = handle.results()
        assert len(streamed) == len(jobs)
        for expected, got in zip(reference, streamed):
            assert np.array_equal(expected.trace("cpi"), got.trace("cpi"))

    def test_as_completed_yields_each_job_exactly_once(self, jobs):
        engine = ExecutionEngine(ParallelExecutor(max_workers=2))
        handle = engine.submit(jobs)
        seen = {}
        for index, result in handle.as_completed():
            assert index not in seen
            seen[index] = result
        assert sorted(seen) == list(range(len(jobs)))
        reference = ordered(local(), jobs)
        for i, expected in enumerate(reference):
            assert np.array_equal(expected.trace("cpi"),
                                  seen[i].trace("cpi"))
        assert handle.done == len(jobs)

    def test_cache_hits_resolve_immediately(self, tmp_path, jobs):
        warm = create_engine(cache_dir=tmp_path)
        warm.run(jobs)
        cold = ExecutionEngine(executor=FailingExecutor(),
                               cache=ResultCache(tmp_path))
        handle = cold.submit(jobs)
        assert handle.cache_hits == len(jobs)
        assert handle.done == len(jobs)  # resolved before any iteration
        assert len(list(handle.as_completed())) == len(jobs)

    def test_result_blocks_for_one_job(self, jobs):
        handle = ExecutionEngine().submit(jobs)
        expected = jobs[3].run()
        assert np.array_equal(handle.result(3).trace("cpi"),
                              expected.trace("cpi"))
        with pytest.raises(EngineError):
            handle.result(len(jobs))

    def test_duplicates_collapse_in_streaming_path(self, jobs):
        executor = CountingExecutor()
        engine = ExecutionEngine(executor=executor)
        batch = [jobs[0], jobs[1], jobs[0], jobs[0]]
        events = list(engine.submit(batch).as_completed())
        assert executor.calls == 2
        assert sorted(i for i, _ in events) == [0, 1, 2, 3]
        by_index = dict(events)
        assert np.array_equal(by_index[0].trace("cpi"),
                              by_index[2].trace("cpi"))

    def test_on_result_callbacks(self, tmp_path, jobs):
        engine_events = []
        engine = create_engine(cache_dir=tmp_path,
                               on_result=lambda *e: engine_events.append(e))
        batch_events = []
        engine.submit(jobs, on_result=lambda i, job, result, hit:
                      batch_events.append(hit)).results()
        assert len(engine_events) == len(jobs)
        assert batch_events == [False] * len(jobs)
        # Second submission: every job resolves from cache at submit time.
        rerun_events = []
        handle = engine.submit(jobs, on_result=lambda i, job, result, hit:
                               rerun_events.append(hit))
        assert rerun_events == [True] * len(jobs)
        assert len(engine_events) == 2 * len(jobs)
        assert handle.cache_hits == len(jobs)


class TestStreamingSweeps:
    @pytest.mark.parametrize("make_executor", [
        local,
        lambda: ParallelExecutor(max_workers=2),
    ])
    def test_streaming_and_batch_datasets_bit_identical(self, configs,
                                                        make_executor):
        groups = [configs[:4], configs[4:]]
        batch_runner = SweepRunner(n_samples=64)
        batch = batch_runner.run_many("gcc", groups)
        streaming_runner = SweepRunner(
            n_samples=64, engine=ExecutionEngine(make_executor()))
        streamed = dict(streaming_runner.run_many_streaming("gcc", groups))
        assert sorted(streamed) == [0, 1]
        for gi, dataset in enumerate(batch):
            assert [c.key() for c in dataset.configs] == \
                [c.key() for c in streamed[gi].configs]
            for domain in dataset.domains:
                assert np.array_equal(dataset.domain(domain),
                                      streamed[gi].domain(domain))

    def test_grid_streaming_matches_per_benchmark_runs(self, configs):
        groups = [configs[:3], configs[3:]]
        runner = SweepRunner(n_samples=64)
        grid = {}
        for ri, gi, ds in runner.run_grid_streaming(
                [("gcc", groups), ("mcf", groups)]):
            grid[(ri, gi)] = ds
        assert sorted(grid) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for ri, bench in enumerate(("gcc", "mcf")):
            direct = SweepRunner(n_samples=64).run_many(bench, groups)
            for gi in (0, 1):
                assert grid[(ri, gi)].benchmark == bench
                assert np.array_equal(grid[(ri, gi)].domain("cpi"),
                                      direct[gi].domain("cpi"))

    def test_empty_group_yields_first(self, configs):
        runner = SweepRunner(n_samples=64)
        order = [gi for gi, _ in
                 runner.run_many_streaming("gcc", [configs[:2], []])]
        assert order[0] == 1  # nothing to wait for
        assert sorted(order) == [0, 1]

    def test_warm_cache_streams_without_execution(self, tmp_path, configs):
        engine = create_engine(cache_dir=tmp_path)
        runner = SweepRunner(n_samples=64, engine=engine)
        first = runner.run_many("swim", [configs])
        cold_engine = ExecutionEngine(executor=FailingExecutor(),
                                      cache=ResultCache(tmp_path))
        warm_runner = SweepRunner(n_samples=64, engine=cold_engine)
        streamed = dict(warm_runner.run_many_streaming("swim", [configs]))
        assert np.array_equal(first[0].domain("cpi"),
                              streamed[0].domain("cpi"))


class TestContextStreaming:
    def _scale(self):
        from repro.experiments.context import Scale

        return Scale(name="tiny", n_train=8, n_test=4, n_samples=32,
                     n_coefficients=8, benchmarks=("gcc", "mcf"))

    def test_errors_by_benchmark_matches_serial_path(self):
        from repro.experiments.context import ExperimentContext

        streaming_ctx = ExperimentContext(self._scale(),
                                          engine=ExecutionEngine())
        streamed = streaming_ctx.errors_by_benchmark("cpi")
        serial_ctx = ExperimentContext(self._scale(),
                                       engine=ExecutionEngine())
        serial = {bench: serial_ctx.test_errors(bench, "cpi")
                  for bench in ("gcc", "mcf")}
        assert list(streamed) == ["gcc", "mcf"]
        for bench in serial:
            assert np.array_equal(streamed[bench], serial[bench])

    def test_iter_datasets_yields_cached_benchmarks_first(self):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(self._scale(), engine=ExecutionEngine())
        ctx.dataset("mcf")
        order = list(ctx.iter_datasets(("gcc", "mcf")))
        assert order[0] == "mcf"
        assert sorted(order) == ["gcc", "mcf"]

    def test_prefetch_builds_all_datasets(self):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(self._scale(), engine=ExecutionEngine())
        ctx.prefetch(("gcc", "mcf"))
        assert len(ctx._datasets) == 2
        train, test = ctx.dataset("gcc")
        assert train.n_configs == 8 and test.n_configs == 4


class TestCacheLifecycle:
    def _entry_size(self, tmp_path, jobs) -> int:
        probe = ResultCache(tmp_path / "probe")
        probe.put(jobs[0].key(), jobs[0].run())
        return probe.disk_bytes()

    def test_byte_cap_enforced_after_every_put(self, tmp_path, jobs):
        size = self._entry_size(tmp_path, jobs)
        cap = 2 * size + size // 2  # room for two entries, not three
        cache = ResultCache(tmp_path / "capped", max_bytes=cap)
        for job in jobs:
            cache.put(job.key(), job.run())
            assert cache.disk_bytes() <= cap
        assert len(cache) == 2
        assert cache.stats.evictions == len(jobs) - 2
        # The newest entries survive (mtime-LRU evicts oldest first).
        assert cache.get(jobs[-1].key()) is not None

    def test_sweep_with_cap_stays_under_budget(self, tmp_path, configs, jobs):
        size = self._entry_size(tmp_path, jobs)
        cap = 3 * size + size // 2
        engine = create_engine(cache_dir=tmp_path / "sweep",
                               cache_max_bytes=cap)
        SweepRunner(n_samples=64, engine=engine).run_configs("gcc", configs)
        assert engine.cache.disk_bytes() <= cap
        assert engine.cache.stats.evictions > 0

    def test_gc_to_byte_target(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        for job in jobs:
            cache.put(job.key(), job.run())
        size = cache.disk_bytes() // len(jobs)
        entries, freed = cache.gc(max_bytes=size)
        assert entries == len(jobs) - 1
        assert freed > 0
        assert len(cache) == 1

    def test_gc_versions_drops_foreign_and_legacy_entries(self, tmp_path,
                                                          jobs):
        cache = ResultCache(tmp_path)
        cache.put(jobs[0].key(), jobs[0].run())
        (tmp_path / "simjob-v0-feedface.npz").write_bytes(b"old version")
        (tmp_path / "deadbeef.npz").write_bytes(b"seed naming scheme")
        assert len(cache) == 1  # unreadable files are not entries
        entries, freed = cache.gc_versions()
        assert entries == 2 and freed > 0
        assert len(cache) == 1
        assert list(tmp_path.glob(f"*{SUFFIX}"))[0].name.startswith(
            VERSION_TAG + "-")

    def test_clear_empties_both_tiers(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        for job in jobs[:3]:
            cache.put(job.key(), job.run())
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.get(jobs[0].key()) is None

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(EngineError):
            ResultCache(tmp_path, max_bytes=0)


class TestCacheCli:
    def _populate(self, cache_dir, jobs, n=3):
        cache = ResultCache(cache_dir)
        for job in jobs[:n]:
            cache.put(job.key(), job.run())
        return cache

    def test_stats(self, tmp_path, jobs):
        self._populate(tmp_path, jobs)
        out = io.StringIO()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        text = out.getvalue()
        assert "entries:     3" in text
        assert "simjob/v1" in text

    def test_gc_with_byte_target(self, tmp_path, jobs):
        # Three engine batches of two jobs: three two-record segments,
        # dated oldest first.
        engine = create_engine(cache_dir=tmp_path)
        segments = []
        for stamp, batch in enumerate((jobs[0:2], jobs[2:4], jobs[4:6])):
            engine.run(batch)
            [path] = [p for p in tmp_path.glob(f"*{SUFFIX}")
                      if p not in segments]
            os.utime(path, (1_700_000_000 + stamp,) * 2)
            segments.append(path)
        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", str(segments[-1].stat().st_size)],
                    out=out) == 0
        assert list(tmp_path.glob(f"*{SUFFIX}")) == [segments[-1]]
        assert "size gc: removed 2 segments (4 entries" in out.getvalue()
        fresh = ResultCache(tmp_path)
        assert [fresh.get(job.key()) is not None for job in jobs] \
            == [False] * 4 + [True] * 2

    def test_clear_honours_env_cache_dir(self, tmp_path, jobs, monkeypatch):
        self._populate(tmp_path, jobs)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = io.StringIO()
        assert main(["cache", "clear"], out=out) == 0
        assert list(tmp_path.glob(f"*{SUFFIX}")) == []

    def test_missing_cache_dir_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(EngineError):
            main(["cache", "stats"], out=io.StringIO())

    def test_sweep_progress_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        out = io.StringIO()
        code = main(["sweep", "gcc", "--n-train", "20", "--n-test", "5",
                     "--samples", "32", "--progress"], out=out)
        assert code == 0
        assert "progress: 25 jobs done (0 cache hits)" in out.getvalue()


class TestVectorizedTransforms:
    @pytest.mark.parametrize("wavelet,convention", [
        ("haar", "paper"),
        ("haar", "orthonormal"),
        ("db4", "orthonormal"),
    ])
    def test_batch_matches_per_row_exactly(self, wavelet, convention):
        from repro.core.wavelets import dwt, dwt_batch, idwt, idwt_batch

        rng = np.random.default_rng(7)
        traces = rng.normal(size=(17, 64))
        batch = dwt_batch(traces, wavelet=wavelet, convention=convention)
        rows = np.vstack([dwt(row, wavelet=wavelet, convention=convention)
                          for row in traces])
        assert np.array_equal(batch, rows)
        back = idwt_batch(batch, wavelet=wavelet, convention=convention)
        back_rows = np.vstack([
            idwt(row, wavelet=wavelet, convention=convention)
            for row in batch
        ])
        assert np.array_equal(back, back_rows)
        assert np.allclose(back, traces)

    def test_batch_rejects_bad_shapes(self):
        from repro.core.wavelets import dwt_batch
        from repro.errors import TransformError

        with pytest.raises(TransformError):
            dwt_batch(np.zeros((4, 48)))  # not a power of two
        with pytest.raises(TransformError):
            dwt_batch(np.zeros(64))       # 1-D belongs to dwt()
