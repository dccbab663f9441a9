"""Bench: execution-engine sweep throughput (parallel + cached vs. seed).

The seed repo's data-collection path simulated every (benchmark, config)
pair in a sequential Python loop with no result reuse.  This bench pins
the engine's two wins on a quick-scale sweep:

* a **cache-warm re-run** (what every repeated experiment/figure run
  sees) must complete at least 5x faster than a cold sequential sweep
  (measured against the per-job scalar path, ``REPRO_BATCH_KERNEL=0``,
  so the baseline stays comparable across PRs; the grouped batch
  kernel's own >=10x win is pinned in ``bench_kernel.py`` and reported
  here informationally);
* a **disk-only re-run** (a fresh process on a populated cache
  directory) must complete at least 2x faster than that cold
  sequential sweep; its ratio against cold batched is printed for
  information;
* the **parallel executor** must produce bit-identical datasets (its
  wall-clock win is reported informationally — it depends on the
  machine's core count).
"""

import time

import numpy as np

from repro.dse.runner import SweepPlan, SweepRunner
from repro.dse.space import paper_design_space
from repro.engine import ExecutionEngine, ParallelExecutor, create_engine

BENCHMARKS = ("bzip2", "gcc", "mcf", "swim")
PLAN = SweepPlan(space=paper_design_space(), n_train=40, n_test=10,
                 n_lhs_matrices=4, seed=0)
N_SAMPLES = 128


def _sweep(runner):
    return {b: runner.run_train_test(b, PLAN) for b in BENCHMARKS}


def test_cached_rerun_5x_faster_than_cold_sequential(tmp_path, monkeypatch):
    n_runs = len(BENCHMARKS) * (PLAN.n_train + PLAN.n_test)

    # Cold sequential sweep: the seed repo's execution model — one
    # scalar simulation per (benchmark, config) pair, so the grouped
    # batch kernel (bench_kernel.py pins its own >=10x win) is disabled
    # for this leg to keep the baseline comparable across PRs.
    sequential = SweepRunner(n_samples=N_SAMPLES, engine=ExecutionEngine())
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
    start = time.perf_counter()
    cold_data = _sweep(sequential)
    cold = time.perf_counter() - start
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "1")

    # The same cold sweep with grouped kernel dispatch (the default).
    start = time.perf_counter()
    _sweep(SweepRunner(n_samples=N_SAMPLES, engine=ExecutionEngine()))
    cold_batched = time.perf_counter() - start

    # Same sweep through a cache-backed engine: first run populates,
    # second run (the common repeated-experiment case) only looks up.
    engine = create_engine(cache_dir=tmp_path / "cache")
    cached_runner = SweepRunner(n_samples=N_SAMPLES, engine=engine)
    _sweep(cached_runner)
    start = time.perf_counter()
    warm_data = _sweep(cached_runner)
    warm = time.perf_counter() - start

    # Disk-only re-run (fresh process simulation: cold memory tier).
    engine.cache.clear_memory()
    start = time.perf_counter()
    _sweep(cached_runner)
    disk = time.perf_counter() - start

    print()
    print(f"sweep: {len(BENCHMARKS)} benchmarks x "
          f"{PLAN.n_train}+{PLAN.n_test} configs x {N_SAMPLES} samples "
          f"({n_runs} simulations)")
    print(f"  cold sequential : {cold * 1e3:8.1f} ms (per-job scalar)")
    print(f"  cold batched    : {cold_batched * 1e3:8.1f} ms "
          f"({cold / cold_batched:6.1f}x)")
    print(f"  cached (memory) : {warm * 1e3:8.1f} ms "
          f"({cold / warm:6.1f}x)")
    print(f"  cached (disk)   : {disk * 1e3:8.1f} ms "
          f"({cold / disk:6.1f}x; {cold_batched / disk:4.1f}x "
          f"cold batched)")
    print(f"  cache stats     : {engine.cache.stats.describe()}")

    # Identical contents, much faster.
    for bench in BENCHMARKS:
        for seq_ds, warm_ds in zip(cold_data[bench], warm_data[bench]):
            for domain in seq_ds.domains:
                assert np.array_equal(seq_ds.domain(domain),
                                      warm_ds.domain(domain))
    assert warm * 5 < cold, (
        f"cache-warm re-run ({warm:.3f}s) should be >=5x faster than the "
        f"cold sequential sweep ({cold:.3f}s)"
    )
    assert disk * 2 < cold, (
        f"disk-only re-run ({disk:.3f}s) should be >=2x faster than the "
        f"cold sequential sweep ({cold:.3f}s)"
    )


def test_parallel_sweep_bit_identical_to_sequential():
    sequential = SweepRunner(n_samples=N_SAMPLES)
    parallel = SweepRunner(
        n_samples=N_SAMPLES,
        engine=ExecutionEngine(ParallelExecutor(max_workers=2)),
    )

    start = time.perf_counter()
    seq_train, seq_test = sequential.run_train_test("gcc", PLAN)
    seq_time = time.perf_counter() - start

    start = time.perf_counter()
    par_train, par_test = parallel.run_train_test("gcc", PLAN)
    par_time = time.perf_counter() - start

    print()
    print(f"  sequential      : {seq_time * 1e3:8.1f} ms")
    print(f"  parallel (2p)   : {par_time * 1e3:8.1f} ms "
          f"(speedup is machine-dependent; correctness is not)")

    for seq_ds, par_ds in ((seq_train, par_train), (seq_test, par_test)):
        for domain in seq_ds.domains:
            assert np.array_equal(seq_ds.domain(domain),
                                  par_ds.domain(domain))
