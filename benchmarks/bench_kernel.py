"""Bench: batched interval kernel vs. the per-config scalar path.

The interval model's rewrite stacks a whole config batch into
``(configs, samples)`` matrices and advances them through one
vectorized kernel call (:func:`repro.uarch.interval_model.\
simulate_interval_batch`).  This bench pins the rewrite's contract on a
sweep-shaped workload (one benchmark x ``BATCH`` LHS configurations):

* the batched kernel must be **>= 10x** faster than the equivalent loop
  of scalar ``simulate_interval`` calls (min-of-``REPEATS`` on both
  sides, both warmed);
* every batch row must be **byte-identical** to its scalar counterpart
  (speed never buys drift);
* when numba is installed, the JIT-compiled persistence scan must also
  be byte-identical (its timing is reported informationally — the scan
  is a small slice of the kernel).

Results land in ``BENCH_kernel.json`` (uploaded as a CI artifact).
"""

import json
import time

import numpy as np

from repro.dse.lhs import sample_train_configs
from repro.dse.space import paper_design_space
from repro.uarch.interval_model import simulate_interval, simulate_interval_batch
from repro.uarch.jit import jit_available, set_jit
from repro.workloads.spec2000 import get_benchmark

BENCHMARK = "gcc"
BATCH = 128
N_SAMPLES = 128
REPEATS = 7
MIN_SPEEDUP = 10.0


def _min_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_kernel_10x_and_bit_identical():
    workload = get_benchmark(BENCHMARK)
    configs = sample_train_configs(paper_design_space(), BATCH, seed=0)

    # Warm both paths (imports, benchmark attribute caches, key memos).
    simulate_interval(workload, configs[0], N_SAMPLES)
    simulate_interval_batch(workload, configs[:2], n_samples=N_SAMPLES)

    scalar_s = _min_of(REPEATS, lambda: [
        simulate_interval(workload, c, N_SAMPLES) for c in configs])
    batch_s = _min_of(REPEATS, lambda: simulate_interval_batch(
        workload, configs, n_samples=N_SAMPLES))
    speedup = scalar_s / batch_s

    # Bit-identity: the speedup must not come from different numerics.
    batch = simulate_interval_batch(workload, configs, n_samples=N_SAMPLES)
    scalars = [simulate_interval(workload, c, N_SAMPLES) for c in configs]
    for row, ref in zip(batch, scalars):
        assert np.array_equal(row.cpi, ref.cpi)
        assert np.array_equal(row.power, ref.power)
        assert np.array_equal(row.avf, ref.avf)
        assert np.array_equal(row.iq_avf, ref.iq_avf)
        for name in ref.components:
            assert np.array_equal(row.components[name],
                                  ref.components[name]), name

    jit_s = None
    jit_identical = None
    if jit_available():
        set_jit(True)
        try:
            simulate_interval_batch(workload, configs[:2],
                                    n_samples=N_SAMPLES)  # compile warm-up
            jit_s = _min_of(REPEATS, lambda: simulate_interval_batch(
                workload, configs, n_samples=N_SAMPLES))
            jitted = simulate_interval_batch(workload, configs,
                                             n_samples=N_SAMPLES)
        finally:
            set_jit(None)
        jit_identical = all(
            np.array_equal(a, b)
            for row, ref in zip(jitted, batch)
            for a, b in ((row.cpi, ref.cpi), (row.power, ref.power),
                         (row.avf, ref.avf), (row.iq_avf, ref.iq_avf))
        )
        assert jit_identical, "JIT persistence scan drifted from NumPy"

    record = {
        "benchmark": BENCHMARK,
        "batch": BATCH,
        "n_samples": N_SAMPLES,
        "repeats": REPEATS,
        "scalar_seconds": round(scalar_s, 4),
        "batch_seconds": round(batch_s, 4),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "scalar_us_per_config": round(scalar_s / BATCH * 1e6, 1),
        "batch_us_per_config": round(batch_s / BATCH * 1e6, 1),
        "rows_bit_identical": True,
        "jit_available": jit_available(),
        "jit_seconds": None if jit_s is None else round(jit_s, 4),
        "jit_bit_identical": jit_identical,
    }
    with open("BENCH_kernel.json", "w") as handle:
        json.dump(record, handle, indent=2)

    print()
    print(f"kernel: {BENCHMARK} x {BATCH} configs x {N_SAMPLES} samples "
          f"(min of {REPEATS})")
    print(f"  scalar loop     : {scalar_s * 1e3:8.1f} ms "
          f"({scalar_s / BATCH * 1e6:6.0f} us/config)")
    print(f"  batched kernel  : {batch_s * 1e3:8.1f} ms "
          f"({batch_s / BATCH * 1e6:6.0f} us/config, {speedup:.1f}x)")
    if jit_s is not None:
        print(f"  batched + JIT   : {jit_s * 1e3:8.1f} ms "
              f"({scalar_s / jit_s:.1f}x, bit-identical)")
    else:
        print("  batched + JIT   : numba not installed (NumPy fallback)")

    assert speedup >= MIN_SPEEDUP, (
        f"batched kernel speedup {speedup:.1f}x fell below the pinned "
        f"{MIN_SPEEDUP:.0f}x floor ({scalar_s:.3f}s scalar vs "
        f"{batch_s:.3f}s batched)"
    )
