"""Bench: the compiled detailed-pipeline kernel vs the interpreter.

Times a 64-interval detailed run on both steppers of the detailed
interval loop — the object-model interpreter (``jit.set_jit(False)``)
and the compiled struct-of-arrays kernel (``jit.set_jit(True)``, a
batch of one) — and proves bit-identity across {interpreter, kernel} x
{fresh, checkpoint-resumed} before any timing is trusted.  With numba
installed (CI's with-numba leg) the kernel must clear a **>=5x**
speedup over the interpreter; without numba both settings run the
interpreter and only the bit-identity claims are asserted.

A second leg times a **group**: 64 configs advanced through one
compiled ``prange`` call per interval
(:func:`~repro.uarch.detailed.run_detailed_group`, two threads) against
the same 64 configs run job by job (``job.run()``, each a compiled
batch of one).  Bit-identity is asserted member-for-member, fresh and
resumed from identical mid-run snapshots; with numba the group must
clear **>=3x** over per-job runs in both cases.

All runs are measured warm — the trace memo is shared state, njit
compilation (persistent-cache or in-memory) happens on an untimed
warm-up pass — best of two runs.  Results land in
``BENCH_detailed_kernel.json`` (CI artifact); ``numba_available``
records whether the compiled kernel ran.
"""

import dataclasses
import hashlib
import json
import shutil
import time
from contextlib import contextmanager

import numpy as np

from repro.engine.jobs import SimJob
from repro.uarch import detailed as detailed_module
from repro.uarch import jit
from repro.uarch.detailed import DetailedSimulator, run_detailed_group
from repro.uarch.jit import jit_available
from repro.uarch.params import baseline_config

N_SAMPLES = 64
IPS = 1000
CHECKPOINT_EVERY = 8
CRASH_AT = 25         # crash before interval 25; snapshot at 24
MIN_SPEEDUP = 5.0

# Batched leg: shorter intervals over a wide config axis — the shape a
# detailed DSE group actually has (many near-identical configs, one
# workload), where per-core call overhead is the bottleneck batching
# removes.  Without numba both paths run the interpreter (parity is the
# only claim, no floor), so the leg shrinks to keep the numba-less CI
# legs fast.
BATCH_SIZE = 64 if jit_available() else 16
BATCH_SAMPLES = 32 if jit_available() else 16
BATCH_IPS = 250
BATCH_EVERY = 8
BATCH_CRASH_AT = 9   # first snapshot lands at interval 8, then crash
BATCH_THREADS = 2
MIN_BATCH_SPEEDUP = 3.0

STREAMS = ("cpi", "power", "avf", "iq_avf", "mispredict_rate",
           "dvm_throttled_frac")

#: 8x400 gcc/baseline digest pinned in tests/test_detailed_kernel.py —
#: re-asserted here so the bench never times a behaviourally-drifted
#: build.
GOLDEN_GCC_BASELINE = \
    "72d40a0fe267aa9a2bd4b6eea233fadc404f6f71524086026bbfe77a34c24747"


def _digest(result) -> str:
    parts = []
    for name in STREAMS:
        arr = result.traces.get(name)
        if arr is None:
            arr = result.components[name]
        parts.append(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


@contextmanager
def _stepper(compiled):
    """Run on the compiled kernel (where numba is installed) or the
    interpreter."""
    jit.set_jit(compiled)
    try:
        yield
    finally:
        jit.set_jit(None)


class _Crash(Exception):
    pass


@contextmanager
def _crash_before(interval):
    """Make the detailed interval loop raise when it reaches measured
    ``interval``, on either stepper."""
    original = detailed_module.synthesize_interval

    def crashing(workload, i, n, ips, seed=None):
        if i == interval and seed is None:
            raise _Crash()
        if seed is None:
            return original(workload, i, n, ips)
        return original(workload, i, n, ips, seed=seed)

    detailed_module.synthesize_interval = crashing
    try:
        yield
        raise AssertionError("crash injection never fired")
    except _Crash:
        pass
    finally:
        detailed_module.synthesize_interval = original


def _run(compiled, **kwargs):
    with _stepper(compiled):
        return DetailedSimulator(baseline_config()).run(
            "gcc", n_samples=N_SAMPLES, instructions_per_sample=IPS,
            **kwargs)


def _timed_run(compiled):
    best = float("inf")
    digest = None
    for _ in range(2):
        start = time.perf_counter()
        result = _run(compiled)
        wall = time.perf_counter() - start
        best = min(best, wall)
        digest = _digest(result)
    return digest, best


def _resumed_digest(compiled, path):
    """Crash a checkpointing run mid-benchmark, resume it, digest it."""
    with _crash_before(CRASH_AT):
        _run(compiled, checkpoint_every=CHECKPOINT_EVERY,
             checkpoint_path=path)
    assert path.exists(), "no checkpoint written before the crash"
    return _digest(_run(compiled, checkpoint_every=CHECKPOINT_EVERY,
                        checkpoint_path=path))


def test_goldens_unchanged():
    result = DetailedSimulator(baseline_config()).run(
        "gcc", n_samples=8, instructions_per_sample=400)
    assert _digest(result) == GOLDEN_GCC_BASELINE


def test_kernel_bit_identity_and_speedup(tmp_path):
    # Warm the trace memo (and trigger njit compilation when numba is
    # present) before anything is timed.
    _run(False)
    _run(True)

    interp_digest, interp_wall = _timed_run(False)
    kernel_digest, kernel_wall = _timed_run(True)
    assert kernel_digest == interp_digest, (
        "kernel and interpreter streams diverged")

    resumed_interp = _resumed_digest(False, tmp_path / "interp.ckpt.npz")
    resumed_kernel = _resumed_digest(True, tmp_path / "kernel.ckpt.npz")
    assert resumed_interp == interp_digest, (
        "checkpoint-resumed interpreter run diverged from a fresh one")
    assert resumed_kernel == interp_digest, (
        "checkpoint-resumed kernel run diverged from a fresh one")

    speedup = interp_wall / kernel_wall
    compiled = jit_available()
    print(f"\n{N_SAMPLES}x{IPS} gcc/baseline: interpreter "
          f"{interp_wall:.3f}s, JIT setting {kernel_wall:.3f}s "
          f"({speedup:.1f}x, numba {'present' if compiled else 'absent'}); "
          f"fresh/resumed digests identical across steppers")
    if compiled:
        assert speedup >= MIN_SPEEDUP, (
            f"compiled kernel speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP:.0f}x floor"
        )

    record = {
        "bench": "detailed_kernel",
        "n_samples": N_SAMPLES,
        "instructions_per_sample": IPS,
        "numba_available": compiled,
        "interpreter_wall_seconds": round(interp_wall, 4),
        "kernel_wall_seconds": round(kernel_wall, 4),
        "speedup": round(speedup, 2),
        "min_speedup_enforced": MIN_SPEEDUP if compiled else None,
        "bit_identical_fresh": True,
        "bit_identical_resumed": True,
        "digest": interp_digest,
    }
    _merge_record(record)


def _merge_record(update):
    """Fold one leg's metrics into ``BENCH_detailed_kernel.json`` so the
    scalar and batched legs can run in either order (or alone)."""
    try:
        with open("BENCH_detailed_kernel.json") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {"bench": "detailed_kernel"}
    record.update(update)
    with open("BENCH_detailed_kernel.json", "w") as handle:
        json.dump(record, handle, indent=2)


# ----------------------------------------------------------------------
# Batched leg: one stacked kernel call per interval for a 64-config group
# ----------------------------------------------------------------------
def _batch_jobs(checkpoint_dir=None):
    base = baseline_config()
    kwargs = {}
    if checkpoint_dir is not None:
        kwargs = dict(checkpoint_every=BATCH_EVERY,
                      checkpoint_dir=str(checkpoint_dir))
    return [
        SimJob("gcc", dataclasses.replace(base, iq_size=16 + i),
               backend="detailed", n_samples=BATCH_SAMPLES,
               instructions_per_sample=BATCH_IPS, **kwargs)
        for i in range(BATCH_SIZE)
    ]


def _timed(fn, reps=2):
    best = float("inf")
    out = None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def test_batched_kernel_bit_identity_and_speedup(tmp_path):
    jit.set_jit_threads(BATCH_THREADS)
    try:
        with _stepper(True):
            jobs = _batch_jobs()

            # Warm-up, off the measured path: trace memo and the prange
            # batch-loop compile land here.
            def scalar_leg():
                return [job.run() for job in jobs]

            scalar_digests = [_digest(r) for r in scalar_leg()]
            warm = run_detailed_group(jobs)
            assert [_digest(r) for r in warm] == scalar_digests, (
                "group streams diverged from per-job runs")

            scalar_results, scalar_wall = _timed(scalar_leg)
            batch_results, batch_wall = _timed(
                lambda: run_detailed_group(jobs))
            assert [_digest(r) for r in scalar_results] == scalar_digests
            assert [_digest(r) for r in batch_results] == scalar_digests

            # Resumed leg: crash one checkpointing group run mid-stream,
            # clone the snapshot directory, and resume the identical
            # snapshots both ways.
            dir_scalar = tmp_path / "ckpt-scalar"
            dir_batch = tmp_path / "ckpt-batch"
            jobs_scalar = _batch_jobs(dir_scalar)
            jobs_batch = _batch_jobs(dir_batch)
            with _crash_before(BATCH_CRASH_AT):
                run_detailed_group(jobs_scalar)
            snapshots = list(dir_scalar.glob("*.ckpt.npz"))
            assert len(snapshots) == BATCH_SIZE, (
                "expected one mid-stream snapshot per group member")
            shutil.copytree(dir_scalar, dir_batch)

            resumed_scalar, scalar_resumed_wall = _timed(
                lambda: [job.run() for job in jobs_scalar], reps=1)
            resumed_batch, batch_resumed_wall = _timed(
                lambda: run_detailed_group(jobs_batch), reps=1)
            assert [_digest(r) for r in resumed_scalar] == scalar_digests, (
                "per-job resumed streams diverged from fresh runs")
            assert [_digest(r) for r in resumed_batch] == scalar_digests, (
                "group-resumed streams diverged from fresh runs")
    finally:
        jit.set_jit_threads(None)

    compiled = jit_available()
    speedup = scalar_wall / batch_wall
    resumed_speedup = scalar_resumed_wall / batch_resumed_wall
    print(f"\nB={BATCH_SIZE} x {BATCH_SAMPLES}x{BATCH_IPS} gcc: per-job "
          f"{scalar_wall:.3f}s, batched {batch_wall:.3f}s "
          f"({speedup:.1f}x fresh); resumed {scalar_resumed_wall:.3f}s vs "
          f"{batch_resumed_wall:.3f}s ({resumed_speedup:.1f}x); "
          f"{BATCH_THREADS} threads, digests identical")
    if compiled:
        assert speedup >= MIN_BATCH_SPEEDUP, (
            f"fresh batched speedup {speedup:.2f}x below the "
            f"{MIN_BATCH_SPEEDUP:.0f}x floor")
        assert resumed_speedup >= MIN_BATCH_SPEEDUP, (
            f"resumed batched speedup {resumed_speedup:.2f}x below the "
            f"{MIN_BATCH_SPEEDUP:.0f}x floor")

    _merge_record({
        "batched": {
            "batch_size": BATCH_SIZE,
            "n_samples": BATCH_SAMPLES,
            "instructions_per_sample": BATCH_IPS,
            "jit_threads": BATCH_THREADS,
            "numba_available": compiled,
            "scalar_wall_seconds": round(scalar_wall, 4),
            "batched_wall_seconds": round(batch_wall, 4),
            "speedup": round(speedup, 2),
            "resumed_scalar_wall_seconds": round(scalar_resumed_wall, 4),
            "resumed_batched_wall_seconds": round(batch_resumed_wall, 4),
            "resumed_speedup": round(resumed_speedup, 2),
            "min_speedup_enforced": MIN_BATCH_SPEEDUP if compiled else None,
            "bit_identical": True,
        },
    })
