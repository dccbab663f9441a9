"""Bench: engine-aware detailed backend — chunk autotuning + resume.

The detailed backend costs seconds per job, which makes it both the
dominant expense of the engine and the place where scheduling decisions
matter most.  This bench pins the two PR-3 behaviours:

* the **chunk tuner** measures per-job wall time from the first
  completed chunk of each backend and sizes later chunks accordingly —
  detailed jobs must end up at least 8x finer-chunked than interval
  jobs, so the ``as_completed`` stream stays responsive where jobs are
  slow and IPC stays amortized where jobs are fast;
* a detailed sweep killed with **SIGKILL** mid-benchmark resumes from
  its per-interval checkpoint and produces bit-identical traces while
  re-simulating only the intervals after the snapshot.

Results land in ``BENCH_detailed_backend.json`` (CI artifact).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.dse.space import paper_design_space
from repro.engine import ParallelExecutor, SimJob
from repro.uarch.params import baseline_config

N_SAMPLES = 16
IPS = 120
KILL_AFTER = 13  # warmup + 12 measured intervals (checkpoint lands at 12)
CHECKPOINT_EVERY = 4

_AUTOTUNE_RECORD = {}  # filled by the autotune test, merged into the JSON


def test_autotuner_chunks_detailed_fine_interval_coarse():
    configs = paper_design_space().sample_random(8, split="train", seed=17)
    interval_jobs = [SimJob("gcc", c, n_samples=128) for c in configs] * 8
    detailed_jobs = [SimJob("gcc", c, backend="detailed", n_samples=4,
                            instructions_per_sample=200) for c in configs]
    with ParallelExecutor(max_workers=2) as ex:
        start = time.perf_counter()
        list(ex.submit_batch(interval_jobs))
        interval_wall = time.perf_counter() - start
        start = time.perf_counter()
        list(ex.submit_batch(detailed_jobs))
        detailed_wall = time.perf_counter() - start

        tuner = ex.tuner
        per_interval = tuner._tuned["interval"]
        per_detailed = tuner._tuned["detailed"]
        coarse = tuner.plan("interval", 250, ex.max_workers)
        fine = tuner.plan("detailed", 250, ex.max_workers)

    print(f"\nmeasured per-job seconds: interval {per_interval * 1e3:.2f} ms, "
          f"detailed {per_detailed * 1e3:.1f} ms "
          f"({per_detailed / per_interval:.0f}x slower)")
    print(f"tuned chunk sizes for a 250-job batch: interval {coarse}, "
          f"detailed {fine}")
    print(f"walls: interval batch {interval_wall:.2f}s, "
          f"detailed batch {detailed_wall:.2f}s")

    # Recorded before the gates, so a failing run still reports them.
    _AUTOTUNE_RECORD.update({
        "per_job_seconds_interval": round(per_interval, 6),
        "per_job_seconds_detailed": round(per_detailed, 6),
        "chunk_interval": coarse,
        "chunk_detailed": fine,
    })
    assert per_detailed > per_interval
    assert coarse >= 8 * fine, (
        f"interval chunks ({coarse}) should be >=8x coarser than detailed "
        f"chunks ({fine})"
    )


def test_sigkill_resume_saves_work(tmp_path):
    job = SimJob("swim", baseline_config(), backend="detailed",
                 n_samples=N_SAMPLES, instructions_per_sample=IPS)
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CHECKPOINT_EVERY"] = str(CHECKPOINT_EVERY)
    env["REPRO_CHECKPOINT_DIR"] = str(tmp_path)
    out_npz = tmp_path / "resumed.npz"

    common = f"""
import numpy as np
from repro.engine import SimJob
from repro.uarch.params import baseline_config
job = SimJob("swim", baseline_config(), backend="detailed",
             n_samples={N_SAMPLES}, instructions_per_sample={IPS})
"""
    # The hooks count the intervals the detailed loop synthesizes,
    # warmup included.
    killed = common + f"""
import os, signal
import repro.uarch.detailed as detailed
original = detailed.synthesize_interval
calls = [0]
def dying(*args, **kwargs):
    calls[0] += 1
    if calls[0] > {KILL_AFTER}:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(*args, **kwargs)
detailed.synthesize_interval = dying
job.run()
"""
    resume = common + f"""
import repro.uarch.detailed as detailed
original = detailed.synthesize_interval
calls = [0]
def counting(*args, **kwargs):
    calls[0] += 1
    return original(*args, **kwargs)
detailed.synthesize_interval = counting
result = job.run()
np.savez({str(out_npz)!r}, intervals=np.array(calls[0]),
         **result.traces, **result.components)
"""
    start = time.perf_counter()
    first = subprocess.run([sys.executable, "-c", killed], env=env,
                           capture_output=True)
    killed_wall = time.perf_counter() - start
    assert first.returncode == -signal.SIGKILL, first.stderr.decode()
    assert (tmp_path / f"{job.key()}.ckpt.npz").exists()

    start = time.perf_counter()
    second = subprocess.run([sys.executable, "-c", resume], env=env,
                            capture_output=True)
    resume_wall = time.perf_counter() - start
    assert second.returncode == 0, second.stderr.decode()

    clean = job.run()  # no checkpoint env in this process
    with np.load(out_npz) as resumed:
        resumed_intervals = int(resumed["intervals"])
        for domain, arr in clean.traces.items():
            assert np.array_equal(resumed[domain], arr)
        for name, arr in clean.components.items():
            assert np.array_equal(resumed[name], arr)

    # The resume re-simulated only the post-snapshot tail (no warmup,
    # no intervals before the last multiple of CHECKPOINT_EVERY).
    last_snapshot = ((KILL_AFTER - 1) // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
    expected = N_SAMPLES - last_snapshot
    print(f"\nSIGKILL after {KILL_AFTER - 1}/{N_SAMPLES} intervals "
          f"(wall {killed_wall:.2f}s); resume simulated "
          f"{resumed_intervals}/{N_SAMPLES} intervals "
          f"(wall {resume_wall:.2f}s), bit-identical to a clean run")
    assert resumed_intervals == expected

    record = {
        "bench": "detailed_backend",
        "n_samples": N_SAMPLES,
        "instructions_per_sample": IPS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "killed_after_intervals": KILL_AFTER - 1,
        "resume_simulated_intervals": resumed_intervals,
        "intervals_saved_by_resume": N_SAMPLES - resumed_intervals,
        "killed_wall_seconds": round(killed_wall, 3),
        "resume_wall_seconds": round(resume_wall, 3),
        "bit_identical": True,
        **_AUTOTUNE_RECORD,
    }
    with open("BENCH_detailed_backend.json", "w") as handle:
        json.dump(record, handle, indent=2)
