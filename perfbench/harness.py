"""Measurement loop, pinned environment, result line and steadiness report.

One run of one workload:

1. imports the program and builds the inputs (``setup_s``: the median
   import time of several fresh interpreters plus the median
   input-building time of the run's repetitions, in reference seconds);
2. repeats the workload's measured phase until the next repetition
   would end after ``--seconds``, each repetition from fresh inputs and
   cold process-level memos, and reports medians;
3. times a fixed pure-Python loop (the *spin*) before the first and
   after every repetition, and reports every time in reference seconds:
   the raw time scaled by ``REFERENCE_SPIN_S`` over the spins around it
   (the measured phase of a workload whose ``host_scaled`` is false is
   reported in raw seconds);
4. checks every repetition's outputs (see :mod:`checks`) and counts
   the operations attempted and failed;
5. prints an information line (environment block, raw samples, spins,
   digests) and, last, the result line.

Why reference seconds: on the shared 2-vCPU host the benchmark was
defined on, the speed of the same code swings by 10-25% from one
minute to the next, with the host, not the program.  The spin swings
with it (correlation 0.88 against detailed-backend jobs in 2-second
blocks), and dividing by it halved the run-to-run spread of
``detailed_sweep`` (0.137 to 0.058 over six runs).  The spin is
benchmark code, so a change to the program moves the reference time
exactly as it moves the raw time.  Raw times stay in the information
line and in the per-layer ``wall_raw_s`` and ``host.spin_s``.  The
spin tracks pure-Python work, not NumPy / BLAS work: ``paper_dse``,
whose time is in predictor fits, spreads more in reference seconds
than in raw ones, so its measured phase stays in raw seconds.

With ``--trace 1`` the repetitions alternate untraced and traced; the
untraced ones give ``trace.overhead_pct`` and the throughput figures,
the traced ones the per-layer numbers (see :mod:`tracing`).
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (cache directories, spans, digests of
#: seeds without stored digests) goes under here, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

E2E = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("jobs_per_s", "1/s", "higher"),
)

PER_LAYER = (
    ("engine.jobs.key.calls", "count", "lower"),
    ("engine.jobs.key.self_s", "s", "lower"),
    ("engine.cache.get.self_s", "s", "lower"),
    ("engine.cache.put.self_s", "s", "lower"),
    ("engine.cache.hits_memory", "count", "higher"),
    ("engine.cache.hits_disk", "count", "higher"),
    ("engine.cache.misses", "count", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.bytes_written", "B", "lower"),
    ("engine.executor.run.self_s", "s", "lower"),
    ("engine.executor.dedup_collapsed", "count", "higher"),
    ("engine.executor.pool_start_s", "s", "lower"),
    ("engine.executor.pool_stop_s", "s", "lower"),
    ("engine.executor.dispatch.self_s", "s", "lower"),
    ("engine.executor.plan.self_s", "s", "lower"),
    ("engine.executor.chunks", "count", "lower"),
    ("engine.executor.chunk_jobs_mean", "jobs", "higher"),
    ("engine.executor.wait_s", "s", "lower"),
    ("engine.shm.bytes", "B", "lower"),
    ("engine.shm.materialize.self_s", "s", "lower"),
    ("engine.kernel.groups", "count", "lower"),
    ("engine.kernel.group_jobs_mean", "jobs", "higher"),
    ("engine.kernel.run_group.self_s", "s", "lower"),
    ("uarch.interval_model.simulate_interval_batch.self_s", "s", "lower"),
    ("uarch.simulator.interval_result_to_simulation.self_s", "s", "lower"),
    ("dse.runner.run_configs.self_s", "s", "lower"),
    ("dse.runner.run_grid_streaming.self_s", "s", "lower"),
    ("workloads.generator.synthesize_interval.calls", "count", "lower"),
    ("workloads.generator.synthesize_interval.self_s", "s", "lower"),
    ("uarch.pipeline.run_interval.calls", "count", "lower"),
    ("uarch.pipeline.run_interval.self_s", "s", "lower"),
    ("uarch.detailed.run.self_s", "s", "lower"),
    ("power.wattch.self_s", "s", "lower"),
    ("reliability.avf.self_s", "s", "lower"),
    ("core.predictor.fit.calls", "count", "lower"),
    ("core.predictor.fit.self_s", "s", "lower"),
    ("core.predictor.predict.self_s", "s", "lower"),
    ("dse.explorer.search.self_s", "s", "lower"),
    ("sim_kips", "kinst/s", "higher"),
    ("mse_cpi_median_pct", "%", "lower"),
    ("mse_power_median_pct", "%", "lower"),
    ("mse_avf_median_pct", "%", "lower"),
    ("wall_raw_s", "s", "lower"),
    ("host.spin_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.attributed_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Thread pools pinned to one thread in the measured process and its
#: pool workers.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pinned_env(environ: Dict[str, str]) -> Dict[str, str]:
    """``environ`` without any ``REPRO_*`` variable, thread pools at 1.

    A stray ``REPRO_CACHE_DIR`` or ``REPRO_JOBS`` would silently change
    the workload, and BLAS threads would double the CPU time for the
    same wall time on a 2-CPU machine.
    """
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def env_block() -> Dict[str, object]:
    import numpy

    from repro.engine.kernel import batch_kernel_enabled
    from repro.engine.shm import shm_from_env
    from repro.uarch.jit import jit_enabled
    from repro.workloads.generator import _memo_enabled

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "batch_kernel": batch_kernel_enabled(),
        "jit": jit_enabled(),
        "shm": shm_from_env(),
        "trace_memo": _memo_enabled(),
        "cache_dir_fs": _fs_type(WORK_DIR.resolve()),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """(q3 - q1) / median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _cache_metrics(stats: Dict[str, float]) -> Dict[str, float]:
    hits = stats["memory_hits"] + stats["disk_hits"]
    lookups = hits + stats["misses"]
    return {
        "engine.cache.hits_memory": float(stats["memory_hits"]),
        "engine.cache.hits_disk": float(stats["disk_hits"]),
        "engine.cache.misses": float(stats["misses"]),
        "engine.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "engine.cache.bytes_written": float(stats["bytes_written"]),
    }


#: The spin's time on the host the benchmark was defined on (2 vCPUs,
#: Python 3.11, an idle minute); reference seconds are raw seconds
#: times this over the spin measured around them.
REFERENCE_SPIN_S = 0.15
SPIN_ITERATIONS = 2_000_000


def spin_seconds() -> float:
    """Time a fixed pure-Python loop: a probe of the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


#: Fresh interpreters that time importing the program (set-up cost a
#: user pays on every run); the median of them is reported.
IMPORT_SAMPLES = 5
_IMPORT_PROBE = """import sys, time
sys.path[:0] = {paths!r}
import numpy
start = time.perf_counter()
import workloads
workloads.import_program()
print(time.perf_counter() - start)
"""


def import_seconds(samples: int = IMPORT_SAMPLES) -> List[float]:
    code = _IMPORT_PROBE.format(paths=[str(Path(__file__).resolve().parent),
                                       str(ROOT / "src")])
    return [float(subprocess.run([sys.executable, "-c", code],
                                 stdout=subprocess.PIPE, text=True,
                                 check=True).stdout)
            for _ in range(samples)]


def run(name: str, seed: int, seconds: float, trace: bool,
        record: bool = False) -> int:
    from workloads import WORKLOADS, import_program, reset_memos

    import_program()
    spins = [spin_seconds()]
    import_samples = import_seconds()
    spins.append(spin_seconds())
    import_s = statistics.median(import_samples)

    workload = WORKLOADS[name](seed, WORK_DIR / "scratch")
    stored = checks.load_digests().get(name, {})
    expectations: List[Dict[str, str]] = [
        checks.expected_digests(stored, seed)]
    if hasattr(workload, "reference"):
        inputs = workload.setup()
        expectations.append(workload.reference(inputs))
        workload.cleanup(inputs)
    recorder = tracing.Recorder()
    uninstall = (tracing.install(recorder, tracing.LAYER_TARGETS)
                 if trace else None)

    setup_times: List[float] = []
    walls: List[float] = []  # reference seconds
    traced_walls: List[float] = []
    raw_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    cycles: List[float] = []
    first: Optional[Dict[str, str]] = None
    attempted = failed = 0
    failures: List[str] = []
    accuracy: Dict[str, float] = {}
    ops = []
    loop_start = time.perf_counter()
    rep = 0
    while True:
        cycle_start = time.perf_counter()
        traced = trace and rep % 2 == 1
        reset_memos()
        t = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - t)
        gc.collect()
        if traced:
            recorder.clear()
            recorder.enabled = True
        t = time.perf_counter()
        try:
            outputs = workload.run(inputs)
        finally:
            wall = time.perf_counter() - t
            recorder.enabled = False
        spins.append(spin_seconds())
        raw_walls.append(wall)
        if workload.host_scaled:
            wall *= 2 * REFERENCE_SPIN_S / (spins[-2] + spins[-1])
        if traced:
            traced_walls.append(wall)
            sample = tracing.layer_metrics(recorder, raw_walls[-1])
            sample.update(_cache_metrics(workload.cache_stats(outputs)))
            layers.append(sample)
        else:
            walls.append(wall)
        ops = workload.operations(outputs)
        a, f, bad = checks.verify(ops, *expectations, first or {})
        attempted += a
        failed += f
        failures += [b for b in bad if b not in failures]
        if first is None:
            first = {op.name: op.digest for op in ops}
        accuracy = workload.accuracy(outputs)
        workload.cleanup(inputs)
        del outputs, inputs
        rep += 1
        cycles.append(time.perf_counter() - cycle_start)
        if record:
            break
        elapsed = time.perf_counter() - loop_start
        if trace and not (walls and traced_walls):
            continue
        if elapsed + statistics.median(cycles) > seconds:
            break
    if uninstall is not None:
        uninstall()

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    shared, own = checks.split_for_storage(ops)
    info = {
        "workload": name, "seed": seed, "reps": rep, "env": env_block(),
        "wall_samples": walls, "traced_wall_samples": traced_walls,
        "raw_wall_samples": raw_walls, "spin_samples": spins,
        "setup_samples": setup_times, "import_samples": import_samples,
        "failed_operations": failures[:20],
        "digest": checks.digest_of(*sorted(first.items())) if first else None,
        "stored_digests": bool(stored.get(str(seed))),
    }
    if record:
        if failed:
            raise SystemExit(f"{name}: not recording failed operations "
                             f"{failures}")
        _record(name, seed, shared, own)
    elif not stored.get(str(seed)):
        # No digests stored for this seed: keep this run's, so the
        # parent and a change can be compared on it.
        out = WORK_DIR / "digests" / f"{name}-{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"*": shared, str(seed): own}, indent=1,
                                  sort_keys=True))
        info["digests_file"] = str(out.relative_to(ROOT))
    if trace and recorder.names:
        spans = WORK_DIR / "spans" / f"{name}-{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(recorder.dump()))
        info["spans_file"] = str(spans.relative_to(ROOT))

    if trace:
        metrics = {key: statistics.median(s[key] for s in layers)
                   for key in layers[0]}
        untraced = statistics.median(walls)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / untraced - 1.0)
        metrics["sim_kips"] = workload.kinst_per_rep / untraced
        # Untraced repetitions are the even ones.
        metrics["wall_raw_s"] = statistics.median(raw_walls[0::2])
        metrics["host.spin_s"] = statistics.median(spins)
        for key in ("mse_cpi_median_pct", "mse_power_median_pct",
                    "mse_avf_median_pct"):
            metrics[key] = accuracy.get(key, 0.0)
        catalog = PER_LAYER
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "setup_s": (import_s + statistics.median(setup_times))
            * REFERENCE_SPIN_S / statistics.median(spins),
            "peak_rss_mb": _peak_rss_mb(name == "pool_mixed"),
            "jobs_per_s": workload.jobs_per_rep / wall,
        }
        catalog = E2E
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit, _ in catalog},
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def stop_helpers() -> None:
    """Stop the multiprocessing resource tracker and wait for it to end.

    Creating a shared-memory segment (the pool's shm transport) starts
    a tracker process that is left to outlive its parent; stopping it
    here means no process of the run survives the run.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _record(name: str, seed: int, shared: Dict, own: Dict) -> None:
    """Store one repetition's digests with the benchmark."""
    data = checks.load_digests()
    entry = data.setdefault(name, {})
    if entry.get("*", shared) != shared:
        raise SystemExit(f"{name}: seed-independent digests changed")
    entry["*"] = shared
    entry[str(seed)] = own
    checks.DIGESTS_PATH.write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------
def steadiness(script: Path, name: str, seed: int, runs: int, seconds: float,
               trace: bool) -> int:
    """Run ``name`` ``runs`` times (seeds ``seed``...) and report spreads.

    Each run is a fresh process.  Prints, per metric, the median, the
    quartiles and (q3 - q1) / median, marking any metric whose spread
    exceeds its bound in ``BENCHMARK.json``.
    """
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", ())}
    values: Dict[str, List[float]] = {}
    raw_walls: List[float] = []
    incorrect = 0
    for i in range(runs):
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", name,
             "--seed", str(seed + i), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        incorrect += not result["correct"]
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        raw_walls.append(statistics.median(info["raw_wall_samples"]))
        print(f"run {i + 1}/{runs} seed {seed + i}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if not trace or k == "trace.overhead_pct")
              + "  walls=" + " ".join(f"{w:.3f}" for w in info[
                  "wall_samples"] + info["traced_wall_samples"]), flush=True)
    print(f"{name}: {runs} runs, {incorrect} incorrect")
    print(f"{'metric':54} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    unsteady = 0
    for key, series in values.items():
        q1, median, q3 = quartiles(series)
        share = spread(series)
        bound = bounds.get(key)
        flag = ""
        if bound is not None and key != "setup_s" and share > bound:
            flag, unsteady = "  OVER BOUND", unsteady + 1
        print(f"{key:54} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{share:8.3f} {'' if bound is None else bound:>6}{flag}")
    q1, median, q3 = quartiles(raw_walls)
    print(f"{'(raw seconds of every repetition)':54} {median:12.5g} "
          f"{q1:12.5g} {q3:12.5g} {spread(raw_walls):8.3f}")
    return 1 if unsteady or incorrect else 0
