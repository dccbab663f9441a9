"""Outside-in span tracing of the program's layers.

The benchmark installs wrappers, from its own files, around the public
functions each layer exposes; the program's source stays untouched.
Every wrapped call records one span (name, start, end, parent) on a
stack held in memory.  A layer's *self time* is its spans' durations
minus the time their child spans cover.

Only calls made on the main thread of the benchmark process are
recorded.  Pool workers are forked with the wrappers in place, so a
fork hook switches their recorder off: worker-side time shows up in the
parent as time spent waiting on futures (``engine.executor.wait``).
Spans inside workers need tracing inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter


class Recorder:
    """Span stack plus plain counters for one traced repetition."""

    def __init__(self):
        self.enabled = False
        self._main = threading.get_ident()
        self.clear()

    def clear(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}

    def active(self) -> bool:
        return self.enabled and threading.get_ident() == self._main

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    def add_span(self, name: str, start: float, end: float,
                 parent: int = -1) -> int:
        """Append a finished span (for synthetic trees and tests)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, Tuple[int, float, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + duration,
                         self_s + duration - child[i])
        return out

    def dump(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


Hook = Callable[[Recorder, tuple, dict, object], None]


def _wrap_function(rec: Recorder, fn, name: str, hook: Optional[Hook]):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


def _wrap_generator(rec: Recorder, fn, name: str, hook: Optional[Hook]):
    """Time each resumption of a generator as one span."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                if rec.active():
                    index = rec.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.close(index)
                else:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                yield item
        finally:
            gen.close()

    return traced


class Target:
    """One traced callable: ``module:Qual.name`` recorded as ``span``."""

    def __init__(self, path: str, span: str, hook: Optional[Hook] = None):
        self.module, _, self.qualname = path.partition(":")
        self.span = span
        self.hook = hook


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(rec: Recorder, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target; returns a callable that restores the originals.

    Methods are replaced on their class.  Module-level functions are
    replaced in every loaded ``repro`` module that holds them, so names
    bound with ``from module import function`` are traced too.  Forked
    children stop recording.
    """
    os.register_at_fork(after_in_child=lambda: setattr(rec, "enabled",
                                                       False))
    undo: List[Tuple[object, str, object]] = []
    for target in targets:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        wrap = (_wrap_generator if inspect.isgeneratorfunction(fn)
                else _wrap_function)
        traced = wrap(rec, fn, target.span, target.hook)
        replacement = kind(traced) if kind is not None else traced
        if isinstance(owner, type):
            undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if module is owner or name == "repro" or name.startswith(
                    "repro."):
                namespace = getattr(module, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is fn:
                        undo.append((module, key, value))
                        setattr(module, key, replacement)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# The layers: which public functions are traced, and their counters
# ----------------------------------------------------------------------
def _count_dedup(rec: Recorder, args, kwargs, handle) -> None:
    unique = getattr(handle, "_unique", None)
    if unique is not None:
        rec.count("engine.executor.dedup_collapsed",
                  len(handle.jobs) - handle.cache_hits - len(unique))


def _count_chunk(rec: Recorder, args, kwargs, stop) -> None:
    rec.count("engine.executor.chunks")
    rec.count("engine.executor.chunk_jobs", stop - args[1])


def _count_group(rec: Recorder, args, kwargs, results) -> None:
    rec.count("engine.kernel.groups")
    rec.count("engine.kernel.group_jobs", len(results))


def _count_arena(rec: Recorder, args, kwargs, arena) -> None:
    if arena is not None:
        rec.count("engine.shm.bytes", arena.spec.total_bytes)


LAYER_TARGETS = (
    Target("repro.engine.jobs:SimJob.key", "engine.jobs.key"),
    Target("repro.engine.cache:ResultCache.get", "engine.cache.get"),
    Target("repro.engine.cache:ResultCache.put", "engine.cache.put"),
    Target("repro.engine.executor:ExecutionEngine.run",
           "engine.executor.run"),
    Target("repro.engine.executor:ExecutionEngine.submit",
           "engine.executor.run", _count_dedup),
    Target("repro.engine.executor:BatchHandle.as_completed",
           "engine.executor.run"),
    Target("repro.engine.executor:BatchHandle.result",
           "engine.executor.run"),
    Target("repro.engine.executor:ParallelExecutor.submit_batch",
           "engine.executor.dispatch"),
    Target("repro.engine.executor:ChunkTuner.plan", "engine.executor.plan"),
    Target("repro.engine.executor:batch_group_run", "engine.executor.plan"),
    Target("repro.engine.executor:carve_chunk", "engine.executor.plan",
           _count_chunk),
    Target("repro.engine.executor:wait", "engine.executor.wait"),
    Target("concurrent.futures.process:ProcessPoolExecutor._spawn_process",
           "engine.executor.pool_start"),
    Target("repro.engine.executor:ParallelExecutor._close_pool",
           "engine.executor.pool_stop"),
    Target("repro.engine.shm:ShmArena.create", "engine.shm.create",
           _count_arena),
    Target("repro.engine.shm:ShmArena.materialize",
           "engine.shm.materialize"),
    Target("repro.engine.kernel:run_group", "engine.kernel.run_group",
           _count_group),
    Target("repro.uarch.interval_model:simulate_interval_batch",
           "uarch.interval_model.simulate_interval_batch"),
    Target("repro.uarch.simulator:interval_result_to_simulation",
           "uarch.simulator.interval_result_to_simulation"),
    Target("repro.dse.runner:SweepRunner.run_configs",
           "dse.runner.run_configs"),
    Target("repro.dse.runner:SweepRunner.run_grid_streaming",
           "dse.runner.run_grid_streaming"),
    Target("repro.workloads.generator:synthesize_interval",
           "workloads.generator.synthesize_interval"),
    Target("repro.uarch.pipeline:OutOfOrderCore.run_interval",
           "uarch.pipeline.run_interval"),
    Target("repro.uarch.detailed:DetailedSimulator.run", "uarch.detailed.run"),
    Target("repro.uarch.detailed:run_detailed_group", "uarch.detailed.run"),
    Target("repro.power.wattch:WattchModel.power_from_counters",
           "power.wattch"),
    Target("repro.power.wattch:power_trace_batch", "power.wattch"),
    Target("repro.reliability.avf:AVFModel.avf_from_counters",
           "reliability.avf"),
    Target("repro.reliability.avf:AVFModel.avf_traces", "reliability.avf"),
    Target("repro.core.predictor:WaveletNeuralPredictor.fit",
           "core.predictor.fit"),
    Target("repro.core.predictor:WaveletNeuralPredictor.predict",
           "core.predictor.predict"),
    Target("repro.dse.explorer:PredictiveExplorer.search",
           "dse.explorer.search"),
)


def layer_metrics(rec: Recorder, wall_s: float) -> Dict[str, float]:
    """Per-layer numbers of one traced repetition (0 for absent layers)."""
    totals = rec.totals()
    counters = rec.counters

    def calls(span: str) -> float:
        return float(totals.get(span, (0, 0.0, 0.0))[0])

    def total_s(span: str) -> float:
        return totals.get(span, (0, 0.0, 0.0))[1]

    def self_s(span: str) -> float:
        return totals.get(span, (0, 0.0, 0.0))[2]

    def mean(total: str, count: str) -> float:
        n = counters.get(count, 0)
        return counters.get(total, 0) / n if n else 0.0

    self_sum = sum(entry[2] for entry in totals.values())
    return {
        "engine.jobs.key.calls": calls("engine.jobs.key"),
        "engine.jobs.key.self_s": self_s("engine.jobs.key"),
        "engine.cache.get.self_s": self_s("engine.cache.get"),
        "engine.cache.put.self_s": self_s("engine.cache.put"),
        "engine.executor.run.self_s": self_s("engine.executor.run"),
        "engine.executor.dedup_collapsed":
            float(counters.get("engine.executor.dedup_collapsed", 0)),
        "engine.executor.pool_start_s": total_s("engine.executor.pool_start"),
        "engine.executor.pool_stop_s": total_s("engine.executor.pool_stop"),
        "engine.executor.dispatch.self_s": self_s("engine.executor.dispatch"),
        "engine.executor.plan.self_s": self_s("engine.executor.plan"),
        "engine.executor.chunks":
            float(counters.get("engine.executor.chunks", 0)),
        "engine.executor.chunk_jobs_mean":
            mean("engine.executor.chunk_jobs", "engine.executor.chunks"),
        "engine.executor.wait_s": total_s("engine.executor.wait"),
        "engine.shm.bytes": float(counters.get("engine.shm.bytes", 0)),
        "engine.shm.materialize.self_s": self_s("engine.shm.materialize"),
        "engine.kernel.groups": float(counters.get("engine.kernel.groups", 0)),
        "engine.kernel.group_jobs_mean":
            mean("engine.kernel.group_jobs", "engine.kernel.groups"),
        "engine.kernel.run_group.self_s": self_s("engine.kernel.run_group"),
        "uarch.interval_model.simulate_interval_batch.self_s":
            self_s("uarch.interval_model.simulate_interval_batch"),
        "uarch.simulator.interval_result_to_simulation.self_s":
            self_s("uarch.simulator.interval_result_to_simulation"),
        "dse.runner.run_configs.self_s": self_s("dse.runner.run_configs"),
        "dse.runner.run_grid_streaming.self_s":
            self_s("dse.runner.run_grid_streaming"),
        "workloads.generator.synthesize_interval.calls":
            calls("workloads.generator.synthesize_interval"),
        "workloads.generator.synthesize_interval.self_s":
            self_s("workloads.generator.synthesize_interval"),
        "uarch.pipeline.run_interval.calls": calls("uarch.pipeline.run_interval"),
        "uarch.pipeline.run_interval.self_s":
            self_s("uarch.pipeline.run_interval"),
        "uarch.detailed.run.self_s": self_s("uarch.detailed.run"),
        "power.wattch.self_s": self_s("power.wattch"),
        "reliability.avf.self_s": self_s("reliability.avf"),
        "core.predictor.fit.calls": calls("core.predictor.fit"),
        "core.predictor.fit.self_s": self_s("core.predictor.fit"),
        "core.predictor.predict.self_s": self_s("core.predictor.predict"),
        "dse.explorer.search.self_s": self_s("dse.explorer.search"),
        "trace.spans": float(len(rec.names)),
        "trace.attributed_pct": 100.0 * self_sum / wall_s if wall_s else 0.0,
    }
