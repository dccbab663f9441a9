"""Batched, parallel, cache-aware simulation execution.

The engine is the single execution path every layer above the simulator
goes through:

* :class:`~repro.engine.jobs.SimJob` — a content-addressed unit of work
  (benchmark, configuration, backend, options) with a process-stable
  hash key;
* :class:`~repro.engine.executor.LocalExecutor` /
  :class:`~repro.engine.executor.ParallelExecutor` — in-process and
  process-pool batch execution behind one
  :class:`~repro.engine.executor.Executor` protocol, with deterministic
  result ordering; the pool path ships results through a zero-copy
  shared-memory arena (:mod:`repro.engine.shm`) and autotunes chunk
  sizes from measured per-job wall time;
* :class:`~repro.engine.cache.ResultCache` — checksummed records on
  disk, one segment file per batch, plus an in-memory LRU front, keyed
  by job content hash, with a byte-capped mtime-LRU lifecycle over
  whole segments (``gc`` / ``gc_versions`` / ``clear``);
* :class:`~repro.engine.executor.ExecutionEngine` — composes the two:
  batch cache lookups, in-batch deduplication, miss execution — with a
  blocking ``run`` and a streaming ``submit`` returning a
  :class:`~repro.engine.executor.BatchHandle` (``as_completed`` /
  ``result(i)`` / ``results()``).

Typical use::

    from repro.engine import SimJob, create_engine

    engine = create_engine(jobs=8, cache_dir="~/.cache/repro")
    results = engine.run([SimJob("gcc", cfg) for cfg in configs])

    # Streaming: consume results as they finish (cache hits first).
    handle = engine.submit([SimJob("gcc", cfg) for cfg in configs])
    for index, result in handle.as_completed():
        analyse(result)          # overlaps the remaining simulations
"""

from repro.engine.cache import CacheStats, ResultCache, VERSION_TAG
from repro.engine.executor import (
    BatchHandle,
    ChunkTuner,
    ExecutionEngine,
    Executor,
    LocalExecutor,
    ParallelExecutor,
    ResultCallback,
    create_engine,
)
from repro.engine.jobs import KEY_VERSION, SimJob, make_jobs
from repro.engine.shm import (
    ArenaSpec,
    ShmArena,
    ShmResultDescriptor,
    shm_from_env,
    stack_rows,
)

__all__ = [
    "SimJob",
    "make_jobs",
    "KEY_VERSION",
    "VERSION_TAG",
    "Executor",
    "LocalExecutor",
    "ParallelExecutor",
    "ChunkTuner",
    "ExecutionEngine",
    "BatchHandle",
    "ResultCallback",
    "ResultCache",
    "CacheStats",
    "create_engine",
    "ArenaSpec",
    "ShmArena",
    "ShmResultDescriptor",
    "shm_from_env",
    "stack_rows",
]
