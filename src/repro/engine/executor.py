"""The executor: run job batches in-process or across worker processes.

:class:`ParallelExecutor` is the one executor.  Its one method,
``submit_batch(jobs)``, yields ``(job_index, result)`` pairs in
**completion order**.  With ``max_workers=1`` (the engine default) it
runs the batch in-process, group by group, in job order; with more
workers it fans chunks out over a process pool.  Because each
:class:`~repro.engine.jobs.SimJob` is deterministic (the interval model
seeds its measurement texture from the job content itself), both paths
produce bit-identical traces; ``tests/test_engine.py``,
``tests/test_streaming.py`` and ``tests/test_shm_transport.py`` pin
that property.

The pool path brings results home through a zero-copy shared-memory
arena by default (:mod:`repro.engine.shm`): workers write trace rows
straight into a preallocated per-batch block and only tiny descriptors
cross the pool pipe.  It also sizes chunks per backend from measured
per-job wall time (:class:`ChunkTuner`) — coarse chunks for
sub-millisecond interval jobs, fine-grained ones for seconds-per-job
detailed runs.

:class:`ExecutionEngine` composes the executor with an optional
:class:`~repro.engine.cache.ResultCache`: batch lookups first, duplicate
jobs deduplicated by content key, only the misses dispatched.  Its
``submit`` method returns a :class:`BatchHandle` whose ``as_completed``
stream resolves cache hits immediately and surfaces pool results as they
finish — the consumer can start analysing early results (e.g. fitting
predictive models) while the tail of the batch is still simulating.
"""

from __future__ import annotations

import dataclasses
import os
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.errors import EngineError, SimulationError
from repro.engine.cache import PendingSegment, ResultCache
from repro.engine.jobs import SimJob
from repro.engine.kernel import run_jobs, stream_jobs
from repro.engine.shm import ArenaSpec, ShmArena, shm_from_env, write_results
from repro.uarch.simulator import SimulationResult

#: Signature of per-result progress callbacks:
#: ``callback(job_index, job, result, from_cache)``.
ResultCallback = Callable[[int, SimJob, SimulationResult, bool], None]


class Executor(Protocol):
    """Anything that can run a batch of simulation jobs."""

    def submit_batch(self, jobs: Sequence[SimJob],
                     ) -> Iterator[Tuple[int, SimulationResult]]:
        """Stream ``(job_index, result)`` pairs in completion order."""
        ...


def _run_chunk_transport(jobs: Sequence[SimJob],
                         spec: Optional[ArenaSpec],
                         rows: Sequence[int]):
    """Pool worker entry: run a chunk, ship results, report wall time.

    With an arena ``spec`` the trace/component arrays are written
    straight into shared memory and only tiny descriptors return over
    the pipe; without one the results themselves are returned (the
    pickle transport).  The measured seconds cover simulation only —
    the chunk tuner uses them to size subsequent chunks per backend.
    Interval jobs in the chunk run through the batched kernel (see
    :mod:`repro.engine.kernel`).
    """
    start = time.perf_counter()
    results = run_jobs(jobs)
    elapsed = time.perf_counter() - start
    if spec is None:
        return results, elapsed
    return write_results(spec, rows, results), elapsed


#: Chunk size used to probe a backend whose per-job cost is unknown yet.
PROBE_CHUNK_SIZE = 4

#: Wall-clock seconds one chunk should take once a backend is tuned:
#: long enough to amortize IPC, short enough that ``as_completed``
#: streaming stays responsive even for seconds-per-job detailed runs.
DEFAULT_TARGET_CHUNK_SECONDS = 0.25


class ChunkTuner:
    """Per-backend EMA of measured per-job wall time, turned into chunk
    sizes.

    An untimed backend starts with a small probe chunk so its first
    measurement lands quickly; once timed, chunks target
    ``target_seconds`` of work each.
    """

    def __init__(self,
                 target_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS):
        if target_seconds <= 0:
            raise EngineError(
                f"target_seconds must be > 0, got {target_seconds}"
            )
        self.target_seconds = target_seconds
        self._tuned: Dict[Hashable, float] = {}  # key -> per-job seconds

    def known(self, key: Hashable) -> bool:
        return key in self._tuned

    def record(self, key: Hashable, per_job: float) -> None:
        old = self._tuned.get(key)
        self._tuned[key] = per_job if old is None else 0.5 * (old + per_job)

    def plan(self, key: Hashable, n_jobs: int, workers: int,
             group_size: int = 1) -> int:
        """Jobs per chunk for the tuned ``key`` in a batch of ``n_jobs``.

        Targets ``target_seconds`` of measured work per chunk (capped so
        every one of ``workers`` still gets a chunk).  Only a
        :meth:`known` key has a plan; an untimed backend is sized by
        :meth:`ParallelExecutor.submit_batch`'s probe wave.

        ``group_size > 1`` plans in whole-group units: batched detailed
        dispatch advances a kernel group as one stacked call, so a
        chunk is sized by per-*group* cost (the recorded per-job time
        times the group run length) and always returned as a multiple
        of ``group_size`` — a chunk boundary never shears a group.
        """
        group_size = max(1, int(group_size))
        n_units = -(-n_jobs // group_size)
        per_job = self._tuned[key]
        per_unit = max(per_job * group_size, 1e-7)
        upper = max(1, -(-n_units // max(workers, 1)))
        units = max(1, min(int(self.target_seconds / per_unit), upper))
        return units * group_size


def batch_group_run(jobs: Sequence[SimJob], start: int) -> int:
    """Length of the contiguous batched-group run at ``start``.

    The number of consecutive jobs from ``start`` sharing one detailed
    group signature, when batched detailed dispatch is on — the unit
    chunk planning must not shear (the run advances as one stacked
    kernel call).  ``1`` whenever batching is off, the job is not
    detailed, or it has no groupmate at ``start``.
    """
    from repro.engine.kernel import detailed_batch_enabled, group_signature

    job = jobs[start]
    if job.backend != "detailed" or not detailed_batch_enabled():
        return 1
    signature = group_signature(job)
    stop = start + 1
    while stop < len(jobs) and group_signature(jobs[stop]) == signature:
        stop += 1
    return stop - start


def carve_chunk(jobs: Sequence[SimJob], start: int, size: int) -> int:
    """End index of a chunk of at most ``size`` jobs starting at ``start``.

    Chunks are kept backend-homogeneous — a chunk's wall time feeds a
    per-backend tuning estimate, and mixing sub-millisecond interval
    jobs with seconds-long detailed jobs in one measurement would
    poison it.  When batched detailed dispatch is on, boundaries also
    snap to group boundaries: a contiguous run of one detailed group
    signature advances as a single stacked kernel call, so shearing it
    across chunks would defeat the batching.  The boundary rounds down
    to the run's first job when the chunk holds anything else, and
    extends to the run's end when the run *is* the chunk.
    """
    stop = min(len(jobs), start + size)
    backend = jobs[start].backend
    for j in range(start + 1, stop):
        if jobs[j].backend != backend:
            stop = j
            break
    if stop < len(jobs) and backend == "detailed":
        from repro.engine.kernel import (detailed_batch_enabled,
                                         group_signature)

        if detailed_batch_enabled():
            signature = group_signature(jobs[stop])
            if group_signature(jobs[stop - 1]) == signature:
                run_start = stop - 1
                while (run_start > start
                       and group_signature(jobs[run_start - 1]) == signature):
                    run_start -= 1
                if run_start > start:
                    return run_start  # round down to the group boundary
                while (stop < len(jobs)
                       and group_signature(jobs[stop]) == signature):
                    stop += 1  # the run is the whole chunk: take it whole
    return stop


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """weakref.finalize callback: shut an abandoned executor's pool down.

    Runs exactly once — when the owning executor is garbage collected or
    at interpreter exit (via ``atexit``) — so teardown never depends on
    nondeterministic ``__del__`` ordering during shutdown.
    """
    try:
        pool.shutdown(wait=True)
    except Exception:
        pass


class ParallelExecutor:
    """Runs job batches in-process or over a process pool.

    With ``max_workers=1`` (the engine default) a batch runs in this
    process, one kernel group at a time, in job order; no pool is
    created and no pool setting is read.  With more workers, jobs are
    grouped into contiguous chunks (amortizing per-chunk IPC overhead
    over many sub-millisecond interval simulations) and submitted to a
    :class:`~concurrent.futures.ProcessPoolExecutor`;
    :meth:`submit_batch` yields each chunk's results the moment its
    future completes, letting consumers overlap analysis with the
    simulation tail.

    Two transports bring pool results home, bit-identically:

    * **shared memory** (default): the batch preallocates a
      :class:`~repro.engine.shm.ShmArena`; workers write trace rows
      directly into it and only tiny descriptors cross the pipe;
    * **pickle** (``shm=False``, ``REPRO_SHM=0``, or when shared
      memory is unavailable): whole results return through the pipe.

    A **tuner** sizes pool chunks per backend: every completed chunk
    updates a per-job wall-time estimate (exponential moving average,
    persisted across batches), and once a backend is timed its chunks
    target :data:`DEFAULT_TARGET_CHUNK_SECONDS` of work each — interval
    jobs stay coarse-chunked while seconds-per-job detailed jobs go
    fine-grained, keeping the completion stream responsive.  A
    backend's very first batch starts with a small probe wave plus
    worker-count-heuristic chunks (everything still dispatched eagerly
    at submit time).

    Parameters
    ----------
    max_workers:
        Worker processes; defaults to the machine's CPU count.  ``1``
        runs in-process.
    shm:
        Shared-memory result transport for the pool; ``None`` consults
        ``REPRO_SHM`` (default on) when a pool batch starts.  Falls
        back to pickling when the platform lacks shared memory.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 shm: Optional[bool] = None):
        if max_workers is not None and max_workers < 1:
            raise EngineError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        self._shm = None if shm is None else bool(shm)
        self.tuner = ChunkTuner()
        #: Last batch's arena (``None`` for pickle transport); exposed
        #: for lifecycle tests and benchmarks.  Intentionally retained
        #: until the next batch (or :meth:`close`): the reference keeps
        #: only the latest mapping alive, bounded by one batch's size.
        self.last_arena: Optional[ShmArena] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None

    @property
    def shm(self) -> bool:
        """Whether pool batches use the shared-memory transport."""
        return shm_from_env() if self._shm is None else self._shm

    def _get_pool(self) -> ProcessPoolExecutor:
        # Lazily created and reused across batches: an engine shared by
        # a whole experiment session pays worker start-up once, not
        # once per benchmark batch.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            # The finalizer — not __del__, whose ordering during
            # interpreter shutdown is undefined — guarantees the pool of
            # an abandoned executor is shut down exactly once.
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool)
        return self._pool

    def _close_pool(self) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (a later batch restarts it).

        Also drops the executor's reference to the last batch's arena;
        result views keep their own memory alive regardless.  Idempotent
        and — together with the pool/arena finalizers — guaranteed to
        run exactly once per resource even when the executor is simply
        abandoned.
        """
        self.last_arena = None
        self._close_pool()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit_batch(self, jobs: Sequence[SimJob],
                     ) -> Iterator[Tuple[int, SimulationResult]]:
        """Submit the batch now; stream results in completion order.

        In-process (``max_workers=1``, or a batch of one job) the stream
        is group-lazy and in job order: each kernel group runs when the
        consumer pulls its first member.  On the pool, futures are
        dispatched eagerly — the pool starts working the moment this
        method is called, before the returned iterator is first pulled
        — so consumer-side work genuinely overlaps the remaining
        simulations.  When a backend has no timing yet, the first
        ``max_workers`` chunks are small probes and the rest use the
        worker-count heuristic; the measured timings right-size every
        later batch.
        """
        jobs = list(jobs)
        if not jobs:
            return iter(())
        if self.max_workers == 1 or len(jobs) == 1:
            self.last_arena = None  # no transport: drop any stale arena
            return stream_jobs(jobs)
        pool = self._get_pool()
        arena = ShmArena.create(jobs) if self.shm else None
        self.last_arena = arena
        spec = arena.spec if arena is not None else None
        n = len(jobs)
        default_size = max(1, -(-n // (self.max_workers * 4)))
        futures: Dict = {}
        cursor = 0  # index of the first unsubmitted job
        while cursor < n:
            start = cursor
            backend = jobs[start].backend
            if self.tuner.known(backend):
                size = self.tuner.plan(
                    backend, n, self.max_workers,
                    group_size=batch_group_run(jobs, start))
            elif len(futures) < self.max_workers:
                size = min(default_size, PROBE_CHUNK_SIZE)  # probe wave
            else:
                size = default_size  # untimed tail: eager, pre-tuning size
            stop = carve_chunk(jobs, start, size)
            cursor = stop
            future = pool.submit(_run_chunk_transport, jobs[start:stop],
                                 spec, list(range(start, stop)))
            futures[future] = start

        def _drain() -> Iterator[Tuple[int, SimulationResult]]:
            try:
                pending = set(futures)
                while pending:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            payload, elapsed = future.result()
                        except BrokenProcessPool as exc:
                            # A dead pool cannot serve the next batch;
                            # keep last_arena for post-mortem inspection.
                            self._close_pool()
                            start = futures[future]
                            raise SimulationError(
                                f"worker process died mid-chunk (chunk "
                                f"starting at job {start} of a "
                                f"{len(jobs)}-job batch); the pool was shut "
                                f"down and the batch aborted"
                            ) from exc
                        start = futures[future]
                        if payload:
                            self.tuner.record(jobs[start].backend,
                                              elapsed / len(payload))
                        for j, item in enumerate(payload):
                            if arena is not None:
                                item = arena.materialize(item)
                            yield start + j, item
            finally:
                # On error or early consumer exit, drop what never ran
                # and remove the arena's name; views stay valid.
                for future in futures:
                    future.cancel()
                if arena is not None:
                    arena.unlink()

        return _drain()


class BatchHandle:
    """Streaming view of one submitted batch.

    Returned by :meth:`ExecutionEngine.submit`.  Jobs resolved from the
    cache are available immediately; executor results arrive in
    completion order.  Consumers choose their trade-off:

    * :meth:`as_completed` — iterate ``(job_index, result)`` pairs the
      moment each resolves (cache hits first, then pool results as they
      finish), overlapping their own work with the simulation tail;
    * :meth:`result` — block for one specific job;
    * :meth:`results` — block for everything, **in job order** (the
      deterministic view :meth:`ExecutionEngine.run` exposes).

    All accessors agree: however the stream is consumed, job *i* always
    maps to the same :class:`~repro.uarch.simulator.SimulationResult`.

    Attributes
    ----------
    jobs:
        The submitted jobs (after engine-level checkpoint stamping).
    cache_hits:
        How many jobs resolved from the cache at submit time.
    done:
        Jobs resolved so far (cache hits plus drained executor results).

    Examples
    --------
    >>> from repro.engine import ExecutionEngine, make_jobs
    >>> from repro.uarch.params import baseline_config
    >>> engine = ExecutionEngine()
    >>> handle = engine.submit(make_jobs("gcc", [baseline_config()] * 2,
    ...                                  n_samples=8))
    >>> len(handle)
    2
    >>> sorted(index for index, _ in handle.as_completed())
    [0, 1]
    >>> handle.done
    2
    """

    def __init__(self, jobs: List[SimJob],
                 results: List[Optional[SimulationResult]],
                 resolved: List[bool],
                 ready: "deque[Tuple[int, SimulationResult]]",
                 stream: Iterator[Tuple[int, SimulationResult]],
                 unique_jobs: List[SimJob],
                 unique_keys: List[str],
                 fanout: Dict[int, List[int]],
                 cache: Optional[ResultCache],
                 callbacks: List[ResultCallback]):
        self.jobs = jobs
        self.cache_hits = len(ready)  #: jobs resolved from cache at submit
        self._results = results
        self._resolved = resolved
        self._ready = ready
        self._stream = stream
        self._unique = unique_jobs
        self._keys = unique_keys
        self._fanout = fanout
        self._cache = cache
        self._callbacks = callbacks
        # Results stored but not yet on disk; committed as one segment
        # when the batch drains or fails (an abandoned handle loses
        # only these, and they re-simulate next time).
        self._pending = PendingSegment()
        self._outstanding = len(unique_jobs)
        self._yielded = 0
        self._failure: Optional[BaseException] = None

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def done(self) -> int:
        """Jobs resolved so far (cache hits + drained executor results)."""
        return sum(self._resolved)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Pull one executor result and fan it out to its job indices.

        An executor failure (e.g. a worker process dying mid-chunk) is
        terminal for the batch's unresolved jobs: the first failure is
        remembered and re-raised by every later accessor, while jobs
        that already resolved — cache hits and results drained before
        the failure — stay available, and are committed to the cache.
        """
        if self._failure is not None:
            raise self._failure
        try:
            unique_index, result = next(self._stream)
        except StopIteration:
            self._commit()
            raise EngineError(
                "executor stream exhausted with unresolved jobs in the batch"
            )
        except Exception as exc:
            self._failure = exc
            self._commit()
            raise
        job = self._unique[unique_index]
        if self._cache is not None:
            self._cache.put(self._keys[unique_index], result, self._pending)
            self._outstanding -= 1
            if not self._outstanding:
                self._commit()
        for i in self._fanout[unique_index]:
            self._results[i] = result
            self._resolved[i] = True
            self._ready.append((i, result))
            for callback in self._callbacks:
                callback(i, job, result, False)

    def _commit(self) -> None:
        if self._cache is not None:
            self._cache.commit(self._pending)

    def as_completed(self) -> Iterator[Tuple[int, SimulationResult]]:
        """Yield ``(job_index, result)`` pairs in completion order.

        Cache hits are yielded first (they resolved at submit time);
        executor results follow as they finish.  Safe to resume after a
        partial drain or interleave with :meth:`result` — every job is
        yielded exactly once across all ``as_completed`` iterations.

        Yields
        ------
        tuple
            ``(job_index, result)`` where ``job_index`` indexes into
            :attr:`jobs`.

        Raises
        ------
        repro.errors.SimulationError
            If the executor fails mid-batch (e.g. a worker process
            dies).  The first failure is terminal for the batch's
            unresolved jobs and is re-raised by every later accessor;
            already-resolved jobs stay available.
        """
        while self._yielded < len(self.jobs):
            if not self._ready:
                self._advance()
            index, result = self._ready.popleft()
            self._yielded += 1
            yield index, result

    def result(self, index: int) -> SimulationResult:
        """Block until job ``index`` resolves and return its result.

        Parameters
        ----------
        index:
            Position of the job in the submitted batch.

        Returns
        -------
        SimulationResult
            The same object every other accessor maps to job ``index``.

        Raises
        ------
        repro.errors.EngineError
            If ``index`` is out of range for the batch.
        repro.errors.SimulationError
            If the executor failed before the job could resolve.
        """
        if not 0 <= index < len(self.jobs):
            raise EngineError(
                f"job index {index} out of range for batch of {len(self.jobs)}"
            )
        while not self._resolved[index]:
            self._advance()
        return self._results[index]  # type: ignore[return-value]

    def results(self) -> List[SimulationResult]:
        """Block until the whole batch resolves; results in job order.

        Returns
        -------
        list of SimulationResult
            Index-aligned with :attr:`jobs` — the deterministic view,
            bit-identical no matter which executor ran the batch.

        Raises
        ------
        repro.errors.SimulationError
            If the executor failed before every job resolved.
        """
        return [self.result(i) for i in range(len(self.jobs))]


class ExecutionEngine:
    """Cache-aware batch runner: the front door for every sweep.

    ``run(jobs)`` resolves each job from the cache when possible,
    deduplicates identical jobs inside the batch by content key, runs
    only the remaining unique misses through the executor, and returns
    results in job order.  ``submit(jobs)`` exposes the same batch as a
    :class:`BatchHandle` stream.

    Parameters
    ----------
    executor:
        Where misses execute; defaults to an in-process
        :class:`ParallelExecutor` (``max_workers=1``).
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`.
    on_result:
        Optional engine-wide progress callback, invoked as
        ``on_result(job_index, job, result, from_cache)`` for every job
        resolved by any batch this engine runs (the CLI's ``--progress``
        hook).
    checkpoint_every, checkpoint_dir:
        Detailed-backend checkpoint settings stamped onto submitted jobs
        that do not carry their own (see
        :class:`~repro.engine.jobs.SimJob`).  The settings travel
        *inside* the pickled jobs to pool workers, so enabling
        checkpointing never mutates the process environment.  They do
        not participate in job keys: a checkpointed job and a plain one
        share one cache entry.

    Examples
    --------
    >>> from repro.engine import ExecutionEngine, make_jobs
    >>> from repro.uarch.params import baseline_config
    >>> engine = ExecutionEngine()
    >>> jobs = make_jobs("gcc", [baseline_config()], n_samples=8)
    >>> [result.trace("cpi").shape for result in engine.run(jobs)]
    [(8,)]
    """

    def __init__(self, executor: Optional[Executor] = None,
                 cache: Optional[ResultCache] = None,
                 on_result: Optional[ResultCallback] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir=None):
        self.executor = executor or ParallelExecutor(max_workers=1)
        self.cache = cache
        self.on_result = on_result
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None

    # ------------------------------------------------------------------
    def _configure_job(self, job: SimJob) -> SimJob:
        """Stamp engine-level checkpoint settings onto a detailed job.

        Job-level settings win; the job's content key is unaffected
        either way (checkpointing changes where intermediate state
        lives, never the simulated result).
        """
        if job.backend != "detailed":
            return job
        updates = {}
        if self.checkpoint_every is not None and job.checkpoint_every is None:
            updates["checkpoint_every"] = self.checkpoint_every
        if self.checkpoint_dir is not None and job.checkpoint_dir is None:
            updates["checkpoint_dir"] = self.checkpoint_dir
        return dataclasses.replace(job, **updates) if updates else job

    def submit(self, jobs: Sequence[SimJob],
               on_result: Optional[ResultCallback] = None) -> BatchHandle:
        """Submit a batch and return a streaming :class:`BatchHandle`.

        Cache hits resolve immediately (and fire callbacks before this
        method returns); duplicate jobs collapse to one execution; the
        unique misses are dispatched to the executor eagerly, so a
        process pool starts simulating before the handle is consumed.
        Each job is hashed once: its key serves the dedup, the cache
        lookup (one :meth:`~repro.engine.cache.ResultCache.get_many`
        call for the batch's distinct keys) and the store.  The handle
        commits its stored results to the disk tier as one segment when
        the batch drains.

        Parameters
        ----------
        jobs:
            The batch; an empty sequence yields an immediately-complete
            handle.
        on_result:
            Optional per-batch progress callback, invoked as
            ``on_result(job_index, job, result, from_cache)`` in
            addition to the engine-wide one.

        Returns
        -------
        BatchHandle
            Streaming view of the batch; live batches may be
            interleaved — submitting again before a previous handle has
            drained is safe (the active-learning loop resubmits from
            inside its drain loop every round).
        """
        jobs = [self._configure_job(job) for job in jobs]
        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        resolved = [False] * len(jobs)
        ready: "deque[Tuple[int, SimulationResult]]" = deque()
        callbacks: List[ResultCallback] = []
        if self.on_result is not None:
            callbacks.append(self.on_result)
        if on_result is not None:
            callbacks.append(on_result)

        keys = [job.key() for job in jobs]
        hits: List[Optional[SimulationResult]] = [None] * len(jobs)
        if self.cache is not None:
            first: Dict[str, int] = {}
            for i, key in enumerate(keys):
                first.setdefault(key, i)
            self._lookup(jobs, keys, list(first.values()), hits)
            # A duplicate of a hit is looked up as its own job (a memory
            # hit while the memory tier holds the first); one of a miss
            # is not looked up, it shares the miss's run.
            self._lookup(jobs, keys, [
                i for i, key in enumerate(keys)
                if first[key] != i and hits[first[key]] is not None], hits)

        pending: Dict[str, int] = {}  # job key -> unique-miss index
        fanout: Dict[int, List[int]] = {}
        unique_jobs: List[SimJob] = []
        for i, (job, key, cached) in enumerate(zip(jobs, keys, hits)):
            if key in pending:
                fanout[pending[key]].append(i)
            elif cached is not None:
                results[i] = cached
                resolved[i] = True
                ready.append((i, cached))
                for callback in callbacks:
                    callback(i, job, cached, True)
            else:
                pending[key] = len(unique_jobs)
                fanout[len(unique_jobs)] = [i]
                unique_jobs.append(job)

        stream = self._dispatch(unique_jobs)
        return BatchHandle(jobs, results, resolved, ready, stream,
                           unique_jobs, list(pending), fanout, self.cache,
                           callbacks)

    def _lookup(self, jobs: List[SimJob], keys: List[str],
                indices: List[int],
                hits: List[Optional[SimulationResult]]) -> None:
        """Look ``indices``' jobs up in the cache as one batch, filling
        ``hits`` at those indices."""
        if indices:
            found = self.cache.get_many([keys[i] for i in indices],
                                        [jobs[i].config for i in indices])
            for i, result in zip(indices, found):
                hits[i] = result

    def _dispatch(self, unique_jobs: List[SimJob],
                  ) -> Iterator[Tuple[int, SimulationResult]]:
        """Start the unique misses on the executor's stream."""
        if not unique_jobs:
            return iter(())
        return self.executor.submit_batch(unique_jobs)

    def run(self, jobs: Sequence[SimJob]) -> List[SimulationResult]:
        """Run a batch to completion; results in job order.

        Parameters
        ----------
        jobs:
            The batch to execute.

        Returns
        -------
        list of SimulationResult
            Index-aligned with ``jobs``; bit-identical across executors.

        Raises
        ------
        repro.errors.SimulationError
            If the executor fails before every job resolves.
        """
        return self.submit(jobs).results()

    def run_one(self, job: SimJob) -> SimulationResult:
        """Convenience wrapper for a single job."""
        return self.run([job])[0]


def create_engine(jobs: Optional[int] = None,
                  cache_dir=None,
                  memory_items: int = 512,
                  cache_max_bytes: Optional[int] = None,
                  on_result: Optional[ResultCallback] = None,
                  shm: Optional[bool] = None,
                  checkpoint_every: Optional[int] = None,
                  checkpoint_dir=None,
                  ) -> ExecutionEngine:
    """Build an engine from the user-facing knobs.

    Parameters
    ----------
    jobs:
        Worker processes of the :class:`ParallelExecutor`; ``None`` or
        1 runs in-process, anything larger on a process pool.
    cache_dir:
        On-disk cache directory (``None`` disables the disk tier but
        keeps an in-memory LRU when ``memory_items > 0``).
    memory_items:
        In-memory LRU capacity.
    cache_max_bytes:
        Byte cap for the disk tier; oldest entries (by file mtime,
        ties broken by filename) are evicted when a store would exceed
        it.  ``None`` means unbounded.
    on_result:
        Engine-wide per-job progress callback (see
        :class:`ExecutionEngine`).
    shm:
        Shared-memory result transport for the parallel executor;
        ``None`` consults ``REPRO_SHM`` (default on).
    checkpoint_every, checkpoint_dir:
        Detailed-backend checkpoint settings threaded through the
        engine onto submitted jobs (see :class:`ExecutionEngine`); the
        process environment is never touched.

    Returns
    -------
    ExecutionEngine
        An engine wired with the selected executor and cache tiers.

    Raises
    ------
    repro.errors.EngineError
        If ``jobs`` is given but smaller than 1, or a cache/executor
        argument is malformed.

    Examples
    --------
    >>> from repro.engine import create_engine, make_jobs
    >>> from repro.uarch.params import baseline_config
    >>> engine = create_engine(jobs=1, memory_items=8)
    >>> job = make_jobs("gcc", [baseline_config()], n_samples=8)[0]
    >>> engine.run_one(job).backend
    'interval'
    >>> _ = engine.run_one(job)        # second run hits the memory tier
    >>> engine.cache.stats.hits, engine.cache.stats.misses
    (1, 1)
    """
    if jobs is not None and jobs < 1:
        raise EngineError(f"jobs must be >= 1, got {jobs}")
    executor = ParallelExecutor(max_workers=jobs or 1, shm=shm)
    cache = None
    if cache_dir is not None or memory_items > 0:
        cache = ResultCache(cache_dir=cache_dir, memory_items=memory_items,
                            max_bytes=cache_max_bytes)
    return ExecutionEngine(executor=executor, cache=cache,
                           on_result=on_result,
                           checkpoint_every=checkpoint_every,
                           checkpoint_dir=checkpoint_dir)
