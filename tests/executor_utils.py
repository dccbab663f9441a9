"""Test helpers for the executor: ordered results, chunk plans and a
job that kills its pool worker."""

import os

from repro.engine import SimJob


def ordered(executor, jobs):
    """Drain ``executor.submit_batch(jobs)`` into a list in job order."""
    jobs = list(jobs)
    results = [None] * len(jobs)
    for i, result in executor.submit_batch(jobs):
        results[i] = result
    return results


class _RecordingPool:
    """Stands in for the process pool: records chunk sizes, runs nothing."""

    def __init__(self):
        self.sizes = []

    def submit(self, fn, chunk, *args):
        self.sizes.append(len(chunk))
        return object()


def chunk_plan(executor, jobs):
    """The ``(start, stop)`` chunks a pool executor submits for ``jobs``
    at its current tuner state, without starting a pool."""
    pool = _RecordingPool()
    executor._get_pool = lambda: pool
    executor.submit_batch(jobs)
    chunks, start = [], 0
    for size in pool.sizes:
        chunks.append((start, start + size))
        start += size
    return chunks


def _exit_worker():
    os._exit(1)


class KillWorkerJob(SimJob):
    """A job that kills the pool worker it is sent to (crash testing):
    unpickling it in the worker exits the process."""

    def __reduce__(self):
        return _exit_worker, ()
