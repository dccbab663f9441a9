"""Grouped kernel dispatch: the one place a job becomes a result.

Every executor path funnels its jobs through :func:`run_jobs` (or the
group-lazy :func:`stream_jobs`), which detects groups of
:class:`~repro.engine.jobs.SimJob`\\ s sharing a workload — same
benchmark (and attached workload model, if any), same trace
resolution, same noise setting — and advances each group through
:func:`run_group` as **one** stacked kernel call instead of one scalar
call per job.  A design-space sweep is exactly this shape (one
benchmark x many configurations), so in practice a whole chunk
collapses into a single kernel invocation.  A single job is a group of
one: :meth:`SimJob.run <repro.engine.jobs.SimJob.run>` and
:meth:`Simulator.run <repro.uarch.simulator.Simulator.run>` come here
too.

Everything around the kernel is unchanged by design:

* **job keys** — grouping happens at execution time, after cache
  lookup/dedup; :attr:`~repro.engine.jobs.KEY_VERSION` and the key
  recipe are untouched, so existing cache entries stay valid
  (``tests/test_kernel_batch.py`` pins golden keys);
* **results** — a group's results are the rows of one
  :class:`~repro.uarch.simulator.ResultBlock` holding the kernel's
  stacked matrices uncopied; each row is bit-identical to a group of
  one.  The result cache stores the block's rows as one block; the
  shm transport copies rows into its arena and the memory cache
  detaches them;
* **ordering** — results align index-for-index with the submitted
  chunk, whatever the grouping.

Interval groups run as one
:func:`~repro.uarch.interval_model.simulate_interval_batch` call.
Detailed groups — same benchmark/workload/resolution — run through
:func:`~repro.uarch.detailed.run_detailed_group`: one synthesized trace
per interval feeds the whole group, stepped by the interpreter member
by member.
``REPRO_BATCH_KERNEL=0`` disables grouping entirely (the escape hatch;
every job then runs as a group of one, so this only changes speed, not
bits).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import settings
from repro.engine.jobs import SimJob, _canonical
from repro.uarch.simulator import SimulationResult


def batch_kernel_enabled() -> bool:
    """Whether grouped kernel dispatch is on (``REPRO_BATCH_KERNEL``)."""
    return settings.get("batch_kernel")


def group_signature(job: SimJob) -> Tuple:
    """Hashable grouping identity.

    Jobs with equal signatures simulate the same workload at the same
    resolution and noise setting, so they may run as one batched kernel
    call; an attached workload model participates through its canonical
    content (the same form the job key hashes).

    Detailed jobs group on ``("detailed", benchmark, workload,
    n_samples, instructions_per_sample)`` — a distinct shape from the
    interval 4-tuple, so the backends never intermix.  Groupmates
    simulate identical interval traces, so one synthesis per interval
    pays for the whole group.
    """
    workload = (job.benchmark if job.workload is None
                else _canonical(job.workload))
    if job.backend == "detailed":
        return ("detailed", job.benchmark, workload, job.n_samples,
                job.instructions_per_sample)
    return (job.benchmark, workload, job.n_samples, job.noise)


def _run_interval_group(group: Sequence[SimJob]) -> List[SimulationResult]:
    """One batched kernel call for jobs sharing a group signature; the
    results are the rows of one block."""
    from repro.uarch.interval_model import simulate_interval_batch
    from repro.uarch.simulator import interval_result_to_simulation
    from repro.workloads.spec2000 import get_benchmark

    lead = group[0]
    workload = (lead.workload if lead.workload is not None
                else get_benchmark(lead.benchmark))
    batch = simulate_interval_batch(
        workload, [job.config for job in group],
        n_samples=lead.n_samples, noise=lead.noise,
    )
    return interval_result_to_simulation(batch)


def plan_groups(jobs: Sequence[SimJob]) -> List[List[int]]:
    """Partition job indices into kernel groups, preserving first-seen
    order.  With the batch kernel disabled every job is its own
    group."""
    if len(jobs) < 2 or not batch_kernel_enabled():
        return [[i] for i in range(len(jobs))]
    order: List[List[int]] = []
    groups: Dict[Tuple, List[int]] = {}
    for i, job in enumerate(jobs):
        signature = group_signature(job)
        members = groups.get(signature)
        if members is None:
            groups[signature] = members = [i]
            order.append(members)
        else:
            members.append(i)
    return order


def run_group(jobs: Sequence[SimJob], indices: Sequence[int],
              ) -> List[SimulationResult]:
    """Run one planned group; results align with ``indices``.

    An interval group's results are the rows of one
    :class:`~repro.uarch.simulator.ResultBlock`; detailed results are
    lone results.  A group of one is the single-job path: an interval
    job is row 0 of a one-config
    :func:`~repro.uarch.interval_model.simulate_interval_batch` call, a
    detailed job a one-member
    :func:`~repro.uarch.detailed.run_detailed_group`.
    """
    group = [jobs[i] for i in indices]
    if group[0].backend == "detailed":
        from repro.uarch.detailed import run_detailed_group

        return run_detailed_group(group)
    return _run_interval_group(group)


def run_jobs(jobs: Sequence[SimJob]) -> List[SimulationResult]:
    """Run a chunk of jobs group by group; results in job order.  What
    a pool worker runs for each chunk."""
    jobs = list(jobs)
    results: List[Optional[SimulationResult]] = [None] * len(jobs)
    for indices in plan_groups(jobs):
        for i, result in zip(indices, run_group(jobs, indices)):
            results[i] = result
    return results  # type: ignore[return-value]


def stream_jobs(jobs: Sequence[SimJob],
                ) -> Iterator[Tuple[int, SimulationResult]]:
    """Group-lazy in-process stream, yielding in job order.

    Each kernel group runs when the consumer pulls its first member.
    """
    jobs = list(jobs)
    group_of: Dict[int, List[int]] = {}
    for indices in plan_groups(jobs):
        for i in indices:
            group_of[i] = indices
    done: Dict[int, SimulationResult] = {}
    for i in range(len(jobs)):
        if i not in done:
            indices = group_of[i]
            for j, result in zip(indices, run_group(jobs, indices)):
                done[j] = result
        yield i, done.pop(i)
