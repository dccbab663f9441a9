"""Grouped kernel dispatch: run interval-job chunks as batched calls.

Every executor funnels its chunks through :func:`run_jobs`, which
detects groups of interval-backend :class:`~repro.engine.jobs.SimJob`\\ s
sharing a workload — same benchmark (and attached workload model, if
any), same trace resolution, same noise setting — and advances each
group through :func:`~repro.uarch.interval_model.simulate_interval_batch`
as **one** stacked kernel call instead of one scalar call per job.  A
design-space sweep is exactly this shape (one benchmark x many
configurations), so in practice a whole chunk collapses into a single
kernel invocation.

Everything around the kernel is unchanged by design:

* **job keys** — grouping happens at execution time, after cache
  lookup/dedup; :attr:`~repro.engine.jobs.KEY_VERSION` and the key
  recipe are untouched, so existing cache entries stay valid
  (``tests/test_kernel_batch.py`` pins golden keys);
* **results** — each job still materializes its own
  :class:`~repro.uarch.simulator.SimulationResult`, bit-identical to
  ``job.run()`` (the batch rows are views into the group's stacked
  matrices; the shm transport copies rows into its arena and the cache
  detaches, exactly as before);
* **ordering** — results align index-for-index with the submitted
  chunk, whatever the grouping.

Detailed-backend jobs group too — same benchmark/workload/resolution —
and every multi-member detailed group runs through
:func:`~repro.uarch.detailed.run_detailed_group`: one synthesized trace
per interval feeds the whole group, stepped by one of two
bit-identical steppers.  With ``REPRO_JIT`` on and numba importable
(:func:`detailed_batch_enabled`) that is one compiled ``prange`` batch
kernel call per interval over config-stacked state; otherwise it is
the interpreter, member by member.  Jobs with no groupmate in their
chunk run through ``job.run()`` as always.
``REPRO_BATCH_KERNEL=0`` disables grouping entirely (the escape hatch;
the scalar path is the same code as a batch of one, so this only
changes speed, not bits).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import settings
from repro.engine.jobs import SimJob, _canonical
from repro.uarch.simulator import SimulationResult


def batch_kernel_enabled() -> bool:
    """Whether grouped kernel dispatch is on (``REPRO_BATCH_KERNEL``)."""
    return settings.get("batch_kernel")


def detailed_batch_enabled() -> bool:
    """Whether detailed runs step with the compiled batch kernel.

    Requires grouped dispatch (``REPRO_BATCH_KERNEL``) *and* an enabled
    JIT (``REPRO_JIT`` plus numba importable); otherwise the detailed
    interval loop steps with the interpreter.  The choice only changes
    speed, never bits — both steppers are pinned to the same golden
    digests.
    """
    from repro.uarch.jit import jit_enabled

    return batch_kernel_enabled() and jit_enabled()


def group_signature(job: SimJob) -> Optional[Tuple]:
    """Hashable grouping identity, or ``None`` for ungroupable jobs.

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
    if job.backend != "interval":
        return None
    return (job.benchmark, workload, job.n_samples, job.noise)


def _run_interval_group(group: Sequence[SimJob]) -> List[SimulationResult]:
    """One batched kernel call for jobs sharing a group signature."""
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
    return [interval_result_to_simulation(batch[row])
            for row in range(len(group))]


def plan_groups(jobs: Sequence[SimJob]) -> List[List[int]]:
    """Partition job indices into kernel groups, preserving first-seen
    order.  Ungroupable jobs (and all jobs when the batch kernel is
    disabled) become singleton groups."""
    if len(jobs) < 2 or not batch_kernel_enabled():
        return [[i] for i in range(len(jobs))]
    order: List[List[int]] = []
    groups: Dict[Tuple, List[int]] = {}
    for i, job in enumerate(jobs):
        signature = group_signature(job)
        if signature is None:
            order.append([i])
            continue
        members = groups.get(signature)
        if members is None:
            groups[signature] = members = [i]
            order.append(members)
        else:
            members.append(i)
    return order


def run_group(jobs: Sequence[SimJob], indices: Sequence[int],
              ) -> List[SimulationResult]:
    """Run one planned group; results align with ``indices``."""
    if len(indices) == 1:
        return [jobs[indices[0]].run()]
    group = [jobs[i] for i in indices]
    if group[0].backend == "detailed":
        from repro.uarch.detailed import run_detailed_group

        return run_detailed_group(group)
    return _run_interval_group(group)


def run_jobs(jobs: Sequence[SimJob]) -> List[SimulationResult]:
    """Run a chunk of jobs, batching interval groups; results in job
    order.  The chunk runner behind every executor's ``run_batch``."""
    jobs = list(jobs)
    results: List[Optional[SimulationResult]] = [None] * len(jobs)
    for indices in plan_groups(jobs):
        for i, result in zip(indices, run_group(jobs, indices)):
            results[i] = result
    return results  # type: ignore[return-value]


def stream_jobs(jobs: Sequence[SimJob],
                run=run_jobs) -> Iterator[Tuple[int, SimulationResult]]:
    """Group-lazy in-process stream, yielding in job order.

    Each kernel group runs when the consumer pulls its first member
    (the per-group generalization of the historical one-job-at-a-time
    lazy stream); ``run`` lets callers route execution through their
    own ``run_batch`` so instrumented subclasses observe the streaming
    path too.
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
            for j, result in zip(indices, run([jobs[j] for j in indices])):
                done[j] = result
        yield i, done.pop(i)
