"""Zero-copy shared-memory result transport for parallel batches.

The pickle transport serializes every :class:`SimulationResult` — four
trace arrays plus a dozen component arrays per job — through the process
pool's result pipe, then re-stacks the per-job arrays into training
matrices.  For paper-scale sweeps (250 configurations x 128 samples x
~18 arrays) that serialization tax dominates the interval backend's
actual simulation time.

This module replaces it with a structure-of-arrays **arena** in
:mod:`multiprocessing.shared_memory`:

* the parent preallocates, per batch, one ``(n_jobs, n_samples)``
  float64 matrix per trace domain plus a ``(n_jobs, n_slots,
  n_samples)`` component block;
* workers attach to the arena, write each job's trace rows and
  component columns directly into it, and send back only a tiny
  :class:`ShmResultDescriptor` (row index, benchmark, config, component
  names) over the pipe;
* the parent materializes each descriptor as a
  :class:`~repro.uarch.simulator.SimulationResult` whose arrays are
  **views** into the arena — no copy — and
  :func:`stack_rows` lets dataset assembly slice whole training
  matrices straight out of the arena when a group's rows are
  contiguous.

Lifecycle: the arena is unlinked (name removed) the moment its batch
drains — including on worker crash or early consumer exit — while the
mapping itself stays valid for as long as any view is alive, so
datasets may outlive the batch.  Results that cannot be described by
the arena layout (foreign dtype, too many components) fall back to
pickling that one result; the transports are bit-identical either way.
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.uarch.params import MachineConfig
from repro.uarch.simulator import DOMAINS, SimulationResult

#: Component-array slots reserved per job.  The interval backend emits
#: 14 component traces, the detailed backend 2; results with more fall
#: back to the pickle path for that job only.
MAX_COMPONENT_SLOTS = 16

#: Refuse to create arenas beyond this size (fall back to pickling).
MAX_ARENA_BYTES = 2 << 30

#: Interned native float64 dtype (identity-comparable: numpy interns
#: builtin dtypes, and any non-native variant must fall back anyway).
_F64 = np.dtype(np.float64)


def shm_from_env() -> bool:
    """The ``REPRO_SHM`` toggle (default: transport enabled)."""
    return settings.get("shm")


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to attach to and index an arena."""

    name: str
    n_jobs: int
    n_samples: int
    domains: Tuple[str, ...]
    n_slots: int

    @property
    def row_bytes(self) -> int:
        return 8 * self.n_samples

    @property
    def trace_block_bytes(self) -> int:
        return self.n_jobs * self.row_bytes

    @property
    def total_bytes(self) -> int:
        return self.trace_block_bytes * (len(self.domains) + self.n_slots)


@dataclass(frozen=True)
class ShmResultDescriptor:
    """What crosses the pool pipe per job: metadata, never trace data.

    ``fallback`` carries the whole result for the rare job whose arrays
    do not fit the arena layout; it is ``None`` on the fast path.
    """

    row: int
    benchmark: str
    config: MachineConfig
    n_samples: int
    backend: str
    component_names: Tuple[str, ...] = ()
    fallback: Optional[SimulationResult] = None




class ShmArena:
    """One batch's structure-of-arrays shared-memory arena.

    Layout (all float64): ``len(domains)`` trace matrices of shape
    ``(n_jobs, n_samples)`` followed by one component block of shape
    ``(n_jobs, n_slots, n_samples)``.  Rows are indexed by the job's
    position in the batch's unique-job list, so a cold sweep's dataset
    rows land contiguously and :func:`stack_rows` can return views.
    """

    def __init__(self, shm: shared_memory.SharedMemory, spec: ArenaSpec,
                 owner: bool):
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self._finalizer: Optional[weakref.finalize] = None
        self._trace_mats: Optional[List[np.ndarray]] = None
        self._comp_block: Optional[np.ndarray] = None
        self._trace_mats_ro: Optional[List[np.ndarray]] = None
        self._comp_block_ro: Optional[np.ndarray] = None
        self.zero_copy = True
        if owner:
            # Materialized views must outlive this arena object, but
            # SharedMemory.close() — invoked by its __del__ — unmaps the
            # segment regardless of live numpy views (numpy holds no
            # blocking buffer export; reading a view then segfaults).
            # So the parent maps the segment itself: the numpy base
            # chain refcounts this mmap object, and the last view's
            # death — not this arena's — unmaps the memory.
            fd = getattr(shm, "_fd", -1)
            if isinstance(fd, int) and fd >= 0:
                try:
                    self._buffer = mmap.mmap(fd, spec.total_bytes)
                except (OSError, ValueError):
                    fd = -1
            if isinstance(fd, int) and fd >= 0:
                shm.close()  # the name (and workers' attaches) survive
            else:
                # No usable file descriptor (non-POSIX): views would not
                # own the mapping, so materialize() copies instead.
                self._buffer = shm.buf
                self.zero_copy = False
            # The finalizer — not __del__, whose ordering during
            # interpreter shutdown is undefined — removes the segment's
            # name exactly once: on explicit unlink(), when the last
            # arena reference drops (abandoned batch), or at interpreter
            # exit via atexit.  It holds the SharedMemory object, never
            # the arena, so it cannot resurrect self.
            self._finalizer = weakref.finalize(self, _unlink_segment, shm)
        else:
            self._buffer = shm.buf

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, jobs: Sequence, domains: Sequence[str] = DOMAINS,
               n_slots: int = MAX_COMPONENT_SLOTS) -> Optional["ShmArena"]:
        """Allocate an arena sized for ``jobs``; ``None`` if unavailable.

        Returning ``None`` (no shared-memory support, oversized batch,
        exhausted ``/dev/shm``) makes the executor fall back to the
        pickle transport — never an error.
        """
        if not jobs:
            return None
        width = max(job.n_samples for job in jobs)
        spec = ArenaSpec(name="", n_jobs=len(jobs), n_samples=width,
                         domains=tuple(domains), n_slots=n_slots)
        if spec.total_bytes > MAX_ARENA_BYTES:
            return None
        try:
            shm = shared_memory.SharedMemory(create=True,
                                             size=spec.total_bytes)
        except (OSError, ValueError):
            return None
        spec = ArenaSpec(name=shm.name, n_jobs=spec.n_jobs,
                         n_samples=spec.n_samples, domains=spec.domains,
                         n_slots=spec.n_slots)
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "ShmArena":
        """Map an existing arena by name (worker side)."""
        return cls(shared_memory.SharedMemory(name=spec.name), spec,
                   owner=False)

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------
    def _traces(self) -> List[np.ndarray]:
        if self._trace_mats is None:
            spec = self.spec
            self._trace_mats = [
                np.ndarray((spec.n_jobs, spec.n_samples), dtype=np.float64,
                           buffer=self._buffer,
                           offset=i * spec.trace_block_bytes)
                for i in range(len(spec.domains))
            ]
        return self._trace_mats

    def _components(self) -> np.ndarray:
        if self._comp_block is None:
            spec = self.spec
            self._comp_block = np.ndarray(
                (spec.n_jobs, spec.n_slots, spec.n_samples),
                dtype=np.float64, buffer=self._buffer,
                offset=len(spec.domains) * spec.trace_block_bytes)
        return self._comp_block

    def _read_only(self):
        """Read-only aliases of the arena matrices.

        Slicing a read-only base yields read-only views for free, so
        :meth:`materialize` inherits the protection without paying a
        per-view ``flags`` write (thousands per paper-scale batch).
        """
        if self._trace_mats_ro is None:
            self._trace_mats_ro = [mat.view() for mat in self._traces()]
            for mat in self._trace_mats_ro:
                mat.flags.writeable = False
            self._comp_block_ro = self._components().view()
            self._comp_block_ro.flags.writeable = False
        return self._trace_mats_ro, self._comp_block_ro

    # ------------------------------------------------------------------
    # Worker side: write
    # ------------------------------------------------------------------
    def write(self, row: int, result: SimulationResult,
              ) -> ShmResultDescriptor:
        """Write one result's arrays into arena row ``row``.

        Returns the tiny descriptor to send back; results that do not
        fit the layout (extra domains, too many components, foreign
        dtype or shape) are returned whole via ``fallback`` instead —
        a partially written row is simply never referenced.
        """
        spec = self.spec
        n = result.n_samples
        traces = result.traces
        components = result.components
        shape = (n,)
        if (n <= spec.n_samples and len(traces) == len(spec.domains)
                and len(components) <= spec.n_slots):
            mats = self._traces()
            comp = self._components()
            for i, domain in enumerate(spec.domains):
                arr = traces.get(domain)
                if arr is None or arr.dtype is not _F64 or arr.shape != shape:
                    break
                mats[i][row, :n] = arr
            else:
                comp_row = comp[row]
                for slot, arr in enumerate(components.values()):
                    if arr.dtype is not _F64 or arr.shape != shape:
                        break
                    comp_row[slot, :n] = arr
                else:
                    return ShmResultDescriptor(
                        row=row, benchmark=result.benchmark,
                        config=result.config, n_samples=n,
                        backend=result.backend,
                        component_names=tuple(components),
                    )
        return ShmResultDescriptor(
            row=row, benchmark=result.benchmark, config=result.config,
            n_samples=n, backend=result.backend, fallback=result,
        )

    def write_chunk(self, rows: Sequence[int],
                    results: Sequence[SimulationResult],
                    ) -> Optional[List[ShmResultDescriptor]]:
        """Vectorized write of a uniform chunk, or ``None``.

        When every result in the chunk shares the arena's full sample
        width and one component-name tuple, and the rows are
        consecutive (the executor always assigns them that way), each
        domain lands as **one** stacked slice assignment instead of a
        per-job row write — the hot path for tuned interval chunks of
        dozens of jobs.  Returns ``None`` whenever the chunk is not
        uniform; the caller then falls back to per-result writes.
        """
        results = list(results)
        if not results:
            return []
        spec = self.spec
        first = results[0]
        n = first.n_samples
        names = tuple(first.components)
        if n != spec.n_samples or len(names) > spec.n_slots:
            return None
        rows = list(rows)
        start = rows[0]
        if rows != list(range(start, start + len(results))):
            return None
        shape = (n,)
        for result in results:
            if (result.n_samples != n
                    or tuple(result.components) != names
                    or len(result.traces) != len(spec.domains)):
                return None
        stop = start + len(results)
        mats = self._traces()
        for i, domain in enumerate(spec.domains):
            arrays = []
            for result in results:
                arr = result.traces.get(domain)
                if arr is None or arr.dtype is not _F64 or arr.shape != shape:
                    return None
                arrays.append(arr)
            mats[i][start:stop] = arrays
        if names:
            block = []
            for result in results:
                row = []
                for arr in result.components.values():
                    if arr.dtype is not _F64 or arr.shape != shape:
                        return None
                    row.append(arr)
                block.append(row)
            self._components()[start:stop, :len(names)] = block
        return [
            ShmResultDescriptor(
                row=start + j, benchmark=result.benchmark,
                config=result.config, n_samples=n, backend=result.backend,
                component_names=names,
            )
            for j, result in enumerate(results)
        ]

    # ------------------------------------------------------------------
    # Parent side: materialize
    # ------------------------------------------------------------------
    def materialize(self, desc: ShmResultDescriptor) -> SimulationResult:
        """Build a result whose arrays are zero-copy views into the arena.

        Views are marked read-only: they alias batch-shared memory, so
        in-place mutation would corrupt sibling results.  Use
        :meth:`~repro.uarch.simulator.SimulationResult.detach` for a
        private, writable copy.
        """
        if desc.fallback is not None:
            return desc.fallback
        n = desc.n_samples
        row = desc.row
        mats, comp = self._read_only()
        full = n == self.spec.n_samples
        if full:
            traces = {domain: mats[i][row]
                      for i, domain in enumerate(self.spec.domains)}
            comp_row = comp[row]
            components = {name: comp_row[slot]
                          for slot, name in enumerate(desc.component_names)}
        else:
            traces = {domain: mats[i][row, :n]
                      for i, domain in enumerate(self.spec.domains)}
            comp_row = comp[row]
            components = {name: comp_row[slot, :n]
                          for slot, name in enumerate(desc.component_names)}
        result = SimulationResult(
            benchmark=desc.benchmark, config=desc.config, n_samples=n,
            backend=desc.backend, traces=traces, components=components,
        )
        # Without a refcounted mapping the views die with this arena;
        # hand out private copies instead (correct, just not zero-copy).
        return result if self.zero_copy else result.detach()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def unlinked(self) -> bool:
        return self._finalizer is not None and not self._finalizer.alive

    def unlink(self) -> None:
        """Remove the arena's name from the system (parent, at batch end).

        The mapping — and every view handed out by :meth:`materialize`
        — stays valid until the arrays are garbage collected; only new
        attaches become impossible and the kernel reclaims the memory
        once the last mapping drops.  Backed by a ``weakref.finalize``
        on the segment, so the unlink happens **exactly once** whether
        it is called explicitly, the arena is garbage collected
        (abandoned batch), or the interpreter exits.
        """
        if self._finalizer is not None:
            self._finalizer()

    def release(self) -> None:
        """Drop array views and close the mapping (worker, after writes)."""
        self._trace_mats = None
        self._comp_block = None
        try:
            self._shm.close()
        except BufferError:
            # A view escaped; the mapping lives until it is collected.
            pass


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    """Finalizer target: remove a segment's name, swallowing races."""
    try:
        shm.unlink()
    except (OSError, FileNotFoundError):
        pass  # already gone (another process, or a prior explicit unlink)


def write_results(spec: ArenaSpec, rows: Sequence[int],
                  results: Sequence[SimulationResult],
                  ) -> List[ShmResultDescriptor]:
    """Worker entry: write a chunk's results into the arena.

    Attaches by name, writes each result into its assigned row, and
    closes the worker-side mapping before returning the descriptors.
    """
    arena = ShmArena.attach(spec)
    try:
        fast = arena.write_chunk(rows, results)
        if fast is not None:
            return fast
        return [arena.write(row, result)
                for row, result in zip(rows, results)]
    finally:
        arena.release()


def stack_rows(arrays: Sequence[np.ndarray],
               rows: Optional[Sequence[Optional[Tuple[np.ndarray, int]]]]
               = None) -> np.ndarray:
    """Stack equal-length 1-D arrays into a matrix, zero-copy when possible.

    Each array is located as one row of a 2-D matrix: by ``rows[i]``,
    ``(matrix, index)``, where the caller knows it (a result's block and
    row), else by the array's own base and address (a shared-memory
    arena row).  When every array is a row of one C-contiguous matrix
    and the rows are consecutive and in order — the layout a cold sweep
    produces — the stacked matrix is a **slice of that matrix**, not a
    copy.  Otherwise located rows are one fancy-index gather per matrix
    into a fresh matrix, and anything else (owning arrays, pickle-path
    results) falls back to ``np.vstack``.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("stack_rows needs at least one array")
    groups: Dict[int, Tuple[np.ndarray, List[int], List[int]]] = {}
    addresses: Dict[int, int] = {}  # id(base) -> its data address
    for position, arr in enumerate(arrays):
        where = rows[position] if rows is not None else None
        if where is None:
            where = _row_of(arr, addresses)
            if where is None:
                return np.vstack(arrays)
        matrix, index = where
        group = groups.get(id(matrix))
        if group is None:
            group = groups[id(matrix)] = (matrix, [], [])
        group[1].append(position)
        group[2].append(index)
    if len(groups) == 1:
        [(matrix, _, indices)] = groups.values()
        first = indices[0]
        if matrix.flags.c_contiguous \
                and indices == list(range(first, first + len(indices))):
            view = matrix[first:first + len(indices)]
            if view.flags.writeable \
                    and not all(arr.flags.writeable for arr in arrays):
                view.flags.writeable = False
            return view
    matrices = [matrix for matrix, _, _ in groups.values()]
    out = np.empty((len(arrays), *matrices[0].shape[1:]),
                   np.result_type(*matrices))
    for matrix, positions, indices in groups.values():
        out[positions] = matrix[indices]
    return out


def _row_of(arr: np.ndarray, addresses: Dict[int, int],
            ) -> Optional[Tuple[np.ndarray, int]]:
    """``(base, index)`` when ``arr`` is the whole row ``index`` of its
    2-D base, else ``None``; ``addresses`` caches each base's address."""
    base = arr.base
    if base is None or getattr(base, "ndim", 0) != 2 or arr.ndim != 1 \
            or arr.shape[0] != base.shape[1] or arr.dtype != base.dtype:
        return None
    row_stride, item_stride = base.strides
    if row_stride <= 0 or arr.strides != (item_stride,):
        return None
    address = addresses.get(id(base))
    if address is None:
        address = addresses[id(base)] = base.__array_interface__["data"][0]
    row, rest = divmod(arr.__array_interface__["data"][0] - address,
                       row_stride)
    return None if rest else (base, row)
