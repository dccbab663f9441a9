"""Result cache: one checksummed record per job on disk, LRU in memory.

Repeated experiment and figure runs re-simulate the exact same
(benchmark, configuration) grid; with a :class:`ResultCache` attached to
the engine every repeat becomes a lookup.  Entries are named by the
job's content-hash key (:meth:`repro.engine.jobs.SimJob.key`) prefixed
with the engine's key version, so a cache directory can be shared
between processes, machines, and sweeps — anything with the same key is
by construction the same simulation — and entries written under an
older, incompatible key version are identifiable (and collectable) by
filename alone.

The disk tier has a real lifecycle:

* an optional **byte cap** (``max_bytes``) enforced after every store by
  evicting the oldest entries first (file-mtime LRU, ties broken by
  entry filename so eviction is reproducible even on filesystems with
  coarse timestamps);
* explicit :meth:`gc` (size-targeted collection), :meth:`gc_versions`
  (drop entries from other key versions) and :meth:`clear`;
* byte/entry accounting surfaced through :meth:`disk_bytes`,
  :meth:`describe` and the ``repro cache`` CLI.

An entry is one record (``MAGIC``, JSON header length, CRC32 of the
rest, JSON header, config values, raw array bytes), written atomically
in one ``write`` (tmp file + ``os.replace``) and read in one ``read``.
A wrong magic, CRC or length, or a non-numeric dtype, makes it a miss
that the next store overwrites.  Legacy ``*.npz`` entries are never
read, but are counted and collected by :meth:`ResultCache.gc_versions`.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import os
import struct
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.engine.jobs import KEY_VERSION, SimJob
from repro.uarch.params import MachineConfig
from repro.uarch.simulator import SimulationResult

#: Filesystem-safe form of the current job-key version, used as the
#: filename prefix of every disk entry this cache writes.
VERSION_TAG = KEY_VERSION.replace("/", "-")

#: Entry filename suffix, and that of the earlier npz entries.
SUFFIX, LEGACY_SUFFIX = ".res", ".npz"

#: First bytes of every entry; bump the digit on a layout change.
MAGIC = b"REPRORS1"
_PREFIX = struct.Struct("<8sII")  # MAGIC, header length, CRC32 of rest

#: The only dtype kinds stored or loaded: never object arrays.
_NUMERIC_KINDS = "biufc"

#: MachineConfig field -> the declared type its value is rebuilt with.
_CONFIG_TYPES = {f.name: {"bool": bool, "int": int}.get(f.type, float)
                 for f in dataclasses.fields(MachineConfig)}


@dataclass
class CacheStats:
    """Hit/miss/volume counters for one :class:`ResultCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    bytes_written: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        text = (f"{self.hits}/{self.lookups} hits "
                f"({self.memory_hits} memory, {self.disk_hits} disk), "
                f"{self.stores} stores")
        if self.evictions:
            text += f", {self.evictions} evictions"
        return text


class ResultCache:
    """Two-level (memory LRU + optional disk) simulation-result cache.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk tier; ``None`` keeps the cache
        purely in-memory.  Created on first store.
    memory_items:
        Capacity of the in-memory LRU front (0 disables it).
    max_bytes:
        Disk-tier byte cap, enforced after every store by mtime-LRU
        eviction; ``None`` leaves the tier unbounded.

    Raises
    ------
    repro.errors.EngineError
        If ``memory_items`` is negative or ``max_bytes`` is smaller
        than 1.

    Examples
    --------
    Memory-only round trip (no disk directory configured):

    >>> from repro.engine import ResultCache, make_jobs
    >>> from repro.uarch.params import baseline_config
    >>> cache = ResultCache(cache_dir=None, memory_items=4)
    >>> job = make_jobs("gcc", [baseline_config()], n_samples=8)[0]
    >>> cache.get(job) is None          # first lookup misses
    True
    >>> cache.put(job, job.run())
    >>> cache.get(job).n_samples        # now served from memory
    8
    >>> cache.stats.describe()
    '1/2 hits (1 memory, 0 disk), 1 stores'
    """

    def __init__(self, cache_dir=None, memory_items: int = 512,
                 max_bytes: Optional[int] = None):
        if memory_items < 0:
            raise EngineError(
                f"memory_items must be >= 0, got {memory_items}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise EngineError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.memory_items = memory_items
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, SimulationResult]" = OrderedDict()
        # Disk index: filename -> (mtime_ns, size in bytes).  Built
        # lazily from a directory scan, then maintained incrementally.
        # Eviction victims are chosen by (mtime, filename) — never by
        # index insertion order — so the eviction sequence is identical
        # whether the index was scanned or grown by puts, even when
        # coarse filesystem timestamps make many entries share an mtime.
        # A min-heap over (mtime_ns, filename) keeps victim selection
        # O(log n) per store; stale heap tuples (overwritten or already
        # removed entries) are skipped lazily against the index.
        self._disk: Optional[Dict[str, Tuple[int, int]]] = None
        self._heap: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{VERSION_TAG}-{key}{SUFFIX}"

    def _remember(self, key: str, result: SimulationResult) -> None:
        if self.memory_items == 0:
            return
        # Arena-backed results are views into a whole batch's shared
        # memory; storing them as-is would pin the arena for the LRU's
        # lifetime.  detach() copies such results (and is a no-op for
        # results that already own their arrays).
        self._memory[key] = result.detach()
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_items:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # Disk index
    # ------------------------------------------------------------------
    def _entries(self) -> List[Path]:
        """Every disk entry, current format and legacy npz alike."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        return [path for path in self.cache_dir.iterdir()
                if path.name.endswith((SUFFIX, LEGACY_SUFFIX))]

    def _scan_disk(self) -> Dict[str, Tuple[int, int]]:
        index: Dict[str, Tuple[int, int]] = {}
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted underneath us (shared directory)
            index[path.name] = (stat.st_mtime_ns, stat.st_size)
        return index

    def _rescan(self) -> Dict[str, Tuple[int, int]]:
        self._disk = self._scan_disk()
        self._heap = [(mtime, name)
                      for name, (mtime, _) in self._disk.items()]
        heapq.heapify(self._heap)
        return self._disk

    def _index(self) -> Dict[str, Tuple[int, int]]:
        if self._disk is None:
            self._rescan()
        return self._disk

    def disk_bytes(self) -> int:
        """Total bytes held by the disk tier (0 when disabled)."""
        if self.cache_dir is None:
            return 0
        return sum(size for _, size in self._index().values())

    def _evict(self, name: str) -> int:
        """Remove one disk entry; returns the bytes freed."""
        index = self._index()
        _, size = index.pop(name, (0, 0))
        try:
            (self.cache_dir / name).unlink()
        except OSError:
            pass  # already gone: the accounting above still holds
        self.stats.evictions += 1
        return size

    def _enforce_cap(self, max_bytes: Optional[int]) -> Tuple[int, int]:
        """Evict oldest-first until the tier fits; (entries, bytes) freed.

        The victim is always the minimum of ``(mtime, filename)``: the
        filename tie-break keeps the eviction order reproducible when
        coarse filesystem timestamps give many entries one mtime.
        """
        freed_entries, freed_bytes = 0, 0
        if max_bytes is None or self.cache_dir is None:
            return freed_entries, freed_bytes
        index = self._index()
        total = sum(size for _, size in index.values())
        while total > max_bytes and index:
            name = None
            while self._heap:
                mtime, candidate = heapq.heappop(self._heap)
                entry = index.get(candidate)
                if entry is not None and entry[0] == mtime:
                    name = candidate
                    break  # live entry; stale tuples are skipped
            if name is None:
                break  # heap exhausted (index mutated externally)
            size = self._evict(name)
            total -= size
            freed_entries += 1
            freed_bytes += size
        return freed_entries, freed_bytes

    # ------------------------------------------------------------------
    def get(self, job: SimJob) -> Optional[SimulationResult]:
        """The cached result for ``job``, or ``None`` on a miss.

        Parameters
        ----------
        job:
            Looked up by its content-hash :meth:`~repro.engine.jobs.SimJob.key`.

        Returns
        -------
        SimulationResult or None
            ``None`` on a miss *and* on an unreadable/corrupt disk
            entry (which will simply be overwritten by the next store).
        """
        key = job.key()
        if key in self._memory:
            self.stats.memory_hits += 1
            self._memory.move_to_end(key)
            return self._memory[key]
        if self.cache_dir is not None:
            try:
                result = self._load(self._path(key))
            except Exception:
                pass  # absent or corrupt entry: a miss
            else:
                self.stats.disk_hits += 1
                self._remember(key, result)
                return result
        self.stats.misses += 1
        return None

    def put(self, job: SimJob, result: SimulationResult) -> None:
        """Store ``result`` under ``job``'s key in every enabled tier.

        With a ``max_bytes`` cap configured, the disk tier is brought
        back under the cap before this method returns — the cache never
        ends a sweep over budget.

        Parameters
        ----------
        job:
            Names the entry (content-hash key, version-prefixed on
            disk).
        result:
            Stored as-is on disk; the memory tier stores a detached
            copy so it never pins a shared-memory arena.
        """
        key = job.key()
        self._remember(key, result)
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            self._dump(path, result)
            stat = path.stat()
            # Overwrites refresh recency too: the recorded mtime is the
            # new file's, so a rewritten entry stops being an eviction
            # candidate until it ages again (its old heap tuple goes
            # stale and is skipped at pop time).
            self._index()[path.name] = (stat.st_mtime_ns, stat.st_size)
            heapq.heappush(self._heap, (stat.st_mtime_ns, path.name))
            self.stats.bytes_written += stat.st_size
            self._enforce_cap(self.max_bytes)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Collect the disk tier down to a byte target.

        Rescans the directory first (so entries written by other
        processes are seen), then evicts oldest-mtime-first until the
        tier fits ``max_bytes`` (defaulting to the configured cap).
        Returns ``(entries_removed, bytes_freed)``.
        """
        if self.cache_dir is None:
            return (0, 0)
        self._rescan()
        target = max_bytes if max_bytes is not None else self.max_bytes
        return self._enforce_cap(target)

    def gc_versions(self) -> Tuple[int, int]:
        """Drop disk entries written under any *other* key version.

        A key-version bump (:data:`repro.engine.jobs.KEY_VERSION`) makes
        old entries unreachable — this reclaims their space.  Entries
        from the seed naming scheme (bare hex, no version prefix) and
        legacy ``*.npz`` entries of any version are unreachable too and
        are collected alike.  Returns ``(entries_removed, bytes_freed)``.
        """
        if self.cache_dir is None:
            return (0, 0)
        self._rescan()
        prefix = VERSION_TAG + "-"
        stale = [name for name in self._index()
                 if not (name.startswith(prefix) and name.endswith(SUFFIX))]
        freed = 0
        for name in stale:
            freed += self._evict(name)
        return (len(stale), freed)

    def clear(self) -> int:
        """Drop every entry in every tier; returns disk entries removed."""
        self._memory.clear()
        if self.cache_dir is None:
            return 0
        self._rescan()
        names = list(self._index())
        for name in names:
            self._evict(name)
        return len(names)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier survives)."""
        self._memory.clear()

    def describe(self) -> Dict[str, object]:
        """Machine-readable snapshot for the ``repro cache`` CLI."""
        return {
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "disk_entries": len(self._index()) if self.cache_dir else 0,
            "disk_bytes": self.disk_bytes(),
            "max_bytes": self.max_bytes,
            "memory_entries": len(self._memory),
            "memory_items": self.memory_items,
            "key_version": KEY_VERSION,
            "stats": self.stats.describe(),
        }

    def __len__(self) -> int:
        """Number of entries in the disk tier (memory-only: LRU size)."""
        if self.cache_dir is None:
            return len(self._memory)
        return len(self._entries())

    # ------------------------------------------------------------------
    # Entry serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _dump(path: Path, result: SimulationResult) -> None:
        config = result.config
        # Config values as one float64 block (exact below 2**53) give
        # every entry of one benchmark and layout the same size.
        arrays = [np.array([getattr(config, name) for name in _CONFIG_TYPES],
                           dtype="<f8")]
        layout = {"traces": [], "components": []}
        for group in layout:
            for name, arr in getattr(result, group).items():
                if arr.dtype.kind not in _NUMERIC_KINDS:
                    raise EngineError(f"cannot cache non-numeric {group} "
                                      f"array {name!r} ({arr.dtype})")
                # Arena-backed rows are already contiguous: no copy.
                arrays.append(np.ascontiguousarray(arr))
                layout[group].append([name, arr.dtype.str, arr.shape])
        header = json.dumps(dict(
            benchmark=result.benchmark, backend=result.backend,
            n_samples=int(result.n_samples), config=list(_CONFIG_TYPES),
            **layout), separators=(",", ":")).encode("utf8")
        crc = zlib.crc32(header)
        for arr in arrays:
            crc = zlib.crc32(arr, crc)
        record = b"".join(
            [_PREFIX.pack(MAGIC, len(header), crc), header, *arrays])
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(record)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @staticmethod
    def _load(path: Path) -> SimulationResult:
        """Decode one entry; any damage raises (the caller's miss)."""
        record = path.read_bytes()
        magic, header_len, crc = _PREFIX.unpack_from(record)
        body = memoryview(record)[_PREFIX.size:]
        if magic != MAGIC or zlib.crc32(body) != crc:
            raise ValueError(f"{path.name}: bad magic or checksum")
        header = json.loads(bytes(body[:header_len]))
        offset = _PREFIX.size + header_len

        def take(descr, shape) -> np.ndarray:
            nonlocal offset
            dtype = np.dtype(descr)
            if dtype.kind not in _NUMERIC_KINDS:
                raise ValueError(f"{path.name}: refusing dtype {descr}")
            count = math.prod(shape)
            arr = np.frombuffer(record, dtype, count, offset)
            offset += count * dtype.itemsize
            return arr.reshape(shape).copy()  # owns its memory

        names = header["config"]
        values = take("<f8", [len(names)]).tolist()
        groups = {group: {name: take(descr, shape)
                          for name, descr, shape in header[group]}
                  for group in ("traces", "components")}
        if offset != len(record):
            raise ValueError(f"{path.name}: length mismatch")
        config = MachineConfig(**{
            name: _CONFIG_TYPES[name](value)
            for name, value in zip(names, values)
            if name in _CONFIG_TYPES  # forward compatibility
        })
        return SimulationResult(
            benchmark=str(header["benchmark"]), config=config,
            n_samples=int(header["n_samples"]),
            backend=str(header["backend"]), **groups)
