"""Result cache: checksummed records, one segment file per batch on disk.

Repeated experiment and figure runs re-simulate the exact same
(benchmark, configuration) grid; with a :class:`ResultCache` attached to
the engine every repeat becomes a lookup.  Results are found by the
job's content-hash key (:meth:`repro.engine.jobs.SimJob.key`), so a
cache directory can be shared between processes, machines, and sweeps —
anything with the same key is by construction the same simulation.

On disk a **record** holds one result: ``MAGIC``, JSON header length,
CRC32 of the rest, JSON header, config values, raw array bytes.  A
**segment** file holds the records one engine batch stored, back to
back, then a footer of fixed-width ``(offset, length, crc)`` entries
each followed by its key, then a trailer (footer length, footer CRC32,
``SEGMENT_MAGIC``).  It is written once, atomically (tmp file +
``os.replace``), as ``<VERSION_TAG>-<hash of its keys>.seg``, so other
key versions are identifiable by name and names are reproducible.  A
batch commits when it drains, when its executor fails, and whenever its
records pass :data:`SEGMENT_BYTES`; a direct :meth:`ResultCache.put`
commits a one-record segment.

Readers index key -> (segment, offset, length, CRC) from the footers,
the newest segment (mtime, then name) winning a key.  A miss is a dict
lookup, and rescans the directory only when its ``st_mtime_ns`` changed
since the last scan, so segments other processes commit become visible
(one committed in the same filesystem timestamp tick as that scan stays
invisible until the directory changes again: a re-simulation, never a
wrong result).  A hit is one ranged read.  A bad trailer or footer CRC
makes every key of a segment miss; a bad record magic, CRC or length, a
non-numeric dtype, or a footer entry past the records makes that key
miss.  The re-simulated result is committed in a newer segment.

The disk tier has a real lifecycle:

* an optional **byte cap** (``max_bytes``) enforced after every commit
  by evicting whole segments, oldest first (file-mtime LRU, ties broken
  by segment filename so eviction is reproducible even on filesystems
  with coarse timestamps);
* explicit :meth:`gc` (size-targeted collection), :meth:`gc_versions`
  (delete every file this version cannot read) and :meth:`clear`;
* record/segment/byte accounting surfaced through :meth:`disk_bytes`,
  :meth:`describe` and the ``repro cache`` CLI.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import struct
import tempfile
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.engine.jobs import KEY_VERSION
from repro.uarch.params import MachineConfig
from repro.uarch.simulator import SimulationResult

#: Filesystem-safe form of the current job-key version, used as the
#: filename prefix of every segment this cache writes.
VERSION_TAG = KEY_VERSION.replace("/", "-")

#: Segment filename suffix.
SUFFIX = ".seg"

#: Suffixes of the files earlier cache layouts wrote: one record per
#: job (``.res``) and one npz per job.  :meth:`ResultCache.gc_versions`
#: deletes them.
STALE_SUFFIXES = (".res", ".npz")

#: First bytes of every record; bump the digit on a layout change.
MAGIC = b"REPRORS1"
_PREFIX = struct.Struct("<8sII")  # MAGIC, header length, CRC32 of rest

#: Last bytes of every segment; bump the digit on a layout change.
SEGMENT_MAGIC = b"REPROSG1"
_TRAILER = struct.Struct("<II8s")  # footer length, footer CRC32, magic
_ENTRY = struct.Struct("<QQIH")  # record offset, length, CRC32; key length

#: A batch commits its pending records once they pass this many bytes.
SEGMENT_BYTES = 8 << 20

#: Buffers per ``os.writev`` call (``IOV_MAX`` on Linux and macOS).
_IOV_MAX = 1024

#: A ``.tmp`` file older than this is a crashed writer's leftover.
ORPHAN_TMP_SECONDS = 3600

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


class PendingSegment:
    """Records one batch has stored but not yet committed to disk.

    Passed to :meth:`ResultCache.put` and :meth:`ResultCache.commit`; an
    abandoned one loses only its records, which re-simulate next time.
    """

    def __init__(self):
        # The records' pieces, back to back: prefix and header bytes,
        # then the result's own arrays (no copy; a result mutated
        # before the commit fails its CRC when read, a miss).
        self.parts: list = []
        self.nbytes = 0
        # (key, offset, length, CRC) of each record.
        self.entries: List[Tuple[str, int, int, int]] = []


#: Where a record lives: (segment name, offset, length, CRC).
_Where = Tuple[str, int, int, int]


class _Segment(NamedTuple):
    mtime_ns: int
    size: int
    entries: Dict[str, _Where]  # key -> its record in this segment


def _is_segment(name: str) -> bool:
    return name.startswith(VERSION_TAG + "-") and name.endswith(SUFFIX)


class ResultCache:
    """Two-level (memory LRU + optional disk) simulation-result cache.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk tier; ``None`` keeps the cache
        purely in-memory.  Created on first commit.
    memory_items:
        Capacity of the in-memory LRU front (0 disables it).
    max_bytes:
        Disk-tier byte cap, enforced after every commit by evicting
        whole segments oldest first; ``None`` leaves the tier
        unbounded.

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
    >>> cache.get(job.key()) is None    # first lookup misses
    True
    >>> cache.put(job.key(), job.run())
    >>> cache.get(job.key()).n_samples  # now served from memory
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
        # Disk index: segment name -> _Segment, built lazily by a
        # directory scan and kept up to date by this instance's commits
        # and evictions; key -> _Where over it, newest segment winning.
        self._segments: Optional[Dict[str, _Segment]] = None
        self._keys: Dict[str, _Where] = {}
        self._dir_mtime: Optional[int] = None  # at the last scan

    # ------------------------------------------------------------------
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
    def _mtime_now(self) -> Optional[int]:
        try:
            return os.stat(self.cache_dir).st_mtime_ns
        except OSError:
            return None  # not created yet

    def _age(self, name: str) -> Tuple[int, str]:
        """Eviction and precedence order: (mtime, filename)."""
        return self._segments[name].mtime_ns, name

    def _scan(self) -> None:
        """List the directory; read the footers of new or changed
        segments and rebuild the key index, newest segment winning."""
        # Taken before listing, so a commit during the listing changes it.
        self._dir_mtime = self._mtime_now()
        known = self._segments or {}
        segments: Dict[str, _Segment] = {}
        if self._dir_mtime is not None:
            with os.scandir(self.cache_dir) as listing:
                for entry in listing:
                    if not _is_segment(entry.name):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue  # deleted underneath us (shared directory)
                    segment = known.get(entry.name)
                    if segment is None or (segment.mtime_ns, segment.size) \
                            != (stat.st_mtime_ns, stat.st_size):
                        footer = _read_footer(entry.path, stat.st_size)
                        segment = _Segment(stat.st_mtime_ns, stat.st_size, {
                            key: (entry.name, offset, length, crc)
                            for key, offset, length, crc in footer})
                    segments[entry.name] = segment
        self._segments = segments
        self._keys = {}
        for name in sorted(segments, key=self._age):
            self._keys.update(segments[name].entries)

    def _index(self, refresh: bool = False) -> Dict[str, _Segment]:
        """The segment index; rescanned first if it was never built or,
        with ``refresh``, if the directory changed since the last scan."""
        if self._segments is None or (
                refresh and self._mtime_now() != self._dir_mtime):
            self._scan()
        return self._segments

    def disk_bytes(self) -> int:
        """Total bytes held by the disk tier (0 when disabled)."""
        if self.cache_dir is None:
            return 0
        return sum(s.size for s in self._index(refresh=True).values())

    def _evict(self, name: str) -> int:
        """Remove one segment and its keys; returns the bytes freed."""
        segment = self._segments.pop(name)
        for key, where in segment.entries.items():
            if self._keys.get(key) is where:
                del self._keys[key]
        try:
            (self.cache_dir / name).unlink()
        except OSError:
            pass  # already gone: the accounting above still holds
        self.stats.evictions += 1
        return segment.size

    def _enforce_cap(self, max_bytes: Optional[int]) -> Tuple[int, int]:
        """Evict oldest segments until the tier fits; (segments, bytes)
        freed.

        Victims go in ``(mtime, filename)`` order: the filename
        tie-break keeps eviction reproducible when coarse filesystem
        timestamps give many segments one mtime.
        """
        freed_segments, freed_bytes = 0, 0
        if max_bytes is None or self.cache_dir is None:
            return freed_segments, freed_bytes
        segments = self._index()
        total = sum(s.size for s in segments.values())
        for name in sorted(segments, key=self._age):
            if total <= max_bytes:
                break
            size = self._evict(name)
            total -= size
            freed_segments += 1
            freed_bytes += size
        return freed_segments, freed_bytes

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        Parameters
        ----------
        key:
            A job's content-hash :meth:`~repro.engine.jobs.SimJob.key`.

        Returns
        -------
        SimulationResult or None
            ``None`` on a miss *and* on an unreadable/corrupt disk
            record (a later commit of the key supersedes it).
        """
        if key in self._memory:
            self.stats.memory_hits += 1
            self._memory.move_to_end(key)
            return self._memory[key]
        if self.cache_dir is not None:
            self._index()
            result = self._load(key)
            if result is None and self._mtime_now() != self._dir_mtime:
                self._scan()  # a commit since the last scan: look again
                result = self._load(key)
            if result is not None:
                self.stats.disk_hits += 1
                self._remember(key, result)
                return result
        self.stats.misses += 1
        return None

    def _load(self, key: str) -> Optional[SimulationResult]:
        """Read and decode ``key``'s record; ``None`` if it is not
        indexed, has vanished or is damaged."""
        where = self._keys.get(key)
        if where is None:
            return None
        name, offset, length, crc = where
        try:
            fd = os.open(os.path.join(self.cache_dir, name), os.O_RDONLY)
            try:
                record = os.pread(fd, length, offset)
            finally:
                os.close(fd)
            return _decode(record, crc)
        except Exception:
            return None

    def put(self, key: str, result: SimulationResult,
            pending: Optional[PendingSegment] = None) -> None:
        """Store ``result`` under ``key`` in every enabled tier.

        Without ``pending`` the record is committed to disk as a
        one-record segment before this method returns.  With it, the
        record joins that batch's pending segment, committed once it
        passes :data:`SEGMENT_BYTES` or by :meth:`commit`.

        Parameters
        ----------
        key:
            A job's content-hash key; names the result in both tiers.
        result:
            Serialized as-is for disk; the memory tier stores a
            detached copy so it never pins a shared-memory arena.
        pending:
            The storing batch's :class:`PendingSegment`, if any.
        """
        self._remember(key, result)
        if self.cache_dir is not None:
            batch = pending if pending is not None else PendingSegment()
            parts, length, crc = _encode(result)
            batch.parts += parts
            batch.entries.append((key, batch.nbytes, length, crc))
            batch.nbytes += length
            if pending is None or batch.nbytes >= SEGMENT_BYTES:
                self.commit(batch)
        self.stats.stores += 1

    def commit(self, pending: PendingSegment) -> None:
        """Write ``pending``'s records as one segment and empty it.

        The segment is atomic (tmp file + ``os.replace``) and indexed at
        once.  With a ``max_bytes`` cap configured, the disk tier is
        brought back under the cap before this method returns — the
        cache never ends a batch over budget.
        """
        if self.cache_dir is None or not pending.entries:
            return
        parts, entries = pending.parts, pending.entries
        pending.parts, pending.nbytes, pending.entries = [], 0, []
        keys = "\n".join(sorted(key for key, _, _, _ in entries))
        name = (f"{VERSION_TAG}-"
                f"{hashlib.sha256(keys.encode('utf8')).hexdigest()[:32]}"
                f"{SUFFIX}")
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        segments = self._index()
        path = self.cache_dir / name
        fd, tmp = tempfile.mkstemp(dir=str(self.cache_dir), prefix=name,
                                   suffix=".tmp")
        try:
            try:
                _write_all(fd, [*parts, _pack_footer(entries)])
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        stat = path.stat()
        # A rewrite under the same name (same key set) refreshes the
        # segment's recency: its recorded mtime is the new file's.
        segments[name] = _Segment(stat.st_mtime_ns, stat.st_size, {
            key: (name, offset, length, crc)
            for key, offset, length, crc in entries})
        self._keys.update(segments[name].entries)
        self.stats.bytes_written += stat.st_size
        self._enforce_cap(self.max_bytes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Collect the disk tier down to a byte target.

        Rescans the directory first (so segments written by other
        processes are seen), then evicts whole segments oldest-mtime
        first until the tier fits ``max_bytes`` (defaulting to the
        configured cap).  Returns ``(segments_removed, bytes_freed)``.
        """
        if self.cache_dir is None:
            return (0, 0)
        self._scan()
        target = max_bytes if max_bytes is not None else self.max_bytes
        return self._enforce_cap(target)

    def gc_versions(self) -> Tuple[int, int]:
        """Delete every file in the directory this version cannot read.

        That is segments of other key versions
        (:data:`repro.engine.jobs.KEY_VERSION`), files of the earlier
        one-file-per-job layouts (:data:`STALE_SUFFIXES`, any version)
        and ``.tmp`` files a crashed writer left behind more than
        :data:`ORPHAN_TMP_SECONDS` ago.  Subdirectories (checkpoints,
        the numba cache) and unrelated files are never touched.
        Returns ``(files_removed, bytes_freed)``.
        """
        if self.cache_dir is None or self._mtime_now() is None:
            return (0, 0)
        cutoff = time.time() - ORPHAN_TMP_SECONDS
        removed = freed = 0
        with os.scandir(self.cache_dir) as listing:
            for entry in listing:
                name = entry.name
                try:
                    if not entry.is_file(follow_symlinks=False):
                        continue
                    stat = entry.stat(follow_symlinks=False)
                    if name.endswith(".tmp"):
                        if stat.st_mtime >= cutoff:
                            continue  # possibly a live writer's
                    elif _is_segment(name) or not name.endswith(
                            (SUFFIX, *STALE_SUFFIXES)):
                        continue
                    os.unlink(entry.path)
                except OSError:
                    continue  # raced with another process
                removed += 1
                freed += stat.st_size
        return (removed, freed)

    def clear(self) -> int:
        """Drop every entry in every tier; returns disk records removed."""
        self._memory.clear()
        if self.cache_dir is None:
            return 0
        self._scan()
        removed = len(self._keys)
        for name in list(self._segments):
            self._evict(name)
        return removed

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier survives)."""
        self._memory.clear()

    def describe(self) -> Dict[str, object]:
        """Machine-readable snapshot for the ``repro cache`` CLI."""
        segments = self._index(refresh=True) if self.cache_dir else {}
        return {
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "disk_entries": len(self._keys),
            "disk_segments": len(segments),
            "disk_bytes": sum(s.size for s in segments.values()),
            "max_bytes": self.max_bytes,
            "memory_entries": len(self._memory),
            "memory_items": self.memory_items,
            "key_version": KEY_VERSION,
            "stats": self.stats.describe(),
        }

    def __len__(self) -> int:
        """Distinct keys on disk (memory-only: LRU size)."""
        if self.cache_dir is None:
            return len(self._memory)
        self._index(refresh=True)
        return len(self._keys)


# ----------------------------------------------------------------------
# Record and footer serialization
# ----------------------------------------------------------------------
def _encode(result: SimulationResult) -> Tuple[list, int, int]:
    """``result``'s record as ``(pieces, length, CRC32)``: the pieces
    are the prefix, the header and the (contiguous) arrays."""
    config = result.config
    # Config values as one float64 block (exact below 2**53) give
    # every record of one benchmark and layout the same size.
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
    length = _PREFIX.size + len(header) + sum(arr.nbytes for arr in arrays)
    return ([_PREFIX.pack(MAGIC, len(header), crc), header, *arrays],
            length, crc)


def _write_all(fd: int, parts) -> None:
    """Write ``parts`` back to back with ``os.writev``, resuming after
    partial writes, without joining them into one buffer."""
    views = [view.cast("B") for view in map(memoryview, parts)
             if view.nbytes]
    start = 0
    while start < len(views):
        written = os.writev(fd, views[start:start + _IOV_MAX])
        while written and written >= len(views[start]):
            written -= len(views[start])
            start += 1
        if written:
            views[start] = views[start][written:]


@functools.lru_cache(maxsize=256)
def _layout(header: bytes):
    """Parse a record header once per distinct layout.

    Returns ``(benchmark, backend, n_samples, config names, arrays)``
    with ``arrays`` as ``(group, name, dtype, shape, nbytes)`` tuples.
    A non-numeric dtype raises.
    """
    fields = json.loads(header)
    arrays = []
    for group in ("traces", "components"):
        for name, descr, shape in fields[group]:
            dtype = np.dtype(descr)
            if dtype.kind not in _NUMERIC_KINDS:
                raise ValueError(f"refusing dtype {descr}")
            arrays.append((group, name, dtype, tuple(shape),
                           dtype.itemsize * math.prod(shape)))
    return (str(fields["benchmark"]), str(fields["backend"]),
            int(fields["n_samples"]), tuple(fields["config"]),
            tuple(arrays))


def _decode(record: bytes, crc: int) -> SimulationResult:
    """Decode one record the footer lists with ``crc``; any damage
    raises (the caller's miss)."""
    magic, header_len, stored = _PREFIX.unpack_from(record)
    body = memoryview(record)[_PREFIX.size:]
    if magic != MAGIC or stored != crc or zlib.crc32(body) != crc:
        raise ValueError("bad record magic or checksum")
    benchmark, backend, n_samples, names, arrays = _layout(
        bytes(body[:header_len]))
    offset = _PREFIX.size + header_len
    values = np.frombuffer(record, "<f8", len(names), offset).tolist()
    offset += 8 * len(names)
    groups = {"traces": {}, "components": {}}
    for group, name, dtype, shape, nbytes in arrays:
        # A copy, so the result owns its memory; a short buffer raises.
        groups[group][name] = np.ndarray(shape, dtype, record, offset).copy()
        offset += nbytes
    if offset != len(record):
        raise ValueError("record length mismatch")
    config = MachineConfig(**{
        name: _CONFIG_TYPES[name](value)
        for name, value in zip(names, values)
        if name in _CONFIG_TYPES  # forward compatibility
    })
    return SimulationResult(benchmark=benchmark, config=config,
                            n_samples=n_samples, backend=backend, **groups)


def _pack_footer(entries) -> bytes:
    """The footer listing ``(key, offset, length, crc)`` entries, plus
    the trailer that ends a segment."""
    parts = []
    for key, offset, length, crc in entries:
        name = key.encode("utf8")
        parts += [_ENTRY.pack(offset, length, crc, len(name)), name]
    footer = b"".join(parts)
    return footer + _TRAILER.pack(len(footer), zlib.crc32(footer),
                                  SEGMENT_MAGIC)


def _read_footer(path, size: int) -> Tuple[Tuple[str, int, int, int], ...]:
    """A segment's ``(key, offset, length, crc)`` entries.

    A short file, a wrong trailer magic or a footer CRC mismatch yields
    none (every key of the segment misses); an entry reaching past the
    records is dropped (its key misses).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            if size < _TRAILER.size:
                return ()
            footer_len, crc, magic = _TRAILER.unpack(
                os.pread(fd, _TRAILER.size, size - _TRAILER.size))
            start = size - _TRAILER.size - footer_len
            if magic != SEGMENT_MAGIC or start < 0:
                return ()
            footer = os.pread(fd, footer_len, start)
        finally:
            os.close(fd)
        if zlib.crc32(footer) != crc:
            return ()
        entries, pos = [], 0
        while pos < len(footer):
            offset, length, entry_crc, key_len = _ENTRY.unpack_from(
                footer, pos)
            pos += _ENTRY.size + key_len
            if offset + length <= start:
                key = footer[pos - key_len:pos].decode("utf8")
                entries.append((key, offset, length, entry_crc))
        return tuple(entries)
    except (OSError, ValueError, struct.error):
        return ()
