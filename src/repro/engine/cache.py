"""Result cache: blocks of checksummed rows, one segment file per batch.

Repeated experiment and figure runs re-simulate the exact same
(benchmark, configuration) grid; with a :class:`ResultCache` attached to
the engine every repeat becomes a lookup.  Results are found by the
job's content-hash key (:meth:`repro.engine.jobs.SimJob.key`), so a
cache directory can be shared between processes, machines, and sweeps —
anything with the same key is by construction the same simulation.

The unit stored is a **block**: the rows a batch stored of one
:class:`~repro.uarch.simulator.ResultBlock` (a kernel group; a lone
result is a one-row block).  On disk it is ``MAGIC``, header length,
header CRC32, a JSON header naming the layout once (benchmark, backend,
sample count, config field names; name, dtype and row shape of every
array), then the rows back to back, row-major: each is one key's config
values as float64 and its arrays' bytes, so a block's rows share one
length.  A **segment** holds a batch's blocks, a footer of
``(block offset, row offset, row length, row CRC32)`` entries each
followed by its key, and a trailer (footer length, footer CRC32,
``SEGMENT_MAGIC``).  It is written once, atomically (tmp file +
``os.replace``), as ``<VERSION_TAG>-<hash of its keys>.seg``.  A batch
commits when it drains, when its executor fails, and whenever its rows
pass :data:`SEGMENT_BYTES`; a direct :meth:`ResultCache.put` commits a
one-row segment.

Readers index key -> (segment, row offset, length, CRC, layout) from
the footers and block headers, the newest segment (mtime, then name)
winning a key.  A lookup takes a batch of keys
(:meth:`ResultCache.get_many`).  A miss is a dict lookup; a batch with
misses stats the directory once and rescans it only when its
``st_mtime_ns`` changed since the last scan.  A commit records the
mtime it leaves when the directory was unchanged since the last scan,
so a cache's own commits cost no rescan.  Two windows leave another
process's segment invisible until the directory changes again (a
re-simulation, never a wrong result): a commit in the same timestamp
tick as the last scan, and a commit made while this cache commits.
The hits of one stored block are read with one ``preadv`` per run of
adjacent rows into one private buffer, checked row by row, and returned
as the rows of one block whose arrays view that buffer; a row whose
stored config values differ from the requesting job's config misses.
A bad trailer (or an earlier layout's magic) or footer CRC makes a
segment's keys miss; a bad block magic, header CRC, dtype or shape
that block's keys; a bad row CRC or length, or an entry past the blocks,
that key.  The re-simulated result lands in a newer segment.

The disk tier has a real lifecycle:

* an optional **byte cap** (``max_bytes``) enforced after every commit
  by evicting whole segments, oldest first (file-mtime LRU, ties broken
  by segment filename so eviction is reproducible even on filesystems
  with coarse timestamps);
* explicit :meth:`gc` (size-targeted collection), :meth:`gc_versions`
  (delete every file this version cannot read) and :meth:`clear`;
* row/segment/byte accounting surfaced through :meth:`disk_bytes`,
  :meth:`describe` and the ``repro cache`` CLI.
"""

from __future__ import annotations

import contextlib
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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EngineError, ReproError
from repro.engine.jobs import KEY_VERSION
from repro.uarch.params import MachineConfig
from repro.uarch.simulator import ResultBlock, SimulationResult

#: Filesystem-safe form of the current job-key version, used as the
#: filename prefix of every segment this cache writes.
VERSION_TAG = KEY_VERSION.replace("/", "-")

#: Segment filename suffix.
SUFFIX = ".seg"

#: Suffixes of the files earlier cache layouts wrote: one record per
#: job (``.res``) and one npz per job.  :meth:`ResultCache.gc_versions`
#: deletes them.
STALE_SUFFIXES = (".res", ".npz")

#: First bytes of every block; bump the digit on a layout change.
MAGIC = b"REPRORS2"
_PREFIX = struct.Struct("<8sII")  # MAGIC, header length, header CRC32

#: Last bytes of every segment; bump the digit on a layout change.
SEGMENT_MAGIC = b"REPROSG2"
_TRAILER = struct.Struct("<II8s")  # footer length, footer CRC32, magic
#: Block offset, row offset, row length, row CRC32; key length.
_ENTRY = struct.Struct("<QQQIH")

#: A batch commits its pending rows once they pass this many bytes.
SEGMENT_BYTES = 8 << 20

#: A ``.tmp`` file older than this is a crashed writer's leftover.
ORPHAN_TMP_SECONDS = 3600

#: The only dtype kinds stored or loaded: never object arrays.
_NUMERIC_KINDS = "biufc"

#: MachineConfig field -> the declared type its value is rebuilt with.
_CONFIG_TYPES = {f.name: {"bool": bool, "int": int}.get(f.type, float)
                 for f in dataclasses.fields(MachineConfig)}
_CONFIG_NAMES = tuple(_CONFIG_TYPES)


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


class _Layout(NamedTuple):
    """A block header as stored and parsed: what each of its rows holds."""

    header: bytes
    meta: dict  # the block's benchmark, backend and n_samples
    config: Tuple[str, ...]  # config field names, stored first as float64
    converters: tuple  # each config name's MachineConfig type, or None
    arrays: tuple  # (group, name, dtype, row shape, row strides, bytes)
    row_bytes: int


class PendingSegment:
    """Rows one batch has stored but not yet committed to disk.

    Passed to :meth:`ResultCache.put` and :meth:`ResultCache.commit`; an
    abandoned one loses only its rows, which re-simulate next time.
    """

    def __init__(self):
        # id(source block) -> (block, layout, keys, block rows, row
        # CRCs), in first-put order.  The block is referenced, not
        # copied.  A writable block's row CRCs are taken at put, so a
        # row changed before the commit fails its CRC when read, a
        # miss; a read-only block's (None) from its encoded rows.
        self.blocks: Dict[int, Tuple[ResultBlock, _Layout, list, list,
                                     list]] = {}
        self.nbytes = 0


#: Where a row lives: (segment name, row offset, length, CRC, layout).
_Where = Tuple[str, int, int, int, _Layout]


class _Segment(NamedTuple):
    mtime_ns: int
    size: int
    entries: Dict[str, _Where]  # key -> its row in this segment


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
        # Block rows and arena-backed results are views into a whole
        # kernel group's matrices or a batch's shared memory; storing
        # them as-is would pin those for the LRU's lifetime.  detach()
        # copies such results (and is a no-op for results that already
        # own their arrays).
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
                        segment = _Segment(
                            stat.st_mtime_ns, stat.st_size, _read_segment(
                                self.cache_dir, entry.name, stat.st_size))
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

        ``get_many([key])[0]``: see :meth:`get_many`.

        Parameters
        ----------
        key:
            A job's content-hash :meth:`~repro.engine.jobs.SimJob.key`.

        Returns
        -------
        SimulationResult or None
            ``None`` on a miss *and* on an unreadable/corrupt disk
            row (a later commit of the key supersedes it).
        """
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str],
                 configs: Optional[Sequence[MachineConfig]] = None,
                 ) -> List[Optional[SimulationResult]]:
        """The cached result for each of ``keys``, ``None`` for a miss.

        One lookup for a batch.  The memory tier answers first; the
        keys it lacks are looked up on disk, where the directory is
        stat'ed at most once (after a miss, to rescan it if it changed
        since the last scan).  Rows stored in one block are read with
        one ``preadv`` per run of adjacent rows into one private buffer,
        checked row by row, and returned as rows of one
        :class:`~repro.uarch.simulator.ResultBlock` over that buffer.
        A key repeated in ``keys`` counts as a memory hit after its
        first disk hit (a disk hit again with the memory tier off), as
        one :meth:`get` per key would.

        Parameters
        ----------
        keys:
            Jobs' content-hash keys.
        configs:
            Each key's job config, if known.  A disk row then hits only
            if its stored config values equal ``config.key()``, and its
            result carries that config; without it, the config is
            rebuilt (and validated) from the stored values.

        Returns
        -------
        list of SimulationResult or None
            Index-aligned with ``keys``; ``None`` on a miss and on an
            unreadable or damaged disk row.
        """
        results: List[Optional[SimulationResult]] = [None] * len(keys)
        wanted: Dict[str, List[int]] = {}  # key -> its indices in keys
        for index, key in enumerate(keys):
            result = self._memory.get(key)
            if result is not None:
                self.stats.memory_hits += 1
                self._memory.move_to_end(key)
                results[index] = result
            else:
                wanted.setdefault(key, []).append(index)
        if wanted and self.cache_dir is not None:
            known = {key: configs[indices[0]] if configs is not None
                     else None for key, indices in wanted.items()}
            self._index()
            found = self._load(known)
            if len(found) < len(known) and \
                    self._mtime_now() != self._dir_mtime:
                self._scan()  # a commit since the last scan: look again
                found.update(self._load({key: config for key, config
                                         in known.items()
                                         if key not in found}))
            for key, result in found.items():
                indices = wanted.pop(key)
                self.stats.disk_hits += 1
                if self.memory_items:
                    self.stats.memory_hits += len(indices) - 1
                else:
                    self.stats.disk_hits += len(indices) - 1
                self._remember(key, result)
                for index in indices:
                    results[index] = result
        self.stats.misses += sum(map(len, wanted.values()))
        return results

    def _load(self, configs: Dict[str, Optional[MachineConfig]],
              ) -> Dict[str, SimulationResult]:
        """Read and decode the rows of ``configs``' keys (key -> config
        or ``None``), one buffer per segment and layout; a key that is
        not indexed, has vanished or is damaged is left out."""
        groups: Dict[Tuple[str, bytes], Tuple[_Layout, list]] = {}
        for key, config in configs.items():
            where = self._keys.get(key)
            if where is not None:
                name, offset, _, crc, layout = where
                groups.setdefault((name, layout.header), (layout, []))[
                    1].append((offset, crc, key, config))
        found: Dict[str, SimulationResult] = {}
        for (name, _), (layout, rows) in groups.items():
            rows.sort(key=lambda row: row[0])
            with contextlib.suppress(OSError, ValueError):
                found.update(_read_rows(os.path.join(self.cache_dir, name),
                                        layout, rows))
        return found

    def put(self, key: str, result: SimulationResult,
            pending: Optional[PendingSegment] = None) -> None:
        """Store ``result`` under ``key`` in every enabled tier.

        Without ``pending`` the row is committed to disk as a one-row
        segment before this method returns.  With it, the row joins the
        pending block of its source block in that batch's pending
        segment, committed once it passes :data:`SEGMENT_BYTES` or by
        :meth:`commit`.

        Parameters
        ----------
        key:
            A job's content-hash key; names the result in both tiers.
        result:
            A row of its :class:`~repro.uarch.simulator.ResultBlock` (a
            lone result is a one-row block), serialized from the block
            as-is for disk; the memory tier stores a detached copy so it
            never pins a block or a shared-memory arena.  A non-numeric
            array raises :class:`~repro.errors.EngineError`.
        pending:
            The storing batch's :class:`PendingSegment`, if any.
        """
        self._remember(key, result)
        if self.cache_dir is not None:
            batch = pending if pending is not None else PendingSegment()
            block, row = result.block, result.row
            if block is None:
                block = ResultBlock.lone(result)
            stored = batch.blocks.get(id(block))
            if stored is None:
                writable = any(arr.flags.writeable for arr in (
                    *block.traces.values(), *block.components.values()))
                stored = (block, _block_layout(block), [], [],
                          [] if writable else None)
                batch.blocks[id(block)] = stored
            stored[2].append(key)
            stored[3].append(row)
            if stored[4] is not None:
                stored[4].append(_row_crc(block, stored[1], row))
            batch.nbytes += stored[1].row_bytes
            if pending is None or batch.nbytes >= SEGMENT_BYTES:
                self.commit(batch)
        self.stats.stores += 1

    def commit(self, pending: PendingSegment) -> None:
        """Write ``pending``'s blocks as one segment and empty it.

        Blocks are encoded and written one at a time (one block's rows
        are copied at once).  The segment is atomic (tmp file +
        ``os.replace``) and indexed at once.  With a ``max_bytes`` cap
        configured, the disk tier is brought back under the cap before
        this method returns — the cache never ends a batch over budget.
        """
        if self.cache_dir is None or not pending.blocks:
            return
        blocks = list(pending.blocks.values())
        pending.blocks, pending.nbytes = {}, 0
        keys = "\n".join(sorted(key for _, _, block_keys, _, _ in blocks
                                for key in block_keys))
        name = (f"{VERSION_TAG}-"
                f"{hashlib.sha256(keys.encode('utf8')).hexdigest()[:32]}"
                f"{SUFFIX}")
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        segments = self._index()
        # Unchanged since the last scan: this commit's own change to the
        # directory needs no rescan (see the module docstring).
        unchanged = self._mtime_now() == self._dir_mtime
        path = self.cache_dir / name
        fd, tmp = tempfile.mkstemp(dir=str(self.cache_dir), prefix=name,
                                   suffix=".tmp")
        entries = []  # (key, block offset, row offset, length, CRC, layout)
        try:
            try:
                offset = 0
                for block, layout, block_keys, rows, crcs in blocks:
                    head, data = _encode(block, layout, rows)
                    _write_all(fd, [head, data])
                    first, length = offset + len(head), layout.row_bytes
                    if crcs is None:
                        crcs = map(zlib.crc32, data)
                    entries += [(key, offset, first + index * length, length,
                                 crc, layout) for index, (key, crc)
                                in enumerate(zip(block_keys, crcs))]
                    offset = first + data.nbytes
                _write_all(fd, [_pack_footer(entries)])
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
            key: (name, *where) for key, _, *where in entries})
        self._keys.update(segments[name].entries)
        self.stats.bytes_written += stat.st_size
        self._enforce_cap(self.max_bytes)
        if unchanged:
            self._dir_mtime = self._mtime_now()

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
        (:data:`repro.engine.jobs.KEY_VERSION`), segments of this
        version whose trailer magic is not :data:`SEGMENT_MAGIC` (an
        earlier segment layout), files of the earlier one-file-per-job
        layouts (:data:`STALE_SUFFIXES`, any version) and ``.tmp``
        files a crashed writer left behind more than
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
                    elif _is_segment(name):
                        with open(entry.path, "rb") as handle:
                            handle.seek(max(stat.st_size - _TRAILER.size, 0))
                            if handle.read()[8:] == SEGMENT_MAGIC:
                                continue  # this layout: readable
                    elif not name.endswith((SUFFIX, *STALE_SUFFIXES)):
                        continue
                    os.unlink(entry.path)
                except OSError:
                    continue  # raced with another process
                removed += 1
                freed += stat.st_size
        return (removed, freed)

    def clear(self) -> int:
        """Drop every entry in every tier; returns disk rows removed."""
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
# Block and footer serialization
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _layout(header: bytes) -> _Layout:
    """Parse a block header once per distinct layout; a non-numeric
    dtype or a shape that is not non-negative integers raises."""
    fields = json.loads(header)
    config, arrays = tuple(fields["config"]), []
    for group in ("traces", "components"):
        for name, descr, shape in fields[group]:
            dtype = np.dtype(descr)
            if dtype.kind not in _NUMERIC_KINDS:
                raise ValueError(f"refusing dtype {descr}")
            if not all(type(dim) is int and dim >= 0 for dim in shape):
                raise ValueError(f"refusing shape {shape}")
            arrays.append((group, name, dtype, tuple(shape),
                           tuple(dtype.itemsize * math.prod(shape[i + 1:])
                                 for i in range(len(shape))),
                           dtype.itemsize * math.prod(shape)))
    return _Layout(header, dict(benchmark=str(fields["benchmark"]),
                                backend=str(fields["backend"]),
                                n_samples=int(fields["n_samples"])),
                   config, tuple(map(_CONFIG_TYPES.get, config)),
                   tuple(arrays), 8 * len(config) + sum(a[-1] for a in arrays))


def _block_layout(block: ResultBlock) -> _Layout:
    """The layout ``block``'s rows are stored with."""
    layout = {"traces": [], "components": []}
    for group in layout:
        for name, arr in getattr(block, group).items():
            if arr.dtype.kind not in _NUMERIC_KINDS:
                raise EngineError(f"cannot cache non-numeric {group} "
                                  f"array {name!r} ({arr.dtype})")
            layout[group].append([name, arr.dtype.str, arr.shape[1:]])
    return _layout(json.dumps(dict(
        benchmark=block.benchmark, backend=block.backend,
        n_samples=int(block.n_samples), config=list(_CONFIG_NAMES),
        **layout), separators=(",", ":")).encode("utf8"))


def _row_crc(block: ResultBlock, layout: _Layout, row: int) -> int:
    """The CRC32 of ``block``'s ``row`` as :func:`_encode` lays it out."""
    crc = zlib.crc32(struct.pack(f"<{len(layout.config)}d",
                                 *block.configs[row].key()))
    for group, name, *_ in layout.arrays:
        arr = getattr(block, group)[name][row]
        crc = zlib.crc32(arr if arr.flags.c_contiguous else arr.copy(), crc)
    return crc


def _encode(block: ResultBlock, layout: _Layout,
            rows: List[int]) -> Tuple[bytes, np.ndarray]:
    """The block prefix and header, and ``block``'s ``rows`` as one
    ``(len(rows), row_bytes)`` buffer: row ``j`` holds ``rows[j]``'s
    config values, as float64, then its arrays' bytes."""
    data = np.empty((len(rows), layout.row_bytes), np.uint8)
    # Config values as float64 (exact below 2**53) give every row of a
    # layout the same length; key() is the memoized tuple of every field
    # in declaration order, the order _block_layout names.
    start = 8 * len(layout.config)
    data[:, :start].view("<f8")[...] = [block.configs[row].key()
                                        for row in rows]
    if rows == list(range(rows[0], rows[0] + len(rows))):
        rows = slice(rows[0], rows[0] + len(rows))  # no gather copy
    for group, name, dtype, _, _, nbytes in layout.arrays:
        if nbytes:
            data[:, start:start + nbytes].view(dtype)[...] = getattr(
                block, group)[name][rows].reshape(len(data), -1)
            start += nbytes
    header = layout.header
    return (_PREFIX.pack(MAGIC, len(header), zlib.crc32(header)) + header,
            data)


def _write_all(fd: int, parts) -> None:
    """Write ``parts`` back to back with ``os.writev``, resuming after
    partial writes, without joining them into one buffer."""
    views = [view.cast("B") for view in map(memoryview, parts)
             if view.nbytes]
    while views:
        written = os.writev(fd, views)
        while written and written >= len(views[0]):
            written -= len(views.pop(0))
        if written:
            views[0] = views[0][written:]


def _read_rows(path: str, layout: _Layout, rows: list,
               ) -> Dict[str, SimulationResult]:
    """Read ``rows`` of one ``layout`` from the segment at ``path`` into
    one private buffer; every row that checks out becomes a row of one
    block over it.

    ``rows`` are ``(offset, crc, key, config or None)``, by offset.  Each
    run of adjacent rows is read with one ``preadv`` straight into its
    part of the buffer.  A row misses if it is short, fails its CRC, or
    has stored config values unequal to its known config's or, with
    none known, that do not rebuild a valid :class:`MachineConfig`.
    The buffer is compacted to the rows that hit when some miss.
    """
    length = layout.row_bytes
    buffer = bytearray(len(rows) * length)
    view = memoryview(buffer)
    ok = np.zeros(len(rows), bool)
    fd = os.open(path, os.O_RDONLY)
    try:
        first = 0  # the current run's first row
        for end in range(1, len(rows) + 1):
            if end < len(rows) and rows[end][0] == rows[end - 1][0] + length:
                continue
            read = os.preadv(fd, [view[first * length:end * length]],
                             rows[first][0])
            for index in range(first, end):
                ok[index] = (index + 1 - first) * length <= read and \
                    zlib.crc32(view[index * length:(index + 1) * length]) \
                    == rows[index][1]
            first = end
    finally:
        os.close(fd)
    configs = [row[3] for row in rows]
    values = np.ndarray((len(rows), len(layout.config)), "<f8", buffer,
                        strides=(length, 8))
    if layout.config == _CONFIG_NAMES and None not in configs:
        ok &= (values == np.array([config.key() for config in configs],
                                  float)).all(axis=1)
    else:
        for index in np.flatnonzero(ok):
            try:
                configs[index] = MachineConfig(**{
                    name: convert(value) for name, convert, value
                    in zip(layout.config, layout.converters,
                           values[index].tolist())
                    if convert  # forward compatibility
                })
            except (ReproError, TypeError, ValueError, OverflowError):
                ok[index] = False
    hits = np.flatnonzero(ok).tolist()
    if not hits:
        return {}
    if len(hits) < len(rows):
        buffer = bytearray().join(view[index * length:(index + 1) * length]
                                  for index in hits)
    groups = {"traces": {}, "components": {}}
    offset = 8 * len(layout.config)
    for group, name, dtype, shape, strides, nbytes in layout.arrays:
        groups[group][name] = np.ndarray((len(hits), *shape), dtype, buffer,
                                         offset, (length, *strides))
        offset += nbytes
    block = ResultBlock(configs=tuple(configs[index] for index in hits),
                        buffer=buffer, **layout.meta, **groups)
    return {rows[index][2]: block.row(position)
            for position, index in enumerate(hits)}


def _pack_footer(entries) -> bytes:
    """The footer listing ``(key, block offset, row offset, length, crc,
    ...)`` entries, plus the trailer that ends a segment."""
    parts = []
    for key, block, offset, length, crc, *_ in entries:
        name = key.encode("utf8")
        parts += [_ENTRY.pack(block, offset, length, crc, len(name)), name]
    footer = b"".join(parts)
    return footer + _TRAILER.pack(len(footer), zlib.crc32(footer),
                                  SEGMENT_MAGIC)


def _read_footer(fd: int, size: int) -> Tuple[tuple, ...]:
    """A segment's ``(key, block offset, row offset, length, crc)``
    entries: none for a short file, another trailer magic or a bad
    footer CRC; an entry reaching past the blocks is dropped."""
    if size < _TRAILER.size:
        return ()
    footer_len, crc, magic = _TRAILER.unpack(
        os.pread(fd, _TRAILER.size, size - _TRAILER.size))
    start = size - _TRAILER.size - footer_len
    if magic != SEGMENT_MAGIC or start < 0:
        return ()
    footer = os.pread(fd, footer_len, start)
    if zlib.crc32(footer) != crc:
        return ()
    entries, pos = [], 0
    while pos < len(footer):
        block, offset, length, entry_crc, key_len = _ENTRY.unpack_from(
            footer, pos)
        pos += _ENTRY.size + key_len
        if block < offset and offset + length <= start:
            key = footer[pos - key_len:pos].decode("utf8")
            entries.append((key, block, offset, length, entry_crc))
    return tuple(entries)


def _read_segment(directory, name: str, size: int) -> Dict[str, _Where]:
    """Where each row of segment ``name`` lives, for every row its footer
    lists whose block header (magic, CRC, dtypes) reads back."""
    rows, blocks = {}, {}  # block offset -> (layout or None, rows start)
    try:
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            for key, block, offset, length, crc in _read_footer(fd, size):
                if block not in blocks:
                    blocks[block] = None, 0  # until its header reads back
                    with contextlib.suppress(ValueError, TypeError,
                                             KeyError, struct.error):
                        magic, header_len, header_crc = _PREFIX.unpack(
                            os.pread(fd, _PREFIX.size, block))
                        first = block + _PREFIX.size + header_len
                        header = os.pread(fd, header_len, block + _PREFIX.size
                                          ) if first <= size else b""
                        if magic == MAGIC and zlib.crc32(header) == header_crc:
                            blocks[block] = _layout(header), first
                layout, first = blocks[block]
                if layout and offset >= first and length == layout.row_bytes:
                    rows[key] = (name, offset, length, crc, layout)
        finally:
            os.close(fd)
    except (OSError, ValueError, struct.error):
        return {}
    return rows
