"""Set-associative caches and TLBs for the detailed simulator.

True LRU replacement, physically-indexed, with a two-level hierarchy
helper (:class:`CacheHierarchy`) returning load-to-use latencies the
pipeline charges to each access.  An analytical miss-curve counterpart
for sweeps lives in :mod:`repro.uarch.interval_model`.

Each set is an :class:`~collections.OrderedDict` in LRU order (oldest
first), so an access is one hash lookup plus a recency move — O(1) per
instruction — instead of a linear scan over the ways.  The detailed
backend charges every load, store and fetch through here, so that
constant factor is the hot path of the whole cycle-level simulator.
The hit/miss stream is exactly that of a per-way true-LRU scan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro._validation import is_power_of_two
from repro.uarch.params import MachineConfig


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Parameters
    ----------
    size_kb:
        Total capacity in KB (power-of-two sets required after dividing
        by associativity and line size).
    assoc:
        Number of ways.
    line_bytes:
        Line size in bytes.
    name:
        Used in error messages and stat reporting.
    """

    def __init__(self, size_kb: int, assoc: int, line_bytes: int,
                 name: str = "cache"):
        if size_kb <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigurationError(
                f"{name}: size/assoc/line must be positive"
            )
        total_lines = size_kb * 1024 // line_bytes
        if total_lines < assoc:
            raise ConfigurationError(
                f"{name}: capacity {size_kb}KB too small for "
                f"{assoc}-way associativity at {line_bytes}B lines"
            )
        n_sets = total_lines // assoc
        if not is_power_of_two(n_sets):
            raise ConfigurationError(
                f"{name}: set count {n_sets} is not a power of two"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        # One ordered dict per set, keyed by full line id (sets are
        # distinguished by index), oldest-used entry first.
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access a byte address; returns True on hit.  Fills on miss."""
        line = address >> self._line_shift
        ways = self._sets[line & self._set_mask]
        if line in ways:
            ways.move_to_end(line)
            self.hits += 1
            return True
        # Miss: evict the least-recently-used way when the set is full.
        if len(ways) >= self.assoc:
            ways.popitem(last=False)
        ways[line] = None
        self.misses += 1
        return False

    def contains(self, address: int) -> bool:
        """Non-mutating lookup (no fill, no LRU update)."""
        line = address >> self._line_shift
        return line in self._sets[line & self._set_mask]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss rate so far (0 when never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (contents are preserved)."""
        self.hits = 0
        self.misses = 0

    def lru_table(self) -> np.ndarray:
        """Contents as a ``(n_sets, assoc)`` int64 array of line ids.

        Each row lists the set's resident lines in LRU order (oldest
        first), ``-1``-padded at the end — the canonical snapshot form
        (:meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state`).
        """
        table = np.full((self.n_sets, self.assoc), -1, dtype=np.int64)
        for index, ways in enumerate(self._sets):
            for way, line in enumerate(ways):
                table[index, way] = line
        return table

    def load_lru_table(self, table: np.ndarray) -> None:
        """Replace the contents from a :meth:`lru_table` array."""
        table = np.asarray(table)
        if table.shape != (self.n_sets, self.assoc):
            raise ConfigurationError(
                f"{self.name}: snapshot shape {table.shape} does not match "
                f"({self.n_sets}, {self.assoc})"
            )
        for index in range(self.n_sets):
            ways: "OrderedDict[int, None]" = OrderedDict()
            for way in range(self.assoc):
                line = int(table[index, way])
                if line != -1:
                    ways[line] = None
            self._sets[index] = ways


class TLB:
    """A tiny fully-associative-by-hash TLB model (page-grain LRU cache)."""

    def __init__(self, entries: int, page_bytes: int = 4096,
                 name: str = "tlb"):
        if entries <= 0:
            raise ConfigurationError(f"{name}: entries must be positive")
        self.name = name
        self.entries = entries
        self._page_shift = page_bytes.bit_length() - 1
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Translate an address; returns True on TLB hit."""
        page = address >> self._page_shift
        if page in self._resident:
            self._resident.move_to_end(page)
            self.hits += 1
            return True
        if len(self._resident) >= self.entries:
            self._resident.popitem(last=False)
        self._resident[page] = None
        self.misses += 1
        return False

    def lru_pages(self) -> np.ndarray:
        """Resident pages in LRU order (oldest first), ``-1``-padded."""
        pages = np.full(self.entries, -1, dtype=np.int64)
        for slot, page in enumerate(self._resident):
            pages[slot] = page
        return pages

    def load_lru_pages(self, pages: np.ndarray) -> None:
        """Replace the resident set from a :meth:`lru_pages` array."""
        pages = np.asarray(pages)
        if pages.shape != (self.entries,):
            raise ConfigurationError(
                f"{self.name}: snapshot shape {pages.shape} does not match "
                f"({self.entries},)"
            )
        self._resident = OrderedDict(
            (int(page), None) for page in pages if page != -1)


@dataclass
class AccessResult:
    """Latency and hit levels for one memory access."""

    latency: int
    dl1_hit: bool
    l2_hit: bool
    tlb_hit: bool = True

    @property
    def goes_to_memory(self) -> bool:
        return not (self.dl1_hit or self.l2_hit)


class CacheHierarchy:
    """IL1 + DL1 + unified L2 + TLBs wired per a :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.il1 = SetAssociativeCache(config.il1_size_kb, config.il1_assoc,
                                       config.il1_line_bytes, "il1")
        self.dl1 = SetAssociativeCache(config.dl1_size_kb, config.dl1_assoc,
                                       config.dl1_line_bytes, "dl1")
        self.l2 = SetAssociativeCache(config.l2_size_kb, config.l2_assoc,
                                      config.l2_line_bytes, "l2")
        self.itlb = TLB(config.itlb_entries, name="itlb")
        self.dtlb = TLB(config.dtlb_entries, name="dtlb")

    def data_access(self, address: int) -> AccessResult:
        """Charge a load/store; returns the latency to first use."""
        cfg = self.config
        tlb_hit = self.dtlb.access(address)
        dl1_hit = self.dl1.access(address)
        if dl1_hit:
            latency = cfg.dl1_latency
            l2_hit = True
        else:
            l2_hit = self.l2.access(address)
            latency = cfg.dl1_latency + (
                cfg.l2_latency if l2_hit
                else cfg.l2_latency + cfg.memory_latency
            )
        if not tlb_hit:
            latency += cfg.tlb_miss_latency
        return AccessResult(latency=latency, dl1_hit=dl1_hit,
                            l2_hit=l2_hit, tlb_hit=tlb_hit)

    def inst_access(self, address: int) -> int:
        """Charge an instruction fetch; returns front-end bubble cycles."""
        cfg = self.config
        tlb_hit = self.itlb.access(address)
        il1_hit = self.il1.access(address)
        bubble = 0
        if not il1_hit:
            bubble = cfg.l2_latency if self.l2.access(address) else (
                cfg.l2_latency + cfg.memory_latency
            )
        if not tlb_hit:
            bubble += cfg.tlb_miss_latency
        return bubble
