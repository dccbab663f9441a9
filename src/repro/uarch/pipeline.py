"""Cycle-level out-of-order pipeline model.

A trace-driven superscalar core with the Table 1 organization: wide
fetch with gshare/BTB/RAS and IL1 bubbles, register renaming implied by
dependence distances, a unified issue queue with wakeup/select, a
load/store queue, per-class functional units, a reorder buffer with
in-order commit, and miss-driven back-pressure through the two-level
cache hierarchy.

The model is *trace-driven*: mispredicted branches charge a front-end
redirect penalty (fetch resumes ``pipeline_depth`` cycles after the
branch resolves) rather than executing wrong-path instructions — the
standard trace-driven approximation.

Per-cycle ACE-bit residency counters implement the Mukherjee AVF
methodology exactly; per-structure event counters feed the Wattch power
model.  The optional :class:`~repro.reliability.dvm.DVMController`
gates dispatch per the paper's Figure 16 pseudocode.

One stepper advances an interval: :meth:`OutOfOrderCore.run_interval`,
an interpreter over object caches
(:class:`~repro.uarch.caches.CacheHierarchy`,
:class:`~repro.uarch.branch.FrontEnd`) plus a :class:`deque` ROB and a
min-heap of outstanding L2 misses.  Its microarchitectural state
round-trips through one canonical snapshot format
(:meth:`OutOfOrderCore.snapshot_state`), which is what detailed
checkpointing persists.

The interpreter is event-driven.  A *dead* cycle commits, issues,
dispatches and fetches nothing, and until the next event every
following cycle repeats it exactly.  The interpreter therefore jumps to
the cycle before the earliest of:

* the ROB head's ``ready_cycle`` (commit);
* the earliest completion of an issued producer that blocked an issue
  queue entry in this cycle's scan (wakeup; a dead cycle has no ready
  entry, since every FU budget is positive);
* ``fetch_stall_until`` (fetch resumes);
* with DVM on, the miss-heap top (a pop can clear the L2-miss input of
  ``should_throttle``) and the next sample cycle (``on_sample`` moves
  ``wq_ratio``); a cycle that just sampled never skips;
* ``max_cycles + 1``, so the deadlock guard raises at the same cycle.

The skipped cycles' accumulators are replayed exactly.  The IQ, ROB and
LSQ ACE sums, the DVM window ACE and the throttled-cycle count add the
same integer each cycle and stay far below 2**53, so one ``k * x``
multiply-add equals ``k`` adds.  The register-file term is not an
integer, and float addition does not associate, so it repeats the
per-cycle add ``k`` times.  ``tests/test_detailed_kernel.py``
(``TestDeadCycleSkip``) checks every statistic and the final snapshot
to the bit against digests recorded from an every-cycle stepper.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.reliability.avf import STRUCTURE_BITS
from repro.reliability.dvm import DVMController
from repro.uarch.branch import FrontEnd
from repro.uarch.caches import CacheHierarchy
from repro.uarch.params import MachineConfig
from repro.uarch.trace import EXEC_LATENCY, InstructionTrace, OpClass

#: Safety valve: abort an interval that exceeds this many cycles per
#: instruction (indicates a deadlocked model, which is a bug).
_MAX_CPI = 400

#: Execution latency by integer op class (mirrors ``EXEC_LATENCY``).
_EXEC_LAT = tuple(EXEC_LATENCY[OpClass(i)] for i in range(len(EXEC_LATENCY)))

#: Wattch counter names, in the order the counters dict is assembled.
COUNTER_KEYS = ("fetch_il1", "rename", "issue_queue", "rob", "regfile",
                "alu_int", "alu_fp", "lsq", "dl1", "l2", "instructions")

#: Scalar integer state captured by :meth:`OutOfOrderCore.snapshot_state`.
SNAPSHOT_INT_FIELDS = (
    "global_index", "cycle",
    "il1_hits", "il1_misses", "dl1_hits", "dl1_misses",
    "l2_hits", "l2_misses", "itlb_hits", "itlb_misses",
    "dtlb_hits", "dtlb_misses", "btb_hits", "btb_misses",
    "gshare_history", "gshare_lookups", "gshare_mispredicts",
    "dvm_window_cycles", "last_waiting", "last_ready",
    "dvm_trigger_count", "dvm_sample_count", "has_dvm",
)

#: Scalar float state captured by :meth:`OutOfOrderCore.snapshot_state`.
SNAPSHOT_FLOAT_FIELDS = ("dvm_window_ace", "wq_ratio")


class _InFlight:
    """One in-flight instruction (ROB entry)."""

    __slots__ = ("index", "op", "ace", "is_mem", "issued", "ready_cycle",
                 "mispredict", "src1", "src2")

    def __init__(self, index: int, op: int, ace: bool, is_mem: bool,
                 src1: int, src2: int):
        self.index = index
        self.op = op
        self.ace = ace
        self.is_mem = is_mem
        self.issued = False
        self.ready_cycle: Optional[int] = None   # set when issued
        self.mispredict = False
        self.src1 = src1
        self.src2 = src2


@dataclass
class IntervalStats:
    """Raw statistics for one simulated trace interval."""

    instructions: int = 0
    cycles: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    ace_bit_cycles: Dict[str, float] = field(default_factory=dict)
    branch_mispredicts: int = 0
    dvm_throttled_cycles: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        if self.instructions == 0:
            raise SimulationError("interval committed no instructions")
        return self.cycles / self.instructions


class OutOfOrderCore:
    """The detailed core; state (caches, predictor) persists across
    intervals so later intervals see warmed structures, like the paper's
    contiguous 200M-instruction simulations.

    Producer completion times are tracked *per interval*: every
    instruction of an interval commits before the next interval starts,
    so a producer from an earlier interval is always complete by the
    time a consumer looks it up — cross-interval dependences are
    resolved dependences by construction.
    """

    def __init__(self, config: MachineConfig,
                 dvm: Optional[DVMController] = None):
        self.config = config
        self.hierarchy = CacheHierarchy(config)
        self.front_end = FrontEnd(config)
        self.dvm = dvm
        self._global_index = 0
        self._cycle = 0
        # DVM online-AVF bookkeeping.
        self._dvm_window_ace = 0.0
        self._dvm_window_cycles = 0
        self._dvm_sample_period = 200
        self._last_waiting = 0
        self._last_ready = 0

    # ------------------------------------------------------------------
    # Canonical state snapshot (checkpoint format v2)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, np.ndarray]:
        """The core's microarchitectural state as plain numpy arrays.

        The canonical representation: every cache /
        BTB set as its way tags in LRU order (oldest first, ``-1``
        padding), TLBs as resident pages in LRU order, the gshare
        counter table, and two scalar vectors (``ints`` ordered per
        :data:`SNAPSHOT_INT_FIELDS`, ``floats`` per
        :data:`SNAPSHOT_FLOAT_FIELDS`).  Checkpoint format v2 stores
        exactly these arrays (no pickling); ``tests/test_detailed_kernel.py``
        pins that a restored snapshot resumes bit-identically.
        """
        hier, fe = self.hierarchy, self.front_end
        snap = {
            "il1_lru": hier.il1.lru_table(),
            "dl1_lru": hier.dl1.lru_table(),
            "l2_lru": hier.l2.lru_table(),
            "btb_lru": fe.btb.lru_table(),
            "itlb_lru": hier.itlb.lru_pages(),
            "dtlb_lru": hier.dtlb.lru_pages(),
            "gshare_counters": fe.gshare._counters.copy(),
        }
        scalars = {
            "il1_hits": hier.il1.hits, "il1_misses": hier.il1.misses,
            "dl1_hits": hier.dl1.hits, "dl1_misses": hier.dl1.misses,
            "l2_hits": hier.l2.hits, "l2_misses": hier.l2.misses,
            "itlb_hits": hier.itlb.hits, "itlb_misses": hier.itlb.misses,
            "dtlb_hits": hier.dtlb.hits, "dtlb_misses": hier.dtlb.misses,
            "btb_hits": fe.btb.hits, "btb_misses": fe.btb.misses,
            "gshare_history": fe.gshare._history,
            "gshare_lookups": fe.gshare.lookups,
            "gshare_mispredicts": fe.gshare.mispredicts,
        }
        scalars.update({
            "global_index": self._global_index,
            "cycle": self._cycle,
            "dvm_window_cycles": self._dvm_window_cycles,
            "last_waiting": self._last_waiting,
            "last_ready": self._last_ready,
            "dvm_trigger_count": (self.dvm.trigger_count if self.dvm else 0),
            "dvm_sample_count": (self.dvm.sample_count if self.dvm else 0),
            "has_dvm": int(self.dvm is not None),
        })
        snap["ints"] = np.array(
            [int(scalars[name]) for name in SNAPSHOT_INT_FIELDS],
            dtype=np.int64)
        snap["floats"] = np.array(
            [self._dvm_window_ace,
             (self.dvm.wq_ratio if self.dvm else 0.0)], dtype=np.float64)
        return snap

    def restore_state(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`snapshot_state` dict."""
        hier, fe = self.hierarchy, self.front_end
        hier.il1.load_lru_table(snapshot["il1_lru"])
        hier.dl1.load_lru_table(snapshot["dl1_lru"])
        hier.l2.load_lru_table(snapshot["l2_lru"])
        fe.btb.load_lru_table(snapshot["btb_lru"])
        hier.itlb.load_lru_pages(snapshot["itlb_lru"])
        hier.dtlb.load_lru_pages(snapshot["dtlb_lru"])
        counters = np.asarray(snapshot["gshare_counters"], dtype=np.int8)
        if counters.shape != fe.gshare._counters.shape:
            raise SimulationError(
                "snapshot gshare table does not match the configuration")
        fe.gshare._counters[:] = counters
        ints = {name: int(value) for name, value in
                zip(SNAPSHOT_INT_FIELDS, np.asarray(snapshot["ints"]))}
        floats = np.asarray(snapshot["floats"], dtype=np.float64)
        hier.il1.hits, hier.il1.misses = ints["il1_hits"], ints["il1_misses"]
        hier.dl1.hits, hier.dl1.misses = ints["dl1_hits"], ints["dl1_misses"]
        hier.l2.hits, hier.l2.misses = ints["l2_hits"], ints["l2_misses"]
        hier.itlb.hits = ints["itlb_hits"]
        hier.itlb.misses = ints["itlb_misses"]
        hier.dtlb.hits = ints["dtlb_hits"]
        hier.dtlb.misses = ints["dtlb_misses"]
        fe.btb.hits, fe.btb.misses = ints["btb_hits"], ints["btb_misses"]
        fe.gshare._history = ints["gshare_history"]
        fe.gshare.lookups = ints["gshare_lookups"]
        fe.gshare.mispredicts = ints["gshare_mispredicts"]
        self._global_index = ints["global_index"]
        self._cycle = ints["cycle"]
        self._dvm_window_cycles = ints["dvm_window_cycles"]
        self._last_waiting = ints["last_waiting"]
        self._last_ready = ints["last_ready"]
        self._dvm_window_ace = float(floats[0])
        if self.dvm is not None and ints["has_dvm"]:
            self.dvm.wq_ratio = float(floats[1])
            self.dvm.trigger_count = ints["dvm_trigger_count"]
            self.dvm.sample_count = ints["dvm_sample_count"]

    # ------------------------------------------------------------------
    # Interpreter
    # ------------------------------------------------------------------
    def run_interval(self, trace: InstructionTrace) -> IntervalStats:
        """Simulate one interval; returns its raw statistics."""
        cfg = self.config
        stats = IntervalStats(instructions=len(trace))
        # Counters and ACE accumulators as locals (dicts are assembled
        # once at the end): every increment is an exact float add, so
        # the totals are bit-identical to the historical dict-based
        # accumulation.
        c_fetch_il1 = c_rename = c_issue_queue = c_rob = c_regfile = 0.0
        c_alu_int = c_alu_fp = c_lsq = c_dl1 = c_l2 = c_instructions = 0.0
        a_iq = a_rob = a_lsq = a_regfile = 0.0
        bits_iq = STRUCTURE_BITS["iq"]
        bits_rob = STRUCTURE_BITS["rob"]
        bits_lsq = STRUCTURE_BITS["lsq"]
        bits_regfile = STRUCTURE_BITS["regfile"]

        n = len(trace)
        # Plain-list views of the trace: one C-level conversion up front
        # instead of a numpy scalar box per element access.
        t_op = trace.op.tolist()
        t_src1 = trace.src1_dist.tolist()
        t_src2 = trace.src2_dist.tolist()
        t_addr = trace.address.tolist()
        t_pc = trace.pc.tolist()
        t_taken = trace.taken.tolist()
        t_ace = trace.ace.tolist()

        fetch_width = cfg.fetch_width
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lsq_size = cfg.lsq_size
        il1_line_bytes = cfg.il1_line_bytes
        depth = cfg.pipeline_depth
        exec_lat = _EXEC_LAT
        data_access = self.hierarchy.data_access
        inst_access = self.hierarchy.inst_access
        resolve_branch = self.front_end.resolve_branch
        dvm = self.dvm

        rob: "deque[_InFlight]" = deque()
        iq: List[_InFlight] = []
        # Per-interval completion times, indexed by local trace index.
        # Producers from earlier intervals are complete by construction
        # (the interval only ends once everything commits), matching the
        # historical global completion dict bit-for-bit.
        comp_cycle = [0] * n
        lsq_count = 0
        iq_ace = rob_ace = lsq_ace = 0

        fetch_ptr = 0          # next trace index to fetch
        dispatch_ptr = 0       # next fetched-but-not-dispatched index
        fetch_stall_until = 0
        last_fetch_line = -1
        miss_heap: List[int] = []   # outstanding L2-miss completion cycles
        start_cycle = self._cycle
        cycle = self._cycle
        committed = 0
        mispredicts = 0
        throttled_cycles = 0
        dvm_window_ace = self._dvm_window_ace
        dvm_window_cycles = self._dvm_window_cycles
        dvm_sample_period = self._dvm_sample_period
        max_cycles = start_cycle + max(n * _MAX_CPI, 10_000)
        # The deadlock guard is an event too: a skip never jumps past it.
        no_event = max_cycles + 1

        while committed < n:
            cycle += 1
            if cycle > max_cycles:
                raise SimulationError(
                    f"interval exceeded {_MAX_CPI} CPI at cycle {cycle} "
                    f"— model deadlock"
                )

            # ---------------- commit ---------------------------------
            commits = 0
            while rob and commits < fetch_width:
                head = rob[0]
                if not head.issued or head.ready_cycle > cycle:
                    break
                rob.popleft()
                rob_ace -= head.ace
                if head.is_mem:
                    lsq_count -= 1
                    lsq_ace -= head.ace
                if head.mispredict:
                    mispredicts += 1
                commits += 1
                committed += 1
                c_rob += 1.0
                c_instructions += 1.0

            # ---------------- issue ----------------------------------
            while miss_heap and miss_heap[0] <= cycle:
                heapq.heappop(miss_heap)
            # Independent per-class FU budgets, indexed by op value
            # (INT_ALU, FP_ALU, LOAD, STORE, BRANCH).
            fu_free = [cfg.int_alu, cfg.fp_alu, cfg.mem_ports,
                       cfg.mem_ports, cfg.int_alu]
            issued = 0
            ready_count = 0
            # Earliest completion of a producer that blocks an IQ entry:
            # the next cycle at which some entry may become ready.
            wake = no_event
            still_waiting: List[_InFlight] = []
            for entry in iq:
                if issued >= fetch_width:
                    still_waiting.append(entry)
                    continue
                li = entry.index
                # A source blocks while its producer (same interval,
                # dist <= li) has issued and not yet completed; an
                # unissued producer's completion cycle is 0.
                dist = entry.src1
                if 0 < dist <= li:
                    done = comp_cycle[li - dist]
                    if done > cycle:
                        if done < wake:
                            wake = done
                        still_waiting.append(entry)
                        continue
                dist = entry.src2
                if 0 < dist <= li:
                    done = comp_cycle[li - dist]
                    if done > cycle:
                        if done < wake:
                            wake = done
                        still_waiting.append(entry)
                        continue
                ready_count += 1
                op = entry.op
                if fu_free[op] <= 0:
                    still_waiting.append(entry)
                    continue
                fu_free[op] -= 1
                latency = exec_lat[op]
                if op == 2:      # LOAD
                    result = data_access(t_addr[li])
                    latency += result.latency
                    c_dl1 += 1.0
                    if not result.dl1_hit:
                        c_l2 += 1.0
                    if result.goes_to_memory:
                        heapq.heappush(miss_heap, cycle + latency)
                elif op == 3:    # STORE
                    result = data_access(t_addr[li])
                    c_dl1 += 1.0
                    if not result.dl1_hit:
                        c_l2 += 1.0
                    latency += 1  # stores retire from the LSQ post-commit
                elif op == 4:    # BRANCH
                    if resolve_branch(t_pc[li], t_taken[li]):
                        entry.mispredict = True
                        stall = cycle + latency + depth
                        if stall > fetch_stall_until:
                            fetch_stall_until = stall
                entry.issued = True
                entry.ready_cycle = cycle + latency
                comp_cycle[li] = cycle + latency
                issued += 1
                iq_ace -= entry.ace
                c_issue_queue += 1.0
                c_regfile += 2.0
                if op == 0 or op == 4:
                    c_alu_int += 1.0
                elif op == 1:
                    c_alu_fp += 1.0
                if entry.is_mem:
                    c_lsq += 1.0
            iq = still_waiting
            waiting = len(iq) - ready_count if len(iq) > ready_count else 0

            # ---------------- dispatch -------------------------------
            throttled = False
            dispatched = 0
            if dvm is not None:
                throttled = dvm.should_throttle(waiting, ready_count,
                                                bool(miss_heap))
                if throttled:
                    throttled_cycles += 1
            if not throttled:
                while (dispatched < fetch_width
                       and dispatch_ptr < fetch_ptr
                       and len(rob) < rob_size
                       and len(iq) < iq_size):
                    local = dispatch_ptr
                    op = t_op[local]
                    is_mem = op == 2 or op == 3
                    if is_mem and lsq_count >= lsq_size:
                        break
                    entry = _InFlight(local, op, t_ace[local], is_mem,
                                      t_src1[local], t_src2[local])
                    rob.append(entry)
                    iq.append(entry)
                    rob_ace += entry.ace
                    iq_ace += entry.ace
                    if is_mem:
                        lsq_count += 1
                        lsq_ace += entry.ace
                    dispatch_ptr += 1
                    dispatched += 1
                    c_rename += 1.0
                    c_rob += 1.0

            # ---------------- fetch ----------------------------------
            fetched = 0
            if cycle >= fetch_stall_until:
                while (fetched < fetch_width and fetch_ptr < n
                       and fetch_ptr - dispatch_ptr < 2 * fetch_width):
                    line = t_pc[fetch_ptr] // il1_line_bytes
                    if line != last_fetch_line:
                        bubble = inst_access(t_pc[fetch_ptr])
                        c_fetch_il1 += 1.0
                        last_fetch_line = line
                        if bubble:
                            fetch_stall_until = cycle + bubble
                            break
                    is_taken_branch = (t_op[fetch_ptr] == 4
                                       and t_taken[fetch_ptr])
                    fetch_ptr += 1
                    fetched += 1
                    if is_taken_branch:
                        break  # taken branch ends the fetch block

            # ---------------- AVF residency --------------------------
            a_iq += iq_ace * bits_iq
            a_rob += rob_ace * bits_rob
            a_lsq += lsq_ace * bits_lsq
            # Live architectural registers scale with in-flight window.
            a_regfile += (32 + 0.5 * len(rob)) * bits_regfile * 0.45

            # ---------------- DVM sampling ---------------------------
            if dvm is not None:
                dvm_window_ace += iq_ace
                dvm_window_cycles += 1
                if dvm_window_cycles >= dvm_sample_period:
                    online_avf = dvm_window_ace / (dvm_window_cycles
                                                   * iq_size)
                    dvm.on_sample(online_avf)
                    dvm_window_ace = 0.0
                    dvm_window_cycles = 0

            # ---------------- dead-cycle skip ------------------------
            if commits or issued or dispatched or fetched:
                continue
            # Nothing moved, so every later cycle repeats this one until
            # the next event (see the module docstring): jump to the
            # cycle before it and replay the skipped accumulators.
            nxt = wake
            if rob:
                head = rob[0]
                if head.issued and head.ready_cycle < nxt:
                    nxt = head.ready_cycle
            if cycle < fetch_stall_until < nxt:
                nxt = fetch_stall_until
            if dvm is not None:
                if not dvm_window_cycles:
                    # A sample just moved wq_ratio, so the next cycle's
                    # throttle decision may differ from this one's.
                    continue
                if miss_heap and miss_heap[0] < nxt:
                    nxt = miss_heap[0]
                sample = cycle + dvm_sample_period - dvm_window_cycles
                if sample < nxt:
                    nxt = sample
            skip = nxt - cycle - 1
            if skip <= 0:
                continue
            # Integer-valued sums far below 2**53: one multiply-add is
            # exact.  The regfile term is not an integer and float adds
            # do not associate, so it repeats the per-cycle add.
            a_iq += skip * (iq_ace * bits_iq)
            a_rob += skip * (rob_ace * bits_rob)
            a_lsq += skip * (lsq_ace * bits_lsq)
            regfile_ace = (32 + 0.5 * len(rob)) * bits_regfile * 0.45
            for _ in range(skip):
                a_regfile += regfile_ace
            if dvm is not None:
                dvm_window_ace += skip * iq_ace
                dvm_window_cycles += skip
                if throttled:
                    throttled_cycles += skip
            cycle += skip

        self._global_index += n
        self._cycle = cycle
        self._last_waiting = waiting
        self._last_ready = ready_count
        self._dvm_window_ace = dvm_window_ace
        self._dvm_window_cycles = dvm_window_cycles
        stats.cycles = cycle - start_cycle
        stats.branch_mispredicts = mispredicts
        stats.dvm_throttled_cycles = throttled_cycles
        stats.counters = {
            "fetch_il1": c_fetch_il1, "rename": c_rename,
            "issue_queue": c_issue_queue, "rob": c_rob,
            "regfile": c_regfile, "alu_int": c_alu_int,
            "alu_fp": c_alu_fp, "lsq": c_lsq, "dl1": c_dl1, "l2": c_l2,
            "instructions": c_instructions,
        }
        stats.ace_bit_cycles = {"iq": a_iq, "rob": a_rob, "lsq": a_lsq,
                                "regfile": a_regfile}
        return stats
