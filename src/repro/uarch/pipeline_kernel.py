"""Struct-of-arrays kernel for the detailed out-of-order pipeline.

The array-backed twin of the interpreter in
:mod:`repro.uarch.pipeline`: all microarchitectural state lives in
preallocated numpy arrays —

* circular ROB (parallel ``rob_*`` arrays indexed by slot) and an
  order-preserving issue-queue slot list compacted in place;
* set-associative caches / BTB / TLBs as flat ``tags`` + ``stamps``
  arrays (monotonic LRU stamps: the min-stamp way is the LRU victim,
  exactly the OrderedDict ``popitem(last=False)`` choice);
* the gshare counter table as an int8 array;
* per-interval producer completion times in a local array (every
  instruction of an interval commits before the next interval starts,
  so cross-interval producers are complete by construction);
* outstanding L2 misses in a bounded array (an outstanding miss pins
  its load in the LSQ, so occupancy is bounded by ``lsq_size``);

— so :func:`step_interval` advances one whole interval in a single
call.  The function body is deliberately plain scalar code over these
arrays, compiled with ``numba.njit`` via
:func:`repro.uarch.jit.compile_njit` (no ``fastmath``, strict IEEE
ordering) and called per core by the ``prange`` batch loop in
:mod:`repro.uarch._pipeline_batch_numba`; its cycle / counter / ACE /
mispredict / throttle streams are bit-identical to the interpreter's.
Golden digests are pinned in ``tests/test_detailed_kernel.py``, whose
kernel cells run where numba is installed.

:class:`KernelState` owns the persistent arrays and converts to/from
the canonical snapshot format of
:meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state` (per-set way
tags in LRU order), which is also checkpoint format v2.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import SimulationError
from repro.reliability.avf import STRUCTURE_BITS
from repro.uarch.params import MachineConfig

# ----------------------------------------------------------------------
# Packed-argument layouts (module-level ints are compile-time constants
# for numba).
# ----------------------------------------------------------------------

# cfg_i: int64 configuration vector.
CFG_FETCH_WIDTH = 0
CFG_ROB_SIZE = 1
CFG_IQ_SIZE = 2
CFG_LSQ_SIZE = 3
CFG_INT_ALU = 4
CFG_FP_ALU = 5
CFG_MEM_PORTS = 6
CFG_IL1_LINE_BYTES = 7
CFG_DL1_LATENCY = 8
CFG_L2_LATENCY = 9
CFG_MEMORY_LATENCY = 10
CFG_TLB_MISS_LATENCY = 11
CFG_PIPELINE_DEPTH = 12
CFG_IL1_SET_MASK = 13
CFG_IL1_LINE_SHIFT = 14
CFG_IL1_ASSOC = 15
CFG_DL1_SET_MASK = 16
CFG_DL1_LINE_SHIFT = 17
CFG_DL1_ASSOC = 18
CFG_L2_SET_MASK = 19
CFG_L2_LINE_SHIFT = 20
CFG_L2_ASSOC = 21
CFG_BTB_N_SETS = 22
CFG_BTB_ASSOC = 23
CFG_GSHARE_MASK = 24
CFG_GSHARE_HISTORY_MASK = 25
CFG_DVM_ENABLED = 26
CFG_DVM_SAMPLE_PERIOD = 27
CFG_MAX_CPI = 28
N_CFG_I = 29

# cfg_f: float64 configuration vector.
CFGF_BITS_IQ = 0
CFGF_BITS_ROB = 1
CFGF_BITS_LSQ = 2
CFGF_BITS_REGFILE = 3
CFGF_DVM_THRESHOLD = 4
CFGF_WQ_INCREASE = 5
CFGF_WQ_DECREASE = 6
CFGF_WQ_MAX = 7
N_CFG_F = 8

# sc: int64 mutable scalar state (persistent between intervals).
SC_CYCLE = 0
SC_IL1_HITS = 1
SC_IL1_MISSES = 2
SC_DL1_HITS = 3
SC_DL1_MISSES = 4
SC_L2_HITS = 5
SC_L2_MISSES = 6
SC_ITLB_HITS = 7
SC_ITLB_MISSES = 8
SC_DTLB_HITS = 9
SC_DTLB_MISSES = 10
SC_BTB_HITS = 11
SC_BTB_MISSES = 12
SC_GSHARE_HISTORY = 13
SC_GSHARE_LOOKUPS = 14
SC_GSHARE_MISPREDICTS = 15
SC_IL1_STAMP = 16
SC_DL1_STAMP = 17
SC_L2_STAMP = 18
SC_BTB_STAMP = 19
SC_ITLB_STAMP = 20
SC_DTLB_STAMP = 21
SC_DVM_WINDOW_CYCLES = 22
SC_LAST_WAITING = 23
SC_LAST_READY = 24
SC_DVM_TRIGGERS = 25
SC_DVM_SAMPLES = 26
N_SC = 27

# fc: float64 mutable scalar state.
FC_DVM_WINDOW_ACE = 0
FC_WQ_RATIO = 1
N_FC = 2

# out_ints layout.
OI_MISPREDICTS = 0
OI_THROTTLED = 1
OI_STATUS = 2          # 0 = ok, 1 = deadlock (> MAX_CPI cycles)
N_OI = 3

# out_counters layout — must match pipeline.COUNTER_KEYS order.
CTR_FETCH_IL1 = 0
CTR_RENAME = 1
CTR_ISSUE_QUEUE = 2
CTR_ROB = 3
CTR_REGFILE = 4
CTR_ALU_INT = 5
CTR_ALU_FP = 6
CTR_LSQ = 7
CTR_DL1 = 8
CTR_L2 = 9
CTR_INSTRUCTIONS = 10
N_CTR = 11

# out_ace layout: iq, rob, lsq, regfile.
ACE_IQ = 0
ACE_ROB = 1
ACE_LSQ = 2
ACE_REGFILE = 3
N_ACE = 4

#: TLB page shift (4 KB pages, matching :class:`repro.uarch.caches.TLB`).
_PAGE_SHIFT = 12


def step_interval(t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
                  cfg_i, cfg_f,
                  il1_tags, il1_stamps, dl1_tags, dl1_stamps,
                  l2_tags, l2_stamps, btb_tags, btb_stamps,
                  itlb_pages, itlb_stamps, dtlb_pages, dtlb_stamps,
                  gshare_counters,
                  rob_local, rob_op, rob_ace, rob_ismem, rob_issued,
                  rob_ready, rob_misp, iq_slots, miss_until,
                  sc, fc, out_counters, out_ace, out_ints):
    """Advance one interval over the array state; the njit-able body.

    Mirrors ``OutOfOrderCore.run_interval`` statement for
    statement (same per-cycle phase order, same arithmetic expression
    order), so the emitted statistic streams are bit-identical.  The
    five inlined tags/stamps blocks implement true-LRU set lookup:
    min-stamp eviction picks the same victim an oldest-first
    OrderedDict pop does, and sets never develop holes (a miss fills
    either the first empty way or the evicted way).
    """
    n = t_op.shape[0]

    fetch_width = cfg_i[CFG_FETCH_WIDTH]
    rob_size = cfg_i[CFG_ROB_SIZE]
    iq_size = cfg_i[CFG_IQ_SIZE]
    lsq_size = cfg_i[CFG_LSQ_SIZE]
    n_int_alu = cfg_i[CFG_INT_ALU]
    n_fp_alu = cfg_i[CFG_FP_ALU]
    n_mem_ports = cfg_i[CFG_MEM_PORTS]
    il1_line_bytes = cfg_i[CFG_IL1_LINE_BYTES]
    dl1_latency = cfg_i[CFG_DL1_LATENCY]
    l2_latency = cfg_i[CFG_L2_LATENCY]
    memory_latency = cfg_i[CFG_MEMORY_LATENCY]
    tlb_miss_latency = cfg_i[CFG_TLB_MISS_LATENCY]
    depth = cfg_i[CFG_PIPELINE_DEPTH]
    il1_set_mask = cfg_i[CFG_IL1_SET_MASK]
    il1_shift = cfg_i[CFG_IL1_LINE_SHIFT]
    il1_assoc = cfg_i[CFG_IL1_ASSOC]
    dl1_set_mask = cfg_i[CFG_DL1_SET_MASK]
    dl1_shift = cfg_i[CFG_DL1_LINE_SHIFT]
    dl1_assoc = cfg_i[CFG_DL1_ASSOC]
    l2_set_mask = cfg_i[CFG_L2_SET_MASK]
    l2_shift = cfg_i[CFG_L2_LINE_SHIFT]
    l2_assoc = cfg_i[CFG_L2_ASSOC]
    btb_n_sets = cfg_i[CFG_BTB_N_SETS]
    btb_assoc = cfg_i[CFG_BTB_ASSOC]
    gshare_mask = cfg_i[CFG_GSHARE_MASK]
    history_mask = cfg_i[CFG_GSHARE_HISTORY_MASK]
    dvm_enabled = cfg_i[CFG_DVM_ENABLED]
    dvm_sample_period = cfg_i[CFG_DVM_SAMPLE_PERIOD]
    max_cpi = cfg_i[CFG_MAX_CPI]

    bits_iq = cfg_f[CFGF_BITS_IQ]
    bits_rob = cfg_f[CFGF_BITS_ROB]
    bits_lsq = cfg_f[CFGF_BITS_LSQ]
    bits_regfile = cfg_f[CFGF_BITS_REGFILE]
    dvm_threshold = cfg_f[CFGF_DVM_THRESHOLD]
    wq_increase = cfg_f[CFGF_WQ_INCREASE]
    wq_decrease = cfg_f[CFGF_WQ_DECREASE]
    wq_max = cfg_f[CFGF_WQ_MAX]

    il1_stamp = sc[SC_IL1_STAMP]
    dl1_stamp = sc[SC_DL1_STAMP]
    l2_stamp = sc[SC_L2_STAMP]
    btb_stamp = sc[SC_BTB_STAMP]
    itlb_stamp = sc[SC_ITLB_STAMP]
    dtlb_stamp = sc[SC_DTLB_STAMP]
    itlb_entries = itlb_pages.shape[0]
    dtlb_entries = dtlb_pages.shape[0]
    history = sc[SC_GSHARE_HISTORY]

    c_fetch_il1 = 0.0
    c_rename = 0.0
    c_issue_queue = 0.0
    c_rob = 0.0
    c_regfile = 0.0
    c_alu_int = 0.0
    c_alu_fp = 0.0
    c_lsq = 0.0
    c_dl1 = 0.0
    c_l2 = 0.0
    c_instructions = 0.0
    a_iq = 0.0
    a_rob = 0.0
    a_lsq = 0.0
    a_regfile = 0.0

    # Per-interval producer completion times (local trace indices).
    comp_cycle = np.zeros(n, np.int64)
    comp_issued = np.zeros(n, np.uint8)
    fu_free = np.zeros(5, np.int64)

    rob_head = 0
    rob_count = 0
    iq_n = 0
    miss_count = 0
    lsq_count = 0
    iq_ace = 0
    rob_ace_total = 0
    lsq_ace = 0
    fetch_ptr = 0
    dispatch_ptr = 0
    fetch_stall_until = 0
    last_fetch_line = -1
    start_cycle = sc[SC_CYCLE]
    cycle = start_cycle
    committed = 0
    mispredicts = 0
    throttled_cycles = 0
    waiting = sc[SC_LAST_WAITING]
    ready_count = sc[SC_LAST_READY]
    dvm_window_ace = fc[FC_DVM_WINDOW_ACE]
    dvm_window_cycles = sc[SC_DVM_WINDOW_CYCLES]
    wq_ratio = fc[FC_WQ_RATIO]
    dvm_triggers = sc[SC_DVM_TRIGGERS]
    dvm_samples = sc[SC_DVM_SAMPLES]
    limit = n * max_cpi
    if limit < 10000:
        limit = 10000
    max_cycles = start_cycle + limit

    while committed < n:
        cycle += 1
        if cycle > max_cycles:
            out_ints[OI_STATUS] = 1
            return

        # ---------------- commit -------------------------------------
        commits = 0
        while rob_count > 0 and commits < fetch_width:
            slot = rob_head
            if rob_issued[slot] == 0 or rob_ready[slot] > cycle:
                break
            rob_head += 1
            if rob_head == rob_size:
                rob_head = 0
            rob_count -= 1
            ace = int(rob_ace[slot])
            rob_ace_total -= ace
            if rob_ismem[slot] == 1:
                lsq_count -= 1
                lsq_ace -= ace
            if rob_misp[slot] == 1:
                mispredicts += 1
            commits += 1
            committed += 1
            c_rob += 1.0
            c_instructions += 1.0

        # ---------------- issue --------------------------------------
        keep = 0
        for j in range(miss_count):
            if miss_until[j] > cycle:
                miss_until[keep] = miss_until[j]
                keep += 1
        miss_count = keep
        # Independent per-class FU budgets indexed by op value
        # (INT_ALU, FP_ALU, LOAD, STORE, BRANCH).
        fu_free[0] = n_int_alu
        fu_free[1] = n_fp_alu
        fu_free[2] = n_mem_ports
        fu_free[3] = n_mem_ports
        fu_free[4] = n_int_alu
        issued = 0
        ready_count = 0
        write = 0
        for j in range(iq_n):
            slot = iq_slots[j]
            if issued >= fetch_width:
                iq_slots[write] = slot
                write += 1
                continue
            li = rob_local[slot]
            src_ready = True
            dist = t_src1[li]
            if dist > 0:
                producer = li - dist
                if producer >= 0 and comp_issued[producer] == 1 \
                        and comp_cycle[producer] > cycle:
                    src_ready = False
            if src_ready:
                dist = t_src2[li]
                if dist > 0:
                    producer = li - dist
                    if producer >= 0 and comp_issued[producer] == 1 \
                            and comp_cycle[producer] > cycle:
                        src_ready = False
            if not src_ready:
                iq_slots[write] = slot
                write += 1
                continue
            ready_count += 1
            op = rob_op[slot]
            if fu_free[op] <= 0:
                iq_slots[write] = slot
                write += 1
                continue
            fu_free[op] -= 1
            if op == 0 or op == 3 or op == 4:
                latency = 1      # INT_ALU / STORE / BRANCH
            elif op == 1:
                latency = 4      # FP_ALU
            else:
                latency = 0      # LOAD: pure cache latency
            if op == 2:          # LOAD
                addr = t_addr[li]
                # dtlb ------------------------------------------------
                page = addr >> _PAGE_SHIFT
                tlb_hit = False
                empty = -1
                for w in range(dtlb_entries):
                    tag = dtlb_pages[w]
                    if tag == page:
                        dtlb_stamps[w] = dtlb_stamp
                        dtlb_stamp += 1
                        tlb_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if tlb_hit:
                    sc[SC_DTLB_HITS] += 1
                else:
                    if empty < 0:
                        victim = 0
                        best = dtlb_stamps[0]
                        for w in range(1, dtlb_entries):
                            if dtlb_stamps[w] < best:
                                best = dtlb_stamps[w]
                                victim = w
                        empty = victim
                    dtlb_pages[empty] = page
                    dtlb_stamps[empty] = dtlb_stamp
                    dtlb_stamp += 1
                    sc[SC_DTLB_MISSES] += 1
                # dl1 -------------------------------------------------
                line = addr >> dl1_shift
                base = (line & dl1_set_mask) * dl1_assoc
                dl1_hit = False
                empty = -1
                for w in range(dl1_assoc):
                    tag = dl1_tags[base + w]
                    if tag == line:
                        dl1_stamps[base + w] = dl1_stamp
                        dl1_stamp += 1
                        dl1_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if dl1_hit:
                    sc[SC_DL1_HITS] += 1
                    latency += dl1_latency
                    goes_to_memory = False
                else:
                    if empty < 0:
                        victim = 0
                        best = dl1_stamps[base]
                        for w in range(1, dl1_assoc):
                            if dl1_stamps[base + w] < best:
                                best = dl1_stamps[base + w]
                                victim = w
                        empty = victim
                    dl1_tags[base + empty] = line
                    dl1_stamps[base + empty] = dl1_stamp
                    dl1_stamp += 1
                    sc[SC_DL1_MISSES] += 1
                    # l2 ----------------------------------------------
                    l2_line = addr >> l2_shift
                    l2_base = (l2_line & l2_set_mask) * l2_assoc
                    l2_hit = False
                    empty = -1
                    for w in range(l2_assoc):
                        tag = l2_tags[l2_base + w]
                        if tag == l2_line:
                            l2_stamps[l2_base + w] = l2_stamp
                            l2_stamp += 1
                            l2_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if l2_hit:
                        sc[SC_L2_HITS] += 1
                        latency += dl1_latency + l2_latency
                    else:
                        if empty < 0:
                            victim = 0
                            best = l2_stamps[l2_base]
                            for w in range(1, l2_assoc):
                                if l2_stamps[l2_base + w] < best:
                                    best = l2_stamps[l2_base + w]
                                    victim = w
                            empty = victim
                        l2_tags[l2_base + empty] = l2_line
                        l2_stamps[l2_base + empty] = l2_stamp
                        l2_stamp += 1
                        sc[SC_L2_MISSES] += 1
                        latency += dl1_latency + l2_latency + memory_latency
                    goes_to_memory = not l2_hit
                if not tlb_hit:
                    latency += tlb_miss_latency
                c_dl1 += 1.0
                if not dl1_hit:
                    c_l2 += 1.0
                if goes_to_memory:
                    miss_until[miss_count] = cycle + latency
                    miss_count += 1
            elif op == 3:        # STORE: access side effects, fixed latency
                addr = t_addr[li]
                # dtlb ------------------------------------------------
                page = addr >> _PAGE_SHIFT
                tlb_hit = False
                empty = -1
                for w in range(dtlb_entries):
                    tag = dtlb_pages[w]
                    if tag == page:
                        dtlb_stamps[w] = dtlb_stamp
                        dtlb_stamp += 1
                        tlb_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if tlb_hit:
                    sc[SC_DTLB_HITS] += 1
                else:
                    if empty < 0:
                        victim = 0
                        best = dtlb_stamps[0]
                        for w in range(1, dtlb_entries):
                            if dtlb_stamps[w] < best:
                                best = dtlb_stamps[w]
                                victim = w
                        empty = victim
                    dtlb_pages[empty] = page
                    dtlb_stamps[empty] = dtlb_stamp
                    dtlb_stamp += 1
                    sc[SC_DTLB_MISSES] += 1
                # dl1 -------------------------------------------------
                line = addr >> dl1_shift
                base = (line & dl1_set_mask) * dl1_assoc
                dl1_hit = False
                empty = -1
                for w in range(dl1_assoc):
                    tag = dl1_tags[base + w]
                    if tag == line:
                        dl1_stamps[base + w] = dl1_stamp
                        dl1_stamp += 1
                        dl1_hit = True
                        break
                    if tag == -1 and empty < 0:
                        empty = w
                if dl1_hit:
                    sc[SC_DL1_HITS] += 1
                else:
                    if empty < 0:
                        victim = 0
                        best = dl1_stamps[base]
                        for w in range(1, dl1_assoc):
                            if dl1_stamps[base + w] < best:
                                best = dl1_stamps[base + w]
                                victim = w
                        empty = victim
                    dl1_tags[base + empty] = line
                    dl1_stamps[base + empty] = dl1_stamp
                    dl1_stamp += 1
                    sc[SC_DL1_MISSES] += 1
                    # l2 ----------------------------------------------
                    l2_line = addr >> l2_shift
                    l2_base = (l2_line & l2_set_mask) * l2_assoc
                    l2_hit = False
                    empty = -1
                    for w in range(l2_assoc):
                        tag = l2_tags[l2_base + w]
                        if tag == l2_line:
                            l2_stamps[l2_base + w] = l2_stamp
                            l2_stamp += 1
                            l2_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if not l2_hit:
                        if empty < 0:
                            victim = 0
                            best = l2_stamps[l2_base]
                            for w in range(1, l2_assoc):
                                if l2_stamps[l2_base + w] < best:
                                    best = l2_stamps[l2_base + w]
                                    victim = w
                            empty = victim
                        l2_tags[l2_base + empty] = l2_line
                        l2_stamps[l2_base + empty] = l2_stamp
                        l2_stamp += 1
                        sc[SC_L2_MISSES] += 1
                    else:
                        sc[SC_L2_HITS] += 1
                c_dl1 += 1.0
                if not dl1_hit:
                    c_l2 += 1.0
                latency += 1     # stores retire from the LSQ post-commit
            elif op == 4:        # BRANCH
                pc = t_pc[li]
                taken = int(t_taken[li])
                idx = ((pc >> 2) ^ history) & gshare_mask
                counter = int(gshare_counters[idx])
                prediction = counter >= 2
                if taken == 1 and counter < 3:
                    gshare_counters[idx] = counter + 1
                elif taken == 0 and counter > 0:
                    gshare_counters[idx] = counter - 1
                history = ((history << 1) | taken) & history_mask
                sc[SC_GSHARE_LOOKUPS] += 1
                mispredicted = prediction != (taken == 1)
                if mispredicted:
                    sc[SC_GSHARE_MISPREDICTS] += 1
                if taken == 1:
                    btag = pc >> 2
                    bbase = (btag % btb_n_sets) * btb_assoc
                    btb_hit = False
                    empty = -1
                    for w in range(btb_assoc):
                        tag = btb_tags[bbase + w]
                        if tag == btag:
                            btb_stamps[bbase + w] = btb_stamp
                            btb_stamp += 1
                            btb_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if btb_hit:
                        sc[SC_BTB_HITS] += 1
                    else:
                        if empty < 0:
                            victim = 0
                            best = btb_stamps[bbase]
                            for w in range(1, btb_assoc):
                                if btb_stamps[bbase + w] < best:
                                    best = btb_stamps[bbase + w]
                                    victim = w
                            empty = victim
                        btb_tags[bbase + empty] = btag
                        btb_stamps[bbase + empty] = btb_stamp
                        btb_stamp += 1
                        sc[SC_BTB_MISSES] += 1
                if mispredicted:
                    rob_misp[slot] = 1
                    stall = cycle + latency + depth
                    if stall > fetch_stall_until:
                        fetch_stall_until = stall
            rob_issued[slot] = 1
            rob_ready[slot] = cycle + latency
            comp_issued[li] = 1
            comp_cycle[li] = cycle + latency
            issued += 1
            iq_ace -= int(rob_ace[slot])
            c_issue_queue += 1.0
            c_regfile += 2.0
            if op == 0 or op == 4:
                c_alu_int += 1.0
            elif op == 1:
                c_alu_fp += 1.0
            if rob_ismem[slot] == 1:
                c_lsq += 1.0
        iq_n = write
        if iq_n > ready_count:
            waiting = iq_n - ready_count
        else:
            waiting = 0

        # ---------------- dispatch -----------------------------------
        throttled = False
        if dvm_enabled == 1:
            if miss_count > 0:
                throttled = True
            elif ready_count <= 0:
                throttled = waiting > wq_ratio
            else:
                throttled = (waiting / ready_count) > wq_ratio
            if throttled:
                throttled_cycles += 1
        if not throttled:
            dispatched = 0
            while (dispatched < fetch_width and dispatch_ptr < fetch_ptr
                   and rob_count < rob_size and iq_n < iq_size):
                local = dispatch_ptr
                op = t_op[local]
                is_mem = op == 2 or op == 3
                if is_mem and lsq_count >= lsq_size:
                    break
                slot = rob_head + rob_count
                if slot >= rob_size:
                    slot -= rob_size
                ace = int(t_ace[local])
                rob_local[slot] = local
                rob_op[slot] = op
                rob_ace[slot] = ace
                rob_ismem[slot] = 1 if is_mem else 0
                rob_issued[slot] = 0
                rob_ready[slot] = 0
                rob_misp[slot] = 0
                iq_slots[iq_n] = slot
                iq_n += 1
                rob_count += 1
                rob_ace_total += ace
                iq_ace += ace
                if is_mem:
                    lsq_count += 1
                    lsq_ace += ace
                dispatch_ptr += 1
                dispatched += 1
                c_rename += 1.0
                c_rob += 1.0

        # ---------------- fetch --------------------------------------
        if cycle >= fetch_stall_until:
            fetched = 0
            while (fetched < fetch_width and fetch_ptr < n
                   and fetch_ptr - dispatch_ptr < 2 * fetch_width):
                line = t_pc[fetch_ptr] // il1_line_bytes
                if line != last_fetch_line:
                    addr = t_pc[fetch_ptr]
                    # itlb --------------------------------------------
                    page = addr >> _PAGE_SHIFT
                    tlb_hit = False
                    empty = -1
                    for w in range(itlb_entries):
                        tag = itlb_pages[w]
                        if tag == page:
                            itlb_stamps[w] = itlb_stamp
                            itlb_stamp += 1
                            tlb_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    if tlb_hit:
                        sc[SC_ITLB_HITS] += 1
                    else:
                        if empty < 0:
                            victim = 0
                            best = itlb_stamps[0]
                            for w in range(1, itlb_entries):
                                if itlb_stamps[w] < best:
                                    best = itlb_stamps[w]
                                    victim = w
                            empty = victim
                        itlb_pages[empty] = page
                        itlb_stamps[empty] = itlb_stamp
                        itlb_stamp += 1
                        sc[SC_ITLB_MISSES] += 1
                    # il1 ---------------------------------------------
                    il1_line = addr >> il1_shift
                    base = (il1_line & il1_set_mask) * il1_assoc
                    il1_hit = False
                    empty = -1
                    for w in range(il1_assoc):
                        tag = il1_tags[base + w]
                        if tag == il1_line:
                            il1_stamps[base + w] = il1_stamp
                            il1_stamp += 1
                            il1_hit = True
                            break
                        if tag == -1 and empty < 0:
                            empty = w
                    bubble = 0
                    if il1_hit:
                        sc[SC_IL1_HITS] += 1
                    else:
                        if empty < 0:
                            victim = 0
                            best = il1_stamps[base]
                            for w in range(1, il1_assoc):
                                if il1_stamps[base + w] < best:
                                    best = il1_stamps[base + w]
                                    victim = w
                            empty = victim
                        il1_tags[base + empty] = il1_line
                        il1_stamps[base + empty] = il1_stamp
                        il1_stamp += 1
                        sc[SC_IL1_MISSES] += 1
                        # l2 ------------------------------------------
                        l2_line = addr >> l2_shift
                        l2_base = (l2_line & l2_set_mask) * l2_assoc
                        l2_hit = False
                        empty = -1
                        for w in range(l2_assoc):
                            tag = l2_tags[l2_base + w]
                            if tag == l2_line:
                                l2_stamps[l2_base + w] = l2_stamp
                                l2_stamp += 1
                                l2_hit = True
                                break
                            if tag == -1 and empty < 0:
                                empty = w
                        if l2_hit:
                            sc[SC_L2_HITS] += 1
                            bubble = l2_latency
                        else:
                            if empty < 0:
                                victim = 0
                                best = l2_stamps[l2_base]
                                for w in range(1, l2_assoc):
                                    if l2_stamps[l2_base + w] < best:
                                        best = l2_stamps[l2_base + w]
                                        victim = w
                                empty = victim
                            l2_tags[l2_base + empty] = l2_line
                            l2_stamps[l2_base + empty] = l2_stamp
                            l2_stamp += 1
                            sc[SC_L2_MISSES] += 1
                            bubble = l2_latency + memory_latency
                    if not tlb_hit:
                        bubble += tlb_miss_latency
                    c_fetch_il1 += 1.0
                    last_fetch_line = line
                    if bubble > 0:
                        fetch_stall_until = cycle + bubble
                        break
                is_taken_branch = (t_op[fetch_ptr] == 4
                                   and t_taken[fetch_ptr] == 1)
                fetch_ptr += 1
                fetched += 1
                if is_taken_branch:
                    break  # taken branch ends the fetch block

        # ---------------- AVF residency ------------------------------
        a_iq += iq_ace * bits_iq
        a_rob += rob_ace_total * bits_rob
        a_lsq += lsq_ace * bits_lsq
        # Live architectural registers scale with in-flight window.
        a_regfile += (32 + 0.5 * rob_count) * bits_regfile * 0.45

        # ---------------- DVM sampling -------------------------------
        if dvm_enabled == 1:
            dvm_window_ace += iq_ace
            dvm_window_cycles += 1
            if dvm_window_cycles >= dvm_sample_period:
                online_avf = dvm_window_ace / (dvm_window_cycles * iq_size)
                dvm_samples += 1
                if online_avf > dvm_threshold:
                    wq_ratio = wq_ratio * wq_decrease
                    if wq_ratio < 0.25:
                        wq_ratio = 0.25
                    dvm_triggers += 1
                else:
                    wq_ratio = wq_ratio + wq_increase
                    if wq_ratio > wq_max:
                        wq_ratio = wq_max
                dvm_window_ace = 0.0
                dvm_window_cycles = 0

    sc[SC_CYCLE] = cycle
    sc[SC_GSHARE_HISTORY] = history
    sc[SC_IL1_STAMP] = il1_stamp
    sc[SC_DL1_STAMP] = dl1_stamp
    sc[SC_L2_STAMP] = l2_stamp
    sc[SC_BTB_STAMP] = btb_stamp
    sc[SC_ITLB_STAMP] = itlb_stamp
    sc[SC_DTLB_STAMP] = dtlb_stamp
    sc[SC_DVM_WINDOW_CYCLES] = dvm_window_cycles
    sc[SC_LAST_WAITING] = waiting
    sc[SC_LAST_READY] = ready_count
    sc[SC_DVM_TRIGGERS] = dvm_triggers
    sc[SC_DVM_SAMPLES] = dvm_samples
    fc[FC_DVM_WINDOW_ACE] = dvm_window_ace
    fc[FC_WQ_RATIO] = wq_ratio
    out_counters[CTR_FETCH_IL1] = c_fetch_il1
    out_counters[CTR_RENAME] = c_rename
    out_counters[CTR_ISSUE_QUEUE] = c_issue_queue
    out_counters[CTR_ROB] = c_rob
    out_counters[CTR_REGFILE] = c_regfile
    out_counters[CTR_ALU_INT] = c_alu_int
    out_counters[CTR_ALU_FP] = c_alu_fp
    out_counters[CTR_LSQ] = c_lsq
    out_counters[CTR_DL1] = c_dl1
    out_counters[CTR_L2] = c_l2
    out_counters[CTR_INSTRUCTIONS] = c_instructions
    out_ace[ACE_IQ] = a_iq
    out_ace[ACE_ROB] = a_rob
    out_ace[ACE_LSQ] = a_lsq
    out_ace[ACE_REGFILE] = a_regfile
    out_ints[OI_MISPREDICTS] = mispredicts
    out_ints[OI_THROTTLED] = throttled_cycles
    out_ints[OI_STATUS] = 0
    return


def _cache_geometry(size_kb: int, assoc: int, line_bytes: int):
    """``(n_sets, set_mask, line_shift)`` — must mirror
    :class:`repro.uarch.caches.SetAssociativeCache` exactly."""
    n_sets = size_kb * 1024 // line_bytes // assoc
    return n_sets, n_sets - 1, line_bytes.bit_length() - 1


def _fill_from_lru(table: np.ndarray, tags: np.ndarray,
                   stamps: np.ndarray, assoc: int, next_stamp: int) -> int:
    """Load canonical LRU rows into tag/stamp arrays; returns the next
    free stamp.  Oldest entries get the smallest stamps, preserving the
    per-set recency order; all future stamps sort after all loaded
    ones."""
    n_sets = table.shape[0]
    for index in range(n_sets):
        base = index * assoc
        for way in range(assoc):
            tag = int(table[index, way])
            if tag == -1:
                continue
            tags[base + way] = tag
            stamps[base + way] = next_stamp
            next_stamp += 1
    return next_stamp


def _lru_rows(tags: np.ndarray, stamps: np.ndarray, n_sets: int,
              assoc: int) -> np.ndarray:
    """Canonical LRU table (oldest-first rows) from tag/stamp arrays."""
    table = np.full((n_sets, assoc), -1, dtype=np.int64)
    for index in range(n_sets):
        base = index * assoc
        pairs = sorted(
            (int(stamps[base + way]), int(tags[base + way]))
            for way in range(assoc) if tags[base + way] != -1
        )
        for slot, (_, tag) in enumerate(pairs):
            table[index, slot] = tag
    return table


class KernelState:
    """Persistent array state for one :class:`OutOfOrderCore`.

    Built from (and exportable back to) the canonical snapshot format —
    see :meth:`repro.uarch.pipeline.OutOfOrderCore.snapshot_state`.
    Cache-structure contents, hit/miss totals and the gshare scalars
    live *here* while the core is in kernel mode; DVM / cycle /
    interval scalars are copied in and out around every interval by
    :func:`run_interval_on_batch` so the core object stays their
    authority.
    """

    def __init__(self, config: MachineConfig, snapshot: Dict[str, np.ndarray]):
        self.config = config
        il1_sets, il1_mask, il1_shift = _cache_geometry(
            config.il1_size_kb, config.il1_assoc, config.il1_line_bytes)
        dl1_sets, dl1_mask, dl1_shift = _cache_geometry(
            config.dl1_size_kb, config.dl1_assoc, config.dl1_line_bytes)
        l2_sets, l2_mask, l2_shift = _cache_geometry(
            config.l2_size_kb, config.l2_assoc, config.l2_line_bytes)
        btb_sets = config.btb_entries // config.btb_assoc
        self._geometry = {
            "il1": (il1_sets, config.il1_assoc),
            "dl1": (dl1_sets, config.dl1_assoc),
            "l2": (l2_sets, config.l2_assoc),
            "btb": (btb_sets, config.btb_assoc),
        }

        def _structure(rows_key, n_sets, assoc):
            tags = np.full(n_sets * assoc, -1, dtype=np.int64)
            stamps = np.zeros(n_sets * assoc, dtype=np.int64)
            next_stamp = _fill_from_lru(
                np.asarray(snapshot[rows_key]), tags, stamps, assoc, 0)
            return tags, stamps, next_stamp

        self.il1_tags, self.il1_stamps, il1_stamp = _structure(
            "il1_lru", il1_sets, config.il1_assoc)
        self.dl1_tags, self.dl1_stamps, dl1_stamp = _structure(
            "dl1_lru", dl1_sets, config.dl1_assoc)
        self.l2_tags, self.l2_stamps, l2_stamp = _structure(
            "l2_lru", l2_sets, config.l2_assoc)
        self.btb_tags, self.btb_stamps, btb_stamp = _structure(
            "btb_lru", btb_sets, config.btb_assoc)

        def _tlb(rows_key, entries):
            pages = np.full(entries, -1, dtype=np.int64)
            stamps = np.zeros(entries, dtype=np.int64)
            next_stamp = 0
            for page in np.asarray(snapshot[rows_key]):
                page = int(page)
                if page == -1:
                    continue
                pages[next_stamp] = page
                stamps[next_stamp] = next_stamp
                next_stamp += 1
            return pages, stamps, next_stamp

        # TLB residents land in slots 0..k-1; slot order is stamp order.
        self.itlb_pages, self.itlb_stamps, itlb_stamp = _tlb(
            "itlb_lru", config.itlb_entries)
        self.dtlb_pages, self.dtlb_stamps, dtlb_stamp = _tlb(
            "dtlb_lru", config.dtlb_entries)

        self.gshare_counters = np.array(snapshot["gshare_counters"],
                                        dtype=np.int8)

        ints = np.asarray(snapshot["ints"], dtype=np.int64)
        from repro.uarch.pipeline import SNAPSHOT_INT_FIELDS

        fields = dict(zip(SNAPSHOT_INT_FIELDS, (int(v) for v in ints)))
        self.sc = np.zeros(N_SC, dtype=np.int64)
        self.sc[SC_IL1_HITS] = fields["il1_hits"]
        self.sc[SC_IL1_MISSES] = fields["il1_misses"]
        self.sc[SC_DL1_HITS] = fields["dl1_hits"]
        self.sc[SC_DL1_MISSES] = fields["dl1_misses"]
        self.sc[SC_L2_HITS] = fields["l2_hits"]
        self.sc[SC_L2_MISSES] = fields["l2_misses"]
        self.sc[SC_ITLB_HITS] = fields["itlb_hits"]
        self.sc[SC_ITLB_MISSES] = fields["itlb_misses"]
        self.sc[SC_DTLB_HITS] = fields["dtlb_hits"]
        self.sc[SC_DTLB_MISSES] = fields["dtlb_misses"]
        self.sc[SC_BTB_HITS] = fields["btb_hits"]
        self.sc[SC_BTB_MISSES] = fields["btb_misses"]
        self.sc[SC_GSHARE_HISTORY] = fields["gshare_history"]
        self.sc[SC_GSHARE_LOOKUPS] = fields["gshare_lookups"]
        self.sc[SC_GSHARE_MISPREDICTS] = fields["gshare_mispredicts"]
        self.sc[SC_IL1_STAMP] = il1_stamp
        self.sc[SC_DL1_STAMP] = dl1_stamp
        self.sc[SC_L2_STAMP] = l2_stamp
        self.sc[SC_BTB_STAMP] = btb_stamp
        self.sc[SC_ITLB_STAMP] = itlb_stamp
        self.sc[SC_DTLB_STAMP] = dtlb_stamp
        self.fc = np.zeros(N_FC, dtype=np.float64)

        self.cfg_i = np.zeros(N_CFG_I, dtype=np.int64)
        self.cfg_f = np.zeros(N_CFG_F, dtype=np.float64)
        ci = self.cfg_i
        ci[CFG_FETCH_WIDTH] = config.fetch_width
        ci[CFG_ROB_SIZE] = config.rob_size
        ci[CFG_IQ_SIZE] = config.iq_size
        ci[CFG_LSQ_SIZE] = config.lsq_size
        ci[CFG_INT_ALU] = config.int_alu
        ci[CFG_FP_ALU] = config.fp_alu
        ci[CFG_MEM_PORTS] = config.mem_ports
        ci[CFG_IL1_LINE_BYTES] = config.il1_line_bytes
        ci[CFG_DL1_LATENCY] = config.dl1_latency
        ci[CFG_L2_LATENCY] = config.l2_latency
        ci[CFG_MEMORY_LATENCY] = config.memory_latency
        ci[CFG_TLB_MISS_LATENCY] = config.tlb_miss_latency
        ci[CFG_PIPELINE_DEPTH] = config.pipeline_depth
        ci[CFG_IL1_SET_MASK] = il1_mask
        ci[CFG_IL1_LINE_SHIFT] = il1_shift
        ci[CFG_IL1_ASSOC] = config.il1_assoc
        ci[CFG_DL1_SET_MASK] = dl1_mask
        ci[CFG_DL1_LINE_SHIFT] = dl1_shift
        ci[CFG_DL1_ASSOC] = config.dl1_assoc
        ci[CFG_L2_SET_MASK] = l2_mask
        ci[CFG_L2_LINE_SHIFT] = l2_shift
        ci[CFG_L2_ASSOC] = config.l2_assoc
        ci[CFG_BTB_N_SETS] = btb_sets
        ci[CFG_BTB_ASSOC] = config.btb_assoc
        ci[CFG_GSHARE_MASK] = config.branch_predictor_entries - 1
        ci[CFG_GSHARE_HISTORY_MASK] = (1 << config.branch_history_bits) - 1
        cf = self.cfg_f
        cf[CFGF_BITS_IQ] = STRUCTURE_BITS["iq"]
        cf[CFGF_BITS_ROB] = STRUCTURE_BITS["rob"]
        cf[CFGF_BITS_LSQ] = STRUCTURE_BITS["lsq"]
        cf[CFGF_BITS_REGFILE] = STRUCTURE_BITS["regfile"]

        # Scratch (empty at every interval boundary: the interval loop
        # runs until everything commits).
        rob_size = config.rob_size
        self.rob_local = np.zeros(rob_size, dtype=np.int64)
        self.rob_op = np.zeros(rob_size, dtype=np.int64)
        self.rob_ace = np.zeros(rob_size, dtype=np.uint8)
        self.rob_ismem = np.zeros(rob_size, dtype=np.uint8)
        self.rob_issued = np.zeros(rob_size, dtype=np.uint8)
        self.rob_ready = np.zeros(rob_size, dtype=np.int64)
        self.rob_misp = np.zeros(rob_size, dtype=np.uint8)
        self.iq_slots = np.zeros(config.iq_size, dtype=np.int64)
        # An outstanding miss pins its load in the LSQ until the miss
        # completes, so lsq_size entries always suffice.
        self.miss_until = np.zeros(config.lsq_size, dtype=np.int64)

    # ------------------------------------------------------------------
    def export_structures(self) -> Dict[str, np.ndarray]:
        """Cache/BTB/TLB/gshare contents in the canonical snapshot form."""
        out = {}
        for name, tags, stamps in (
                ("il1", self.il1_tags, self.il1_stamps),
                ("dl1", self.dl1_tags, self.dl1_stamps),
                ("l2", self.l2_tags, self.l2_stamps),
                ("btb", self.btb_tags, self.btb_stamps)):
            n_sets, assoc = self._geometry[name]
            out[name + "_lru"] = _lru_rows(tags, stamps, n_sets, assoc)
        for name, pages, stamps in (
                ("itlb", self.itlb_pages, self.itlb_stamps),
                ("dtlb", self.dtlb_pages, self.dtlb_stamps)):
            entries = pages.shape[0]
            resident = sorted(
                (int(stamps[slot]), int(pages[slot]))
                for slot in range(entries) if pages[slot] != -1
            )
            table = np.full(entries, -1, dtype=np.int64)
            for slot, (_, page) in enumerate(resident):
                table[slot] = page
            out[name + "_lru"] = table
        out["gshare_counters"] = self.gshare_counters.copy()
        return out

    def export_scalars(self) -> Dict[str, int]:
        """The structure scalars this state is authoritative for."""
        sc = self.sc
        return {
            "il1_hits": int(sc[SC_IL1_HITS]),
            "il1_misses": int(sc[SC_IL1_MISSES]),
            "dl1_hits": int(sc[SC_DL1_HITS]),
            "dl1_misses": int(sc[SC_DL1_MISSES]),
            "l2_hits": int(sc[SC_L2_HITS]),
            "l2_misses": int(sc[SC_L2_MISSES]),
            "itlb_hits": int(sc[SC_ITLB_HITS]),
            "itlb_misses": int(sc[SC_ITLB_MISSES]),
            "dtlb_hits": int(sc[SC_DTLB_HITS]),
            "dtlb_misses": int(sc[SC_DTLB_MISSES]),
            "btb_hits": int(sc[SC_BTB_HITS]),
            "btb_misses": int(sc[SC_BTB_MISSES]),
            "gshare_history": int(sc[SC_GSHARE_HISTORY]),
            "gshare_lookups": int(sc[SC_GSHARE_LOOKUPS]),
            "gshare_mispredicts": int(sc[SC_GSHARE_MISPREDICTS]),
        }


def load_interval_scalars(core, state: KernelState) -> None:
    """Copy the core's interval scalars (cycle, DVM controller state)
    into the packed ``sc``/``fc``/``cfg`` vectors before a step."""
    from repro.uarch.pipeline import _MAX_CPI

    cfg_i, cfg_f, sc, fc = state.cfg_i, state.cfg_f, state.sc, state.fc
    dvm = core.dvm
    cfg_i[CFG_DVM_ENABLED] = 0 if dvm is None else 1
    cfg_i[CFG_DVM_SAMPLE_PERIOD] = core._dvm_sample_period
    cfg_i[CFG_MAX_CPI] = _MAX_CPI
    if dvm is not None:
        policy = dvm.policy
        cfg_f[CFGF_DVM_THRESHOLD] = policy.threshold
        cfg_f[CFGF_WQ_INCREASE] = policy.wq_increase
        cfg_f[CFGF_WQ_DECREASE] = policy.wq_decrease
        cfg_f[CFGF_WQ_MAX] = policy.wq_max
        fc[FC_WQ_RATIO] = dvm.wq_ratio
        sc[SC_DVM_TRIGGERS] = dvm.trigger_count
        sc[SC_DVM_SAMPLES] = dvm.sample_count
    sc[SC_CYCLE] = core._cycle
    sc[SC_DVM_WINDOW_CYCLES] = core._dvm_window_cycles
    sc[SC_LAST_WAITING] = core._last_waiting
    sc[SC_LAST_READY] = core._last_ready
    fc[FC_DVM_WINDOW_ACE] = core._dvm_window_ace


def store_interval_scalars(core, state: KernelState, n: int) -> None:
    """Copy stepped ``sc``/``fc`` scalars back onto the core object
    (the inverse of :func:`load_interval_scalars`)."""
    sc, fc = state.sc, state.fc
    core._global_index += n
    core._cycle = int(sc[SC_CYCLE])
    core._last_waiting = int(sc[SC_LAST_WAITING])
    core._last_ready = int(sc[SC_LAST_READY])
    core._dvm_window_ace = float(fc[FC_DVM_WINDOW_ACE])
    core._dvm_window_cycles = int(sc[SC_DVM_WINDOW_CYCLES])
    dvm = core.dvm
    if dvm is not None:
        dvm.wq_ratio = float(fc[FC_WQ_RATIO])
        dvm.trigger_count = int(sc[SC_DVM_TRIGGERS])
        dvm.sample_count = int(sc[SC_DVM_SAMPLES])


def pack_trace(trace):
    """The seven contiguous, kernel-dtyped trace arrays for one interval."""
    return (np.ascontiguousarray(trace.op, dtype=np.int64),
            np.ascontiguousarray(trace.src1_dist, dtype=np.int64),
            np.ascontiguousarray(trace.src2_dist, dtype=np.int64),
            np.ascontiguousarray(trace.address, dtype=np.int64),
            np.ascontiguousarray(trace.pc, dtype=np.int64),
            np.ascontiguousarray(trace.taken, dtype=np.uint8),
            np.ascontiguousarray(trace.ace, dtype=np.uint8))


# ----------------------------------------------------------------------
# Batched stepping: a leading config axis B over every state array
# ----------------------------------------------------------------------

# Column layout of the per-core length matrix ``lens`` passed to the
# batch loop — per-core structure sizes differ across configs, so
# stacked arrays are padded to the group maximum and every kernel call
# slices each row back to its true extent (:func:`step_interval`
# derives geometry from slice lengths, e.g. TLB entry counts from
# ``itlb_pages.shape[0]``).
LEN_IL1 = 0
LEN_DL1 = 1
LEN_L2 = 2
LEN_BTB = 3
LEN_ITLB = 4
LEN_DTLB = 5
LEN_GSHARE = 6
LEN_ROB = 7
LEN_IQ = 8
LEN_MISS = 9
N_LEN = 10


#: Lazily-resolved compiled batch stepper (``None`` = not attempted,
#: ``False`` = numba unavailable, else the prange dispatcher).
_BATCH_STEP = None


def compiled_batch_step():
    """The njit-compiled ``prange`` batch stepper (``False`` if no numba)."""
    global _BATCH_STEP
    if _BATCH_STEP is None:
        try:
            from repro.uarch import _pipeline_batch_numba

            _BATCH_STEP = _pipeline_batch_numba.step_batch
        except Exception:
            _BATCH_STEP = False
    return _BATCH_STEP


#: Stacked per-core state fields: (attribute, lens column).  Tag/page
#: arrays pad with -1 (an always-empty way) purely for debuggability —
#: padding is unreachable either way, since every kernel call slices
#: each row to its ``lens`` extent first.
_BATCH_FIELDS = (
    ("il1_tags", LEN_IL1, -1), ("il1_stamps", LEN_IL1, 0),
    ("dl1_tags", LEN_DL1, -1), ("dl1_stamps", LEN_DL1, 0),
    ("l2_tags", LEN_L2, -1), ("l2_stamps", LEN_L2, 0),
    ("btb_tags", LEN_BTB, -1), ("btb_stamps", LEN_BTB, 0),
    ("itlb_pages", LEN_ITLB, -1), ("itlb_stamps", LEN_ITLB, 0),
    ("dtlb_pages", LEN_DTLB, -1), ("dtlb_stamps", LEN_DTLB, 0),
    ("gshare_counters", LEN_GSHARE, 0),
    ("rob_local", LEN_ROB, 0), ("rob_op", LEN_ROB, 0),
    ("rob_ace", LEN_ROB, 0), ("rob_ismem", LEN_ROB, 0),
    ("rob_issued", LEN_ROB, 0), ("rob_ready", LEN_ROB, 0),
    ("rob_misp", LEN_ROB, 0),
    ("iq_slots", LEN_IQ, 0), ("miss_until", LEN_MISS, 0),
    ("sc", None, 0), ("fc", None, 0), ("cfg_i", None, 0),
    ("cfg_f", None, 0),
)


class BatchKernelState:
    """Stacked ``(B, width)`` state for a group of per-core states.

    Construction *adopts* the member :class:`KernelState` objects:
    every per-core array is copied into a row prefix of one stacked
    matrix, and the member's attribute is rebound to that row-prefix
    **view**.  From then on a member and the batch share memory — a
    member core can export :meth:`KernelState.export_structures` for a
    checkpoint or round-trip a snapshot and sees what the batch stepped
    (this is how per-core checkpoint slices stay in the unchanged
    ckpt/v2 format).  Padding beyond a row's true extent is never read:
    ``lens`` records each core's structure sizes and the batch loop
    slices rows back to them.
    """

    def __init__(self, states):
        self.states = list(states)
        if not self.states:
            raise SimulationError("batch of zero kernel states")
        n_cores = len(self.states)
        lens = np.zeros((n_cores, N_LEN), dtype=np.int64)
        for b, state in enumerate(self.states):
            lens[b, LEN_IL1] = state.il1_tags.shape[0]
            lens[b, LEN_DL1] = state.dl1_tags.shape[0]
            lens[b, LEN_L2] = state.l2_tags.shape[0]
            lens[b, LEN_BTB] = state.btb_tags.shape[0]
            lens[b, LEN_ITLB] = state.itlb_pages.shape[0]
            lens[b, LEN_DTLB] = state.dtlb_pages.shape[0]
            lens[b, LEN_GSHARE] = state.gshare_counters.shape[0]
            lens[b, LEN_ROB] = state.rob_local.shape[0]
            lens[b, LEN_IQ] = state.iq_slots.shape[0]
            lens[b, LEN_MISS] = state.miss_until.shape[0]
        self.lens = lens
        for attr, _, pad in _BATCH_FIELDS:
            rows = [getattr(state, attr) for state in self.states]
            width = max(row.shape[0] for row in rows)
            stacked = np.full((n_cores, width), pad, dtype=rows[0].dtype)
            for b, row in enumerate(rows):
                stacked[b, :row.shape[0]] = row
                setattr(self.states[b], attr, stacked[b, :row.shape[0]])
            setattr(self, attr, stacked)


def run_interval_on_batch(cores, batch: BatchKernelState, trace, active):
    """Advance every active core one interval in one compiled call.

    Per-core interval scalars are loaded into the packed state, the
    whole group steps through one ``prange`` call of the compiled batch
    loop, and the scalars are stored back.  ``active`` is a ``(B,)``
    uint8 mask; inactive rows are untouched.  Returns one
    :class:`~repro.uarch.pipeline.IntervalStats` per core (``None``
    where inactive), the same statistics the interpreter produces.
    """
    from repro.uarch.jit import apply_jit_threads
    from repro.uarch.pipeline import _MAX_CPI, COUNTER_KEYS, IntervalStats

    step = compiled_batch_step()
    if not step:
        raise SimulationError("the compiled batch stepper needs numba")
    apply_jit_threads()
    states = batch.states
    for b, core in enumerate(cores):
        if active[b]:
            load_interval_scalars(core, states[b])

    t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace = pack_trace(trace)
    n_cores = len(cores)
    out_counters = np.zeros((n_cores, N_CTR), dtype=np.float64)
    out_ace = np.zeros((n_cores, N_ACE), dtype=np.float64)
    out_ints = np.zeros((n_cores, N_OI), dtype=np.int64)
    start_cycles = batch.sc[:, SC_CYCLE].copy()
    step(t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
         active, batch.lens, batch.cfg_i, batch.cfg_f,
         batch.il1_tags, batch.il1_stamps, batch.dl1_tags, batch.dl1_stamps,
         batch.l2_tags, batch.l2_stamps, batch.btb_tags, batch.btb_stamps,
         batch.itlb_pages, batch.itlb_stamps,
         batch.dtlb_pages, batch.dtlb_stamps,
         batch.gshare_counters,
         batch.rob_local, batch.rob_op, batch.rob_ace, batch.rob_ismem,
         batch.rob_issued, batch.rob_ready, batch.rob_misp, batch.iq_slots,
         batch.miss_until, batch.sc, batch.fc,
         out_counters, out_ace, out_ints)

    n = len(trace)
    results = []
    for b, core in enumerate(cores):
        if not active[b]:
            results.append(None)
            continue
        if out_ints[b, OI_STATUS] != 0:
            raise SimulationError(
                f"interval exceeded {_MAX_CPI} CPI — model deadlock"
            )
        store_interval_scalars(core, states[b], n)
        stats = IntervalStats(instructions=n)
        stats.cycles = int(batch.sc[b, SC_CYCLE] - start_cycles[b])
        stats.branch_mispredicts = int(out_ints[b, OI_MISPREDICTS])
        stats.dvm_throttled_cycles = int(out_ints[b, OI_THROTTLED])
        stats.counters = {key: float(out_counters[b, index])
                          for index, key in enumerate(COUNTER_KEYS)}
        stats.ace_bit_cycles = {"iq": float(out_ace[b, ACE_IQ]),
                                "rob": float(out_ace[b, ACE_ROB]),
                                "lsq": float(out_ace[b, ACE_LSQ]),
                                "regfile": float(out_ace[b, ACE_REGFILE])}
        results.append(stats)
    return results
