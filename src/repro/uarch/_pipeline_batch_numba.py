"""The numba-compiled ``prange`` batch loop of the detailed kernel.

Importing this module requires numba: it compiles the scalar
:func:`~repro.uarch.pipeline_kernel.step_interval` into a module-level
dispatcher and then compiles a ``prange`` loop over the config axis
that calls it.  Both live at module scope on purpose — numba resolves
globals of the enclosing module at compile time, which is the one
reliable way to call one jitted function from another parallel one
(closures over dispatchers are not).

``step_batch`` is reached only through
:func:`repro.uarch.pipeline_kernel.compiled_batch_step`, which treats
any import failure here (numba absent, compilation error) as "no
compiled batch stepper"; the detailed interval loop then runs the
interpreter.  The ``active`` test below has no ``continue`` (parfors
dislike it).  Rows are fully independent (each iteration touches only
row ``b`` plus the shared read-only trace, and ``step_interval``
allocates its scratch per call, i.e. thread-locally), so the prange
schedule cannot affect results: output is bit-identical at any thread
count.
"""

from __future__ import annotations

from numba import prange  # noqa: F401  (resolved inside the jitted loop)

from repro.uarch import pipeline_kernel as _pk
from repro.uarch.jit import compile_njit

#: Compiled per-core stepper the batch loop calls for each active row.
_step = compile_njit(_pk.step_interval)
if not _step:
    raise ImportError("numba unavailable: no compiled batch stepper")

LEN_IL1 = _pk.LEN_IL1
LEN_DL1 = _pk.LEN_DL1
LEN_L2 = _pk.LEN_L2
LEN_BTB = _pk.LEN_BTB
LEN_ITLB = _pk.LEN_ITLB
LEN_DTLB = _pk.LEN_DTLB
LEN_GSHARE = _pk.LEN_GSHARE
LEN_ROB = _pk.LEN_ROB
LEN_IQ = _pk.LEN_IQ
LEN_MISS = _pk.LEN_MISS


def _batch_loop(t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
                active, lens, cfg_i, cfg_f,
                il1_tags, il1_stamps, dl1_tags, dl1_stamps,
                l2_tags, l2_stamps, btb_tags, btb_stamps,
                itlb_pages, itlb_stamps, dtlb_pages, dtlb_stamps,
                gshare_counters,
                rob_local, rob_op, rob_ace, rob_ismem, rob_issued,
                rob_ready, rob_misp, iq_slots, miss_until,
                sc, fc, out_counters, out_ace, out_ints):
    for b in prange(active.shape[0]):
        if active[b] == 1:
            _step(
                t_op, t_src1, t_src2, t_addr, t_pc, t_taken, t_ace,
                cfg_i[b], cfg_f[b],
                il1_tags[b, :lens[b, LEN_IL1]],
                il1_stamps[b, :lens[b, LEN_IL1]],
                dl1_tags[b, :lens[b, LEN_DL1]],
                dl1_stamps[b, :lens[b, LEN_DL1]],
                l2_tags[b, :lens[b, LEN_L2]],
                l2_stamps[b, :lens[b, LEN_L2]],
                btb_tags[b, :lens[b, LEN_BTB]],
                btb_stamps[b, :lens[b, LEN_BTB]],
                itlb_pages[b, :lens[b, LEN_ITLB]],
                itlb_stamps[b, :lens[b, LEN_ITLB]],
                dtlb_pages[b, :lens[b, LEN_DTLB]],
                dtlb_stamps[b, :lens[b, LEN_DTLB]],
                gshare_counters[b, :lens[b, LEN_GSHARE]],
                rob_local[b, :lens[b, LEN_ROB]],
                rob_op[b, :lens[b, LEN_ROB]],
                rob_ace[b, :lens[b, LEN_ROB]],
                rob_ismem[b, :lens[b, LEN_ROB]],
                rob_issued[b, :lens[b, LEN_ROB]],
                rob_ready[b, :lens[b, LEN_ROB]],
                rob_misp[b, :lens[b, LEN_ROB]],
                iq_slots[b, :lens[b, LEN_IQ]],
                miss_until[b, :lens[b, LEN_MISS]],
                sc[b], fc[b], out_counters[b], out_ace[b], out_ints[b])


step_batch = compile_njit(_batch_loop, parallel=True)
if not step_batch:
    raise ImportError("numba unavailable: batch loop did not compile")
