"""Statistical instruction-trace synthesis.

Turns a :class:`~repro.workloads.phases.WorkloadModel` into a concrete
:class:`~repro.uarch.trace.InstructionTrace` for the detailed simulator —
the classic *statistical simulation* methodology (Eeckhout et al.): the
synthetic stream matches the model's per-phase instruction mix,
dependence-distance distribution (ILP), branch bias mixture and
footprint-based memory reuse, so the detailed pipeline manifests the
same phase-by-phase behaviour the interval model computes analytically.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro import settings
from repro._validation import rng_from_seed, stable_hash
from repro.errors import WorkloadError
from repro.uarch.trace import InstructionTrace, OpClass
from repro.workloads.phases import WorkloadModel

#: Bytes of address space given to each footprint component per phase.
_LINE_BYTES = 64
_PAGE_BYTES = 4096

#: LRU memo of synthesized intervals, keyed by workload *content* plus
#: the full synthesis arguments.  Synthesis is sequential (the RNG draws
#: are data-dependent), so repeated detailed runs of the same benchmark
#: — a fresh-vs-resumed comparison, an interpreter-vs-JIT benchmark, or
#: a grouped engine dispatch — would otherwise re-pay it per run.  A
#: 400-instruction interval is a few KB of arrays, so the default cap is
#: generous without being unbounded.  Set ``REPRO_TRACE_MEMO=0`` to
#: disable.  Memoized traces are frozen read-only: callers share them.
_TRACE_MEMO_CAP = 512
_TRACE_MEMO: "OrderedDict[tuple, InstructionTrace]" = OrderedDict()


def _memo_enabled() -> bool:
    return settings.get("trace_memo")


def clear_trace_memo() -> None:
    """Drop all memoized intervals (mainly for tests)."""
    _TRACE_MEMO.clear()


def _workload_token(workload: WorkloadModel) -> str:
    """Content digest of everything synthesis reads from the workload.

    Cached on the (frozen) workload instance; ``noise`` and
    ``description`` are excluded because they do not influence the
    synthesized stream.
    """
    token = getattr(workload, "_content_token", None)
    if token is None:
        digest = hashlib.sha256()
        digest.update(workload.name.encode("utf8"))
        digest.update(repr(workload.phases).encode("utf8"))
        digest.update(np.ascontiguousarray(workload.schedule).tobytes())
        token = digest.hexdigest()
        object.__setattr__(workload, "_content_token", token)
    return token


def _dependence_distances(n: int, mean_distance: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Geometric dependence distances with the given mean (>= 1)."""
    p = min(1.0 / max(mean_distance, 1.0), 1.0)
    return rng.geometric(p, size=n).astype(np.int64)


def synthesize_interval(workload: WorkloadModel, sample_index: int,
                        n_samples: int, n_instructions: int,
                        seed: Optional[int] = None) -> InstructionTrace:
    """Synthesize the instruction stream of one trace interval.

    The interval's statistics come from the workload's phase weights at
    ``sample_index`` (of ``n_samples``); the stream is deterministic
    given (workload, interval, length).
    """
    if n_instructions < 1:
        raise WorkloadError(f"n_instructions must be >= 1, got {n_instructions}")
    if seed is None:
        seed = stable_hash(workload.name, sample_index, n_samples, n_instructions)
    memo_key = None
    if _memo_enabled():
        memo_key = (_workload_token(workload), sample_index, n_samples,
                    n_instructions, seed)
        cached = _TRACE_MEMO.get(memo_key)
        if cached is not None:
            _TRACE_MEMO.move_to_end(memo_key)
            return cached
    rng = rng_from_seed(seed)

    weights = workload.phase_weights(n_samples)[sample_index]
    # Per-instruction phase assignment follows the interval's occupancy.
    phase_ids = rng.choice(workload.n_phases, size=n_instructions, p=weights)

    f_load = workload.phase_vector("f_load")[phase_ids]
    f_store = workload.phase_vector("f_store")[phase_ids]
    f_branch = workload.phase_vector("f_branch")[phase_ids]
    f_fp = workload.phase_vector("f_fp")[phase_ids]

    u = rng.uniform(size=n_instructions)
    op = np.full(n_instructions, int(OpClass.INT_ALU), dtype=np.int8)
    op[u < f_load] = int(OpClass.LOAD)
    mask = (u >= f_load) & (u < f_load + f_store)
    op[mask] = int(OpClass.STORE)
    mask = (u >= f_load + f_store) & (u < f_load + f_store + f_branch)
    op[mask] = int(OpClass.BRANCH)
    mask = ((u >= f_load + f_store + f_branch)
            & (u < f_load + f_store + f_branch + f_fp))
    op[mask] = int(OpClass.FP_ALU)

    # Dependence distances: ILP maps to how far away producers sit.  A
    # phase with high inherent ILP draws long distances (independent
    # work nearby); serial phases draw short ones.
    ilp = workload.phase_vector("ilp_limit")[phase_ids]
    mean_dist = np.maximum(ilp * 2.0, 1.2)
    src1 = np.minimum(_dependence_distances(n_instructions, float(mean_dist.mean()), rng),
                      512)
    src2 = np.minimum(_dependence_distances(n_instructions, float(mean_dist.mean()) * 2.0,
                                            rng), 512)
    # Roughly a third of instructions are single-source.
    src2[rng.uniform(size=n_instructions) < 0.33] = 0

    # Memory addresses: pick a footprint component per access (by its
    # weight), then a line within it with *log-uniform popularity* —
    # P(line <= x) = ln(x)/ln(N) — so a cache holding C of the N lines
    # hits roughly a ln(C)/ln(N) share of references.  This gives the
    # smooth log-capacity miss curves the interval model assumes, with
    # O(1) generation (an independent-reference Zipf-like stream).  The
    # remainder of accesses hits a tiny hot region (stack/globals).
    fp_log2, fp_w = workload.footprint_components()
    # The loops below draw one scalar at a time (the draws are
    # sequential), so they read plain-list views and bound methods
    # instead of boxing a NumPy scalar per element access.
    # ``rng.random()`` returns the value ``rng.uniform()`` would
    # (``0.0 + 1.0 * x`` is ``x``) without its argument handling.
    draw = rng.random
    integers = rng.integers
    phase_list = phase_ids.tolist()
    fp_log2_rows = fp_log2.tolist()
    fp_w_rows = fp_w.tolist()
    address = [0] * n_instructions
    is_mem = (op == OpClass.LOAD) | (op == OpClass.STORE)
    for i in np.flatnonzero(is_mem).tolist():
        ph = phase_list[i]
        r = draw()
        acc = 0.0
        chosen = -1
        for k, weight in enumerate(fp_w_rows[ph]):
            acc += weight
            if r < acc:
                chosen = k
                break
        if chosen < 0:
            # Hot region: 4 KB of stack/global data.
            base = 0x1000_0000
            n_lines = 4096 // _LINE_BYTES
            line = int(integers(n_lines))
        else:
            log2_kb = fp_log2_rows[ph][chosen]
            base = 0x4000_0000 + (int(log2_kb * 8) << 24) + (ph << 20)
            n_lines = max(int(2 ** log2_kb * 1024) // _LINE_BYTES, 1)
            line = int(n_lines ** draw()) - 1
        address[i] = base + line * _LINE_BYTES
    address = np.array(address, dtype=np.int64)

    # Instruction addresses: sequential runs with phase-dependent spans;
    # the run length sets IL1 locality.
    inst_fp = workload.phase_vector("inst_footprint_log2kb")[phase_ids]
    pc = []
    current = 0x0040_0000
    for log2_kb in inst_fp.tolist():
        if draw() < 0.06:  # jump somewhere in the code footprint
            span = int(2 ** log2_kb * 1024)
            current = 0x0040_0000 + (int(integers(max(span // 4, 1))) * 4)
        else:
            current += 4
        pc.append(current)
    pc = np.array(pc, dtype=np.int64)

    # Branch outcomes: a mixture of strongly-biased sites (predictable)
    # and weakly-biased sites whose share is set by the phase's intrinsic
    # misprediction rate under the Table 1 gshare.
    taken = [False] * n_instructions
    mispredict = workload.phase_vector("branch_mispredict")[phase_ids].tolist()
    for i in np.flatnonzero(op == OpClass.BRANCH).tolist():
        # A weakly-biased branch (p ~ 0.5) mispredicts ~50% of the time;
        # mixing fraction 2*m of such branches yields ~m overall.
        if draw() < 2.0 * mispredict[i]:
            taken[i] = draw() < 0.5
        else:
            taken[i] = draw() < 0.95
    taken = np.array(taken, dtype=bool)

    ace_frac = workload.phase_vector("ace_fraction")[phase_ids]
    ace = rng.uniform(size=n_instructions) < ace_frac

    trace = InstructionTrace(op=op, src1_dist=src1, src2_dist=src2,
                             address=address, pc=pc, taken=taken, ace=ace)
    if memo_key is not None:
        # Shared between callers: freeze so accidental in-place writes
        # fail loudly instead of corrupting every later resident reuse.
        for arr in (op, src1, src2, address, pc, taken, ace):
            arr.setflags(write=False)
        _TRACE_MEMO[memo_key] = trace
        if len(_TRACE_MEMO) > _TRACE_MEMO_CAP:
            _TRACE_MEMO.popitem(last=False)
    return trace


def synthesize_trace(workload: WorkloadModel, n_samples: int,
                     instructions_per_sample: int,
                     seed: Optional[int] = None) -> InstructionTrace:
    """Synthesize a full multi-interval trace (concatenated intervals)."""
    parts = [
        synthesize_interval(workload, i, n_samples, instructions_per_sample,
                            seed=None if seed is None else seed + i)
        for i in range(n_samples)
    ]
    return InstructionTrace(
        op=np.concatenate([p.op for p in parts]),
        src1_dist=np.concatenate([p.src1_dist for p in parts]),
        src2_dist=np.concatenate([p.src2_dist for p in parts]),
        address=np.concatenate([p.address for p in parts]),
        pc=np.concatenate([p.pc for p in parts]),
        taken=np.concatenate([p.taken for p in parts]),
        ace=np.concatenate([p.ace for p in parts]),
    )
