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
from bisect import bisect_right
from collections import OrderedDict
from itertools import accumulate
from typing import Optional

import numpy as np

from repro import settings
from repro._validation import stable_hash
from repro.errors import WorkloadError
from repro.uarch.trace import InstructionTrace, OpClass
from repro.workloads.phases import WorkloadModel

#: Cache-line size: data addresses are line-aligned.
_LINE_BYTES = 64
#: Base and size of the hot region (stack/globals), and the code base.
_HOT_BASE = 0x1000_0000
_HOT_BYTES = 4096
_CODE_BASE = 0x0040_0000

#: A double is the top 53 bits of a raw output times 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFF_FFFF
#: Raw outputs drawn when a scalar read runs off the block.
_REFILL = 64

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


def _as_doubles(raw: np.ndarray) -> np.ndarray:
    return (raw >> 11) * _DOUBLE_SCALE


class RawStream:
    """Replays a PCG64 generator's scalar draws from blocks of its raw
    64-bit output.

    ``random()``, ``integers(n)`` and ``doubles(k)`` return, in any
    interleaving, exactly what ``rng.random()``, ``rng.integers(n)`` and
    ``rng.random(k)`` would have returned from the generator's state when
    the stream was made:

    * a double is the top 53 bits of one raw output times 2**-53;
    * ``integers(n)`` is NumPy's Lemire method: for ``n <= 2**32`` on
      32-bit words, each taken from the low half of a fresh raw output
      or, failing that, the high half carried over from the last one
      (PCG64's ``has_uint32`` / ``uinteger``); for larger ``n`` on whole
      outputs.  ``integers(1)`` draws nothing.

    The first block holds ``size`` outputs (a sizing hint only); reads
    past it draw more.  The wrapped generator's own state is left
    wherever the blocks took it: use the stream, not the generator,
    from then on.
    """

    __slots__ = ("_bitgen", "_block", "_raw", "_doubles", "_carry", "_pos")

    def __init__(self, rng: np.random.Generator, size: int):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise WorkloadError(
                f"RawStream replays PCG64 only, got {type(bitgen).__name__}")
        state = bitgen.state
        self._bitgen = bitgen
        self._carry = state["uinteger"] if state["has_uint32"] else None
        self._block = bitgen.random_raw(size)
        self._raw = self._block.tolist()
        self._doubles = _as_doubles(self._block).tolist()
        self._pos = 0  # raw outputs consumed so far

    def _refill(self, k: int = _REFILL) -> None:
        """Draw ``k`` more raw outputs onto the block."""
        more = self._bitgen.random_raw(k)
        self._block = np.concatenate([self._block, more])
        self._raw += more.tolist()
        self._doubles += _as_doubles(more).tolist()

    def _next_raw(self) -> int:
        pos = self._pos
        self._pos = pos + 1
        try:
            return self._raw[pos]
        except IndexError:
            self._refill()
            return self._raw[pos]

    def _next32(self) -> int:
        carry = self._carry
        if carry is not None:
            self._carry = None
            return carry
        word = self._next_raw()
        self._carry = word >> 32
        return word & _LOW32

    def random(self) -> float:
        """``Generator.random()``."""
        pos = self._pos
        self._pos = pos + 1
        try:
            return self._doubles[pos]
        except IndexError:
            self._refill()
            return self._doubles[pos]

    def doubles(self, k: int) -> np.ndarray:
        """``Generator.random(k)``, as one array."""
        pos = self._pos
        short = pos + k - len(self._raw)
        if short > 0:
            self._refill(short)
        self._pos = pos + k
        return _as_doubles(self._block[pos:pos + k])

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: uniform on ``[0, n)``, ``n >= 1``."""
        if n == 1:
            return 0
        if n > 1 << 32:
            return _lemire(self._next_raw() * n, n, 64, self._next_raw)
        # ``_next32`` inlined: synthesis draws hundreds of these per
        # interval, and all but a few keep the first word.
        carry = self._carry
        if carry is None:
            word = self._next_raw()
            self._carry = word >> 32
            m = (word & _LOW32) * n
        else:
            self._carry = None
            m = carry * n
        if (m & _LOW32) < n:
            return _lemire(m, n, 32, self._next32)
        return m >> 32


def _lemire(m: int, n: int, bits: int, draw) -> int:
    """Lemire's bounded draw on ``bits``-bit words, as NumPy does it:
    ``m`` is the first word times ``n``; while its low ``bits`` fall
    under the threshold ``2**bits % n``, redraw a word from ``draw``.
    The result is the high part of the kept product."""
    mask = (1 << bits) - 1
    if (m & mask) < n:
        threshold = (1 << bits) % n
        while (m & mask) < threshold:
            m = draw() * n
    return m >> bits


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
    given (workload, interval, length) and ``seed``, which is ``None``
    (derived from those) or a non-negative integer.
    """
    if n_instructions < 1:
        raise WorkloadError(f"n_instructions must be >= 1, got {n_instructions}")
    if seed is None:
        seed = stable_hash(workload.name, sample_index, n_samples, n_instructions)
    elif (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
          and seed >= 0):
        seed = int(seed)
    else:
        raise WorkloadError(
            f"seed must be None or a non-negative integer, got {seed!r}")
    memo_key = None
    if _memo_enabled():
        memo_key = (_workload_token(workload), sample_index, n_samples,
                    n_instructions, seed)
        cached = _TRACE_MEMO.get(memo_key)
        if cached is not None:
            _TRACE_MEMO.move_to_end(memo_key)
            return cached
    rng = np.random.default_rng(seed)

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

    # The rest draws through a RawStream over one block of the
    # generator's raw output, read exactly as ``rng.random()`` /
    # ``rng.integers(n)`` would be.  The address and PC loops read it one
    # value at a time, because how many values they take depends on the
    # values they draw; the branch and ace draws, which come last, read
    # it as arrays.  A shortfall of the block (a Lemire rejection, a run
    # of jumps) extends it.
    fp_log2, fp_w = workload.footprint_components()
    phase_list = phase_ids.tolist()
    mem_idx = np.flatnonzero((op == OpClass.LOAD) | (op == OpClass.STORE))
    branch_idx = np.flatnonzero(op == OpClass.BRANCH)
    # Expected draws: two per memory access (component, then line or hot
    # word), one per instruction for its PC plus a word per jump (6%,
    # rounded up to 1/16), two per branch, one per instruction for ace.
    stream = RawStream(rng, 2 * (mem_idx.size + branch_idx.size
                                 + n_instructions) + n_instructions // 16)
    draw = stream.random
    integers = stream.integers

    # Memory addresses: pick a footprint component per access (by its
    # weight), then a line within it with *log-uniform popularity* —
    # P(line <= x) = ln(x)/ln(N) — so a cache holding C of the N lines
    # hits roughly a ln(C)/ln(N) share of references.  This gives the
    # smooth log-capacity miss curves the interval model assumes, with
    # O(1) generation (an independent-reference Zipf-like stream).  The
    # remainder of accesses hits a tiny hot region (stack/globals).
    # The component is the first whose running weight (summed in order,
    # as floats) exceeds the draw: a bisect over per-phase cumulative
    # weights.  Past the last one lies the hot region.
    cum_w = [list(accumulate(row)) for row in fp_w.tolist()]
    n_components = fp_w.shape[1]
    bases = []
    lines = []
    for ph, row in enumerate(fp_log2.tolist()):
        bases.append([0x4000_0000 + (int(log2_kb * 8) << 24) + (ph << 20)
                      for log2_kb in row])
        lines.append([max(int(2 ** log2_kb * 1024) // _LINE_BYTES, 1)
                      for log2_kb in row])
    address = [0] * n_instructions
    for i in mem_idx.tolist():
        ph = phase_list[i]
        k = bisect_right(cum_w[ph], draw())
        if k == n_components:
            # Hot region: 4 KB of stack/global data.
            address[i] = (_HOT_BASE
                          + integers(_HOT_BYTES // _LINE_BYTES) * _LINE_BYTES)
        else:
            line = int(lines[ph][k] ** draw()) - 1
            address[i] = bases[ph][k] + line * _LINE_BYTES
    address = np.array(address, dtype=np.int64)

    # Instruction addresses: sequential runs with phase-dependent spans;
    # the run length sets IL1 locality.  A jump lands on a word of the
    # phase's code footprint.
    jump_words = [max(int(2 ** log2_kb * 1024) // 4, 1) for log2_kb in
                  workload.phase_vector("inst_footprint_log2kb").tolist()]
    pc = []
    current = _CODE_BASE
    for ph in phase_list:
        if draw() < 0.06:
            current = _CODE_BASE + integers(jump_words[ph]) * 4
        else:
            current += 4
        pc.append(current)
    pc = np.array(pc, dtype=np.int64)

    # Branch outcomes: a mixture of strongly-biased sites (predictable)
    # and weakly-biased sites whose share is set by the phase's intrinsic
    # misprediction rate under the Table 1 gshare.  A weakly-biased
    # branch (p ~ 0.5) mispredicts ~50% of the time; mixing fraction
    # 2*m of such branches yields ~m overall.  Each branch takes two
    # draws in turn: which kind of site, then the outcome.
    pairs = stream.doubles(2 * branch_idx.size).reshape(-1, 2)
    mispredict = workload.phase_vector("branch_mispredict")[phase_ids[branch_idx]]
    bias = np.where(pairs[:, 0] < 2.0 * mispredict, 0.5, 0.95)
    taken = np.zeros(n_instructions, dtype=bool)
    taken[branch_idx] = pairs[:, 1] < bias

    ace_frac = workload.phase_vector("ace_fraction")[phase_ids]
    ace = stream.doubles(n_instructions) < ace_frac

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
