"""Synthetic instruction traces for the detailed simulator.

A trace is a struct-of-arrays container: per-instruction opcode class,
register dependence distances, memory address, branch outcome and
ACE flag.  Struct-of-arrays keeps generation vectorizable and the
pipeline's per-instruction reads cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.errors import WorkloadError


class OpClass(IntEnum):
    """Instruction classes distinguished by the pipeline."""

    INT_ALU = 0
    FP_ALU = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4


#: Execution latency (cycles) per op class, excluding memory time.
EXEC_LATENCY = {
    OpClass.INT_ALU: 1,
    OpClass.FP_ALU: 4,
    OpClass.LOAD: 0,     # memory latency added by the cache hierarchy
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
}


@dataclass
class InstructionTrace:
    """Struct-of-arrays instruction stream.

    Attributes
    ----------
    op:
        ``int8`` opcode class per instruction (:class:`OpClass` values).
    src1_dist, src2_dist:
        Register dependence distances: instruction ``i`` reads the
        results of instructions ``i - src1_dist[i]`` and
        ``i - src2_dist[i]`` (0 means no dependence on an in-flight
        producer).
    address:
        Byte address for loads/stores (0 otherwise).
    pc:
        Instruction address (drives IL1 and branch predictor indexing).
    taken:
        Branch outcome (False for non-branches).
    ace:
        Whether the instruction carries ACE state (its corruption would
        change the program output).
    """

    op: np.ndarray
    src1_dist: np.ndarray
    src2_dist: np.ndarray
    address: np.ndarray
    pc: np.ndarray
    taken: np.ndarray
    ace: np.ndarray

    def __post_init__(self):
        n = self.op.size
        for field_name in ("src1_dist", "src2_dist", "address", "pc",
                           "taken", "ace"):
            arr = getattr(self, field_name)
            if arr.size != n:
                raise WorkloadError(
                    f"trace field {field_name} has {arr.size} entries, "
                    f"expected {n}"
                )

    def __len__(self) -> int:
        return int(self.op.size)

    def slice(self, start: int, stop: int) -> "InstructionTrace":
        """A view-based sub-trace covering ``[start, stop)``."""
        if not 0 <= start <= stop <= len(self):
            raise WorkloadError(
                f"invalid slice [{start}, {stop}) for trace of length {len(self)}"
            )
        return InstructionTrace(
            op=self.op[start:stop],
            src1_dist=self.src1_dist[start:stop],
            src2_dist=self.src2_dist[start:stop],
            address=self.address[start:stop],
            pc=self.pc[start:stop],
            taken=self.taken[start:stop],
            ace=self.ace[start:stop],
        )

    def mix_fractions(self) -> dict:
        """Observed dynamic instruction-mix fractions (all 0.0 for an
        empty trace)."""
        n = max(len(self), 1)
        return {
            "f_load": int(np.count_nonzero(self.op == OpClass.LOAD)) / n,
            "f_store": int(np.count_nonzero(self.op == OpClass.STORE)) / n,
            "f_branch": int(np.count_nonzero(self.op == OpClass.BRANCH)) / n,
            "f_fp": int(np.count_nonzero(self.op == OpClass.FP_ALU)) / n,
        }
