"""Output correctness: sha256 digests of what each operation produced.

A repetition's outputs are split into *operations* (a benchmark's
sweep, one fit-and-predict, one search, one detailed job ...).  Each
carries a digest and a count of the work it stands for.  An operation
fails when its own invariant does not hold, when its digest differs
from the one stored with the benchmark for that seed, or when it
differs from the same operation in the run's first repetition.

Simulation traces are digested bit for bit (the program pins them bit
for bit in its own tests).  Outputs that pass through BLAS (predictor
fits and everything downstream) are digested after rounding the
mantissa to 16 bits, so the last-bit differences between BLAS kernels
of different CPUs do not read as a change in behaviour.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Operation:
    name: str
    count: int
    digest: Optional[str]
    ok: bool = True
    #: The same for every seed (stored once, under "*").
    shared: bool = False


def digest_of(*parts) -> str:
    """sha256 over arrays (dtype, shape, bytes), strings and numbers."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(array.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def quantized(values, bits: int = 16) -> np.ndarray:
    """Mantissa rounded to ``bits`` bits, stacked with the exponent."""
    mantissa, exponent = np.frexp(np.asarray(values, dtype=float))
    return np.stack([np.round(mantissa * 2.0 ** bits),
                     exponent.astype(float)])


def load_digests() -> Dict[str, Dict]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def expected_digests(stored: Dict[str, Dict], seed: int) -> Dict[str, str]:
    """Stored digests that apply to ``seed`` (shared ones included)."""
    expected = dict(stored.get("*", {}))
    expected.update(stored.get(str(seed), {}))
    return expected


def verify(ops: Sequence[Operation], *expectations: Dict[str, str],
           ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, names of failed operations)``.

    Each of ``expectations`` maps operation names to the digest they
    must have; an operation missing from one is not checked against it.
    """
    attempted = failed = 0
    bad: List[str] = []
    for op in ops:
        attempted += op.count
        wanted = [e[op.name] for e in expectations if op.name in e]
        if not op.ok or op.digest is None or any(
                w != op.digest for w in wanted):
            failed += op.count
            bad.append(op.name)
    return attempted, failed, bad


def split_for_storage(ops: Sequence[Operation]) -> Tuple[Dict, Dict]:
    """``(shared digests, seed-specific digests)`` of one repetition."""
    shared = {op.name: op.digest for op in ops if op.shared}
    own = {op.name: op.digest for op in ops if not op.shared}
    return shared, own
