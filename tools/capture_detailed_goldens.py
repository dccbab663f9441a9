"""Capture golden sha256 digests of detailed-backend runs and of trace
synthesis.

Run this against a known-good revision to (re)generate the two digest
tables: the detailed-run table pinned in
``tests/test_detailed_kernel.py`` and the synthesis table pinned in
``tests/test_generator.py``.  The run digests cover every stream a
detailed run emits (traces + components) so any behavioural drift in
the pipeline, caches, branch predictor or DVM controller is caught
bit-for-bit; the synthesis digests cover every field (values and
dtype) of every synthesized interval, so drift in
``synthesize_interval`` is caught before it reaches a run.

Usage: ``PYTHONPATH=src python tools/capture_detailed_goldens.py``
prints both tables as one JSON object.
"""

import hashlib
import json
import sys

import numpy as np

from repro.uarch.detailed import DetailedSimulator
from repro.uarch.params import MachineConfig, baseline_config
from repro.workloads.generator import synthesize_interval
from repro.workloads.spec2000 import BENCHMARK_NAMES, get_benchmark

STREAMS = ("cpi", "power", "avf", "iq_avf", "mispredict_rate",
           "dvm_throttled_frac")

#: The seven fields of an ``InstructionTrace``, in digest order.
TRACE_FIELDS = ("op", "src1_dist", "src2_dist", "address", "pc", "taken",
                "ace")

#: ``(n_samples, instructions_per_sample)`` shapes the synthesis table
#: covers: the perfbench detailed shape, the detailed goldens' shape,
#: and a tiny one.
SYNTHESIS_SHAPES = ((32, 1000), (16, 400), (8, 3))


def digest(result) -> str:
    parts = []
    for name in STREAMS:
        arr = result.traces.get(name)
        if arr is None:
            arr = result.components[name]
        parts.append(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


def synthesis_digest(workload, n_samples, ips) -> str:
    """sha256 over every interval of one shape, then the ``seed=1``
    warm-up interval a detailed run synthesizes first; each field is
    hashed with its name and dtype."""
    h = hashlib.sha256()
    traces = [synthesize_interval(workload, i, n_samples, ips)
              for i in range(n_samples)]
    traces.append(synthesize_interval(workload, 0, n_samples, ips, seed=1))
    for trace in traces:
        for name in TRACE_FIELDS:
            arr = np.ascontiguousarray(getattr(trace, name))
            h.update(f"{name}:{arr.dtype.str}:".encode("ascii"))
            h.update(arr.tobytes())
    return h.hexdigest()


def synthesis_table():
    return {bench: {f"{n}x{ips}": synthesis_digest(get_benchmark(bench),
                                                   n, ips)
                    for n, ips in SYNTHESIS_SHAPES}
            for bench in BENCHMARK_NAMES}


def golden_cases():
    weak = MachineConfig(fetch_width=2, rob_size=96, iq_size=32,
                         lsq_size=16, l2_size_kb=256, l2_latency=20,
                         il1_size_kb=8, dl1_size_kb=8, dl1_latency=4)
    strong = MachineConfig(fetch_width=16, rob_size=160, iq_size=128,
                           lsq_size=64, l2_size_kb=4096, l2_latency=8,
                           il1_size_kb=64, dl1_size_kb=64, dl1_latency=1)
    return [
        ("gcc-baseline", "gcc", baseline_config()),
        ("mcf-weak", "mcf", weak),
        ("swim-strong", "swim", strong),
        ("mcf-dvm-tight", "mcf", baseline_config().with_dvm(True, 0.05)),
        ("gcc-dvm", "gcc", baseline_config().with_dvm(True, 0.3)),
    ]


def main():
    n_samples, ips = 8, 400
    table = {}
    for label, bench, config in golden_cases():
        result = DetailedSimulator(config).run(
            bench, n_samples=n_samples, instructions_per_sample=ips)
        table[label] = digest(result)
        sys.stderr.write(f"{label}: {table[label]}\n")
    json.dump({"n_samples": n_samples, "instructions_per_sample": ips,
               "digests": table, "synthesis_digests": synthesis_table()},
              sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
