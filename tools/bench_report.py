"""Collate every ``BENCH_*.json`` into one summary and gate regressions.

The benchmarks each write a small schema'd JSON record (CI artifacts);
nothing read them across PRs until now.  This tool is the first cut of
ROADMAP's perf-regression tracking: it discovers all ``BENCH_*.json``
files in a directory, re-checks each record against the same pinned
thresholds its benchmark enforces (so a stale or hand-edited record
cannot sneak past CI), writes one ``BENCH_SUMMARY.json``, and exits
non-zero when any pinned metric has regressed.

Conditional checks stay conditional: the compiled scan's bit-identity
is checked only when the record says numba ran it (``jit_available``).
Missing files are reported as skipped, not failed — every CI leg runs a
subset of the benchmarks.  Some records are read, not gated: the summary's ``info``
lines carry one reading each (the engine sweep's disk-warm ratio).

Usage::

    python tools/bench_report.py [--dir DIR] [--out BENCH_SUMMARY.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Benchmark records the report expects, by their ``bench`` field: a
#: missing one is reported.  Records without a checker are collated but
#: not checked.
KNOWN_BENCHES = (
    "kernel", "detailed_backend", "shm_transport",
    "streaming_sweep", "active_dse", "predictor_fit", "engine_sweep",
)


def _check(checks, name, ok, detail):
    checks.append({"check": name, "ok": bool(ok), "detail": detail})


def _check_kernel(record, checks):
    floor = record.get("min_speedup", 10.0)
    speedup = record.get("speedup", 0.0)
    _check(checks, "kernel.speedup", speedup >= floor,
           f"{speedup}x (floor {floor}x)")
    _check(checks, "kernel.bit_identical",
           record.get("rows_bit_identical") is True,
           "batch rows == scalar runs")
    if record.get("jit_available"):
        _check(checks, "kernel.jit_bit_identical",
               record.get("jit_bit_identical") is True,
               "JIT scan == NumPy scan")


def _check_detailed_backend(record, checks):
    _check(checks, "detailed_backend.bit_identical",
           record.get("bit_identical") is True,
           "SIGKILL-resumed run == clean run")
    coarse = record.get("chunk_interval")
    fine = record.get("chunk_detailed")
    if coarse is None or fine is None:
        _check(checks, "detailed_backend.chunk_ratio", False,
               "chunk fields missing (chunk_interval, chunk_detailed)")
        return
    _check(checks, "detailed_backend.chunk_ratio", coarse >= 8 * fine,
           f"interval chunks {coarse} vs detailed {fine} (>= 8x)")


def _check_shm_transport(record, checks):
    speedup = record.get("transport_speedup", 0.0)
    _check(checks, "shm_transport.speedup", speedup >= 2.0,
           f"{speedup}x vs pickle (floor 2x)")
    _check(checks, "shm_transport.bit_identical",
           record.get("bit_identical") is True, "shm == pickle results")


def _check_streaming_sweep(record, checks):
    _check(checks, "streaming_sweep.bit_identical",
           record.get("bit_identical") is True,
           "streaming == serial sweep results")


def _check_active_dse(record, checks):
    fraction = record.get("active_budget_fraction", 1.0)
    _check(checks, "active_dse.budget_fraction", fraction <= 0.5,
           f"reached the LHS target in {fraction * 100:.0f}% of the "
           f"budget (ceiling 50%)")


def _check_predictor_fit(record, checks):
    speedup = record.get("tree_speedup", 0.0)
    _check(checks, "predictor_fit.tree_speedup", speedup >= 2.0,
           f"{speedup}x one-tree fit vs per-feature split search (floor 2x)")
    speedup = record.get("forest_speedup", 0.0)
    _check(checks, "predictor_fit.forest_speedup", speedup >= 4.0,
           f"{speedup}x 16 trees grown together vs per-feature split "
           f"search (floor 4x)")
    _check(checks, "predictor_fit.bit_identical",
           record.get("trees_bit_identical") is True,
           "grown trees == per-feature reference trees "
           f"({record.get('n_nodes')} nodes in "
           f"{record.get('table_bytes')} table bytes; one network fit "
           f"{record.get('network_fit_seconds')} s; not gated)")
    _check(checks, "predictor_fit.predict_bit_identical",
           record.get("predict_bit_identical") is True,
           "feature-major predict == broadcast-formula predict "
           f"({record.get('predict_speedup')}x, not gated)")


_CHECKERS = {
    "kernel": _check_kernel,
    "detailed_backend": _check_detailed_backend,
    "shm_transport": _check_shm_transport,
    "streaming_sweep": _check_streaming_sweep,
    "active_dse": _check_active_dse,
    "predictor_fit": _check_predictor_fit,
}


def _info_engine_sweep(record):
    ratio = record.get("disk_vs_batched")
    return (f"disk-warm re-run {ratio}x faster than cold batched "
            f"({record.get('disk_warm_seconds')} s vs "
            f"{record.get('cold_batched_seconds')} s; not gated)")


#: Records collated with a one-line reading but no gate, by ``bench``.
_READERS = {
    "engine_sweep": _info_engine_sweep,
}


def build_summary(directory: Path) -> dict:
    """Collate + check every ``BENCH_*.json`` under ``directory``."""
    benches = {}
    checks = []
    skipped = []
    info = []
    for path in sorted(directory.glob("BENCH_*.json")):
        if path.name == "BENCH_SUMMARY.json":
            continue
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            _check(checks, f"{path.name}.parse", False, str(exc))
            continue
        name = record.get("bench") or path.stem[len("BENCH_"):]
        if path.name == "BENCH_pr3.json":
            # Legacy duplicate of shm_transport kept for PR-3 history;
            # collated, never gated twice.
            skipped.append({"file": path.name, "reason": "legacy alias"})
            benches[path.name] = record
            continue
        benches[path.name] = record
        if name in _READERS:
            info.append({"file": path.name, "detail": _READERS[name](record)})
            continue
        checker = _CHECKERS.get(name)
        if checker is None:
            skipped.append({"file": path.name,
                            "reason": f"no checks for bench {name!r}"})
            continue
        checker(record, checks)
    for name in KNOWN_BENCHES:
        expected = f"BENCH_{name}.json"
        if expected not in benches:
            skipped.append({"file": expected, "reason": "not present"})
    failures = [c for c in checks if not c["ok"]]
    return {
        "report": "bench_summary",
        "checks_run": len(checks),
        "failures": len(failures),
        "failed_checks": failures,
        "checks": checks,
        "skipped": skipped,
        "info": info,
        "benches": benches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="collate BENCH_*.json and gate pinned perf metrics")
    parser.add_argument("--dir", default=".", type=Path,
                        help="directory holding BENCH_*.json (default: .)")
    parser.add_argument("--out", default="BENCH_SUMMARY.json",
                        help="summary output path (default: "
                             "BENCH_SUMMARY.json)")
    args = parser.parse_args(argv)
    summary = build_summary(args.dir)
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    for entry in summary["checks"]:
        mark = "ok  " if entry["ok"] else "FAIL"
        print(f"{mark} {entry['check']}: {entry['detail']}")
    for entry in summary["info"]:
        print(f"info {entry['file']}: {entry['detail']}")
    for entry in summary["skipped"]:
        print(f"skip {entry['file']}: {entry['reason']}")
    print(f"{summary['checks_run']} checks, {summary['failures']} failures "
          f"-> {args.out}")
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
