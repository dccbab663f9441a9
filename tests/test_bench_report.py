"""Tests for tools/bench_report.py (BENCH_*.json collation + gating)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_report


def _write(directory, name, record):
    (directory / name).write_text(json.dumps(record))


def test_passing_records_produce_zero_failures(tmp_path):
    _write(tmp_path, "BENCH_kernel.json",
           {"speedup": 12.0, "min_speedup": 10.0, "rows_bit_identical": True,
            "jit_available": False})
    _write(tmp_path, "BENCH_shm_transport.json",
           {"bench": "shm_transport", "transport_speedup": 2.5,
            "bit_identical": True})
    summary = bench_report.build_summary(tmp_path)
    assert summary["failures"] == 0
    assert summary["checks_run"] == 4
    missing = {s["file"] for s in summary["skipped"]}
    assert "BENCH_predictor_fit.json" in missing


def test_regressed_speedup_fails(tmp_path):
    _write(tmp_path, "BENCH_kernel.json",
           {"speedup": 6.0, "min_speedup": 10.0, "rows_bit_identical": True})
    summary = bench_report.build_summary(tmp_path)
    assert summary["failures"] == 1
    assert summary["failed_checks"][0]["check"] == "kernel.speedup"


def test_batched_floor_gated_on_enforcement_flag(tmp_path):
    record = {
        "bench": "detailed_kernel", "bit_identical_fresh": True,
        "bit_identical_resumed": True, "min_speedup_enforced": None,
        "batched": {"bit_identical": True, "speedup": 0.9,
                    "resumed_speedup": 0.8, "min_speedup_enforced": None},
    }
    _write(tmp_path, "BENCH_detailed_kernel.json", record)
    assert bench_report.build_summary(tmp_path)["failures"] == 0

    record["batched"]["min_speedup_enforced"] = 3.0
    _write(tmp_path, "BENCH_detailed_kernel.json", record)
    summary = bench_report.build_summary(tmp_path)
    failed = {c["check"] for c in summary["failed_checks"]}
    assert failed == {"detailed_kernel.batched.speedup",
                      "detailed_kernel.batched.resumed_speedup"}


def test_chunk_ratio_reports_missing_fields(tmp_path):
    record = {"bench": "detailed_backend", "bit_identical": True}
    _write(tmp_path, "BENCH_detailed_backend.json", record)
    summary = bench_report.build_summary(tmp_path)
    failed, = summary["failed_checks"]
    assert failed["check"] == "detailed_backend.chunk_ratio"
    assert failed["detail"].startswith("chunk fields missing")

    record.update(chunk_interval=125, chunk_detailed=18)
    _write(tmp_path, "BENCH_detailed_backend.json", record)
    failed, = bench_report.build_summary(tmp_path)["failed_checks"]
    assert failed["detail"] == "interval chunks 125 vs detailed 18 (>= 8x)"


def test_predictor_fit_gates_speedup_and_bit_identity(tmp_path):
    record = {"bench": "predictor_fit", "tree_speedup": 2.6,
              "forest_speedup": 5.9, "trees_bit_identical": True,
              "predict_speedup": 0.5, "predict_bit_identical": True,
              "n_nodes": 1044, "table_bytes": 225504,
              "network_fit_seconds": 9.5}
    _write(tmp_path, "BENCH_predictor_fit.json", record)
    summary = bench_report.build_summary(tmp_path)
    # predict_speedup, the node-table size and the network fit time are
    # recorded, not gated: 0.5x and 9.5 s still pass.
    assert summary["failures"] == 0 and summary["checks_run"] == 4
    detail = {c["check"]: c["detail"] for c in summary["checks"]}
    assert ("1044 nodes in 225504 table bytes; one network fit 9.5 s"
            in detail["predictor_fit.bit_identical"])

    record.update(tree_speedup=1.8, forest_speedup=3.9,
                  trees_bit_identical=False, predict_bit_identical=False)
    _write(tmp_path, "BENCH_predictor_fit.json", record)
    failed = {c["check"] for c in
              bench_report.build_summary(tmp_path)["failed_checks"]}
    assert failed == {"predictor_fit.tree_speedup",
                      "predictor_fit.forest_speedup",
                      "predictor_fit.bit_identical",
                      "predictor_fit.predict_bit_identical"}


def test_corrupt_file_is_a_failure(tmp_path):
    (tmp_path / "BENCH_kernel.json").write_text("{not json")
    summary = bench_report.build_summary(tmp_path)
    assert summary["failures"] == 1


def test_main_writes_summary_and_sets_exit_code(tmp_path):
    _write(tmp_path, "BENCH_active_dse.json",
           {"bench": "active_dse", "active_budget_fraction": 0.4})
    out = tmp_path / "BENCH_SUMMARY.json"
    assert bench_report.main(["--dir", str(tmp_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"] == "bench_summary"

    _write(tmp_path, "BENCH_active_dse.json",
           {"bench": "active_dse", "active_budget_fraction": 0.9})
    assert bench_report.main(["--dir", str(tmp_path), "--out", str(out)]) == 1


#: One record per known bench with every gated metric exactly at its
#: pinned floor or ceiling and every conditional floor enforced.
_RECORDS_AT_PINNED_GATES = {
    "kernel": {"speedup": 10.0, "min_speedup": 10.0,
               "rows_bit_identical": True, "jit_available": True,
               "jit_bit_identical": True},
    "detailed_kernel": {
        "speedup": 5.0, "min_speedup_enforced": 5.0,
        "bit_identical_fresh": True, "bit_identical_resumed": True,
        "batched": {"bit_identical": True, "speedup": 3.0,
                    "resumed_speedup": 3.0, "min_speedup_enforced": 3.0}},
    "detailed_backend": {"bit_identical": True, "chunk_interval": 8,
                         "chunk_detailed": 1},
    "shm_transport": {"transport_speedup": 2.0, "bit_identical": True},
    "streaming_sweep": {"bit_identical": True},
    "active_dse": {"active_budget_fraction": 0.5},
    "predictor_fit": {"tree_speedup": 2.0, "forest_speedup": 4.0,
                      "trees_bit_identical": True,
                      "predict_bit_identical": True},
    "engine_sweep": {"cold_batched_seconds": 0.2, "disk_warm_seconds": 0.1,
                     "disk_vs_batched": 2.0},
}


def test_records_at_pinned_gates_pass(tmp_path):
    """Every known bench, written at its gates, passes every check.

    The records are written here rather than read from the checkout
    root: ``BENCH_*.json`` there are gitignored leftovers of local bench
    runs, so gating them made tier-1 depend on the last local run.
    """
    assert set(_RECORDS_AT_PINNED_GATES) == set(bench_report.KNOWN_BENCHES)
    for name, record in _RECORDS_AT_PINNED_GATES.items():
        _write(tmp_path, f"BENCH_{name}.json", dict(record, bench=name))
    out = tmp_path / "BENCH_SUMMARY.json"
    assert bench_report.main(["--dir", str(tmp_path), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["failures"] == 0
    assert summary["checks_run"] == 19
    assert summary["skipped"] == []


def test_engine_sweep_record_is_read_not_gated(tmp_path):
    """The disk-warm ratio is recorded across changes, never a failure."""
    _write(tmp_path, "BENCH_engine_sweep.json",
           {"bench": "engine_sweep", "cold_batched_seconds": 0.2,
            "disk_warm_seconds": 0.4, "disk_vs_batched": 0.5})
    summary = bench_report.build_summary(tmp_path)
    assert (summary["checks_run"], summary["failures"]) == (0, 0)
    [info] = summary["info"]
    assert info["file"] == "BENCH_engine_sweep.json"
    assert "0.5x" in info["detail"] and "not gated" in info["detail"]
    assert "BENCH_engine_sweep.json" in summary["benches"]
