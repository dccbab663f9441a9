"""Tests of the benchmark harness itself (no workload is run)."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_is_span_minus_children():
    rec = tracing.Recorder()
    root = rec.add_span("a", 0.0, 10.0)
    child = rec.add_span("b", 1.0, 4.0, root)
    rec.add_span("c", 2.0, 3.0, child)
    rec.add_span("b", 5.0, 7.5, root)
    totals = rec.totals()
    assert totals["a"] == (1, 10.0, pytest.approx(4.5))
    assert totals["b"] == (2, 5.5, pytest.approx(4.5))
    assert totals["c"] == (1, 1.0, pytest.approx(1.0))


def test_wrappers_record_nested_spans_and_restore_originals():
    class Layer:
        def outer(self):
            return self.inner() + sum(self.stream())

        def inner(self):
            return 1

        def stream(self):
            yield self.inner()
            yield self.inner()

    module = type(sys)("perfbench_fake_layer")
    module.Layer = Layer
    sys.modules[module.__name__] = module
    original = Layer.__dict__["inner"]
    try:
        rec = tracing.Recorder()
        uninstall = tracing.install(rec, [
            tracing.Target(f"{module.__name__}:Layer.{name}", name)
            for name in ("outer", "inner", "stream")])
        rec.enabled = True
        try:
            assert Layer().outer() == 3
        finally:
            rec.enabled = False
        uninstall()
    finally:
        del sys.modules[module.__name__]
    totals = rec.totals()
    assert totals["outer"][0] == 1
    assert totals["inner"][0] == 3
    assert totals["stream"][0] == 3  # two items plus the exhausting call
    parents = {rec.names[p] for p in rec.parents if p >= 0}
    assert parents == {"outer", "stream"}
    assert Layer.__dict__["inner"] is original


def test_perturbed_output_fails_the_digest_check():
    traces = np.linspace(0.0, 1.0, 128)
    good = checks.Operation("job/gcc/0", 3, checks.digest_of(traces))
    expected = {good.name: good.digest}
    assert checks.verify([good], expected) == (3, 0, [])
    perturbed = traces.copy()
    perturbed[17] = np.nextafter(perturbed[17], 2.0)
    bad = checks.Operation("job/gcc/0", 3, checks.digest_of(perturbed))
    assert checks.verify([bad], expected) == (3, 3, ["job/gcc/0"])
    broken = checks.Operation("job/gcc/1", 2, "x", ok=False)
    assert checks.verify([good, broken], expected) == (5, 2, ["job/gcc/1"])


def test_quantized_digest_ignores_last_bit_noise_only():
    values = np.array([1.2345, 67.891, 0.0042])
    noisy = values * (1 + 1e-14)
    assert checks.digest_of(checks.quantized(values)) == checks.digest_of(
        checks.quantized(noisy))
    assert checks.digest_of(checks.quantized(values)) != checks.digest_of(
        checks.quantized(values * 1.001))


def test_pinned_env_scrubs_repro_variables():
    env = harness.pinned_env({"REPRO_JOBS": "4", "REPRO_CACHE_DIR": "/tmp/x",
                              "PATH": "/bin", "OPENBLAS_NUM_THREADS": "8"})
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/bin"
    assert all(env[var] == "1" for var in harness.THREAD_VARS)


def test_metric_names_and_benchmark_spec_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m[0] for m in harness.E2E + harness.PER_LAYER]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for key, catalog in (("end_to_end", harness.E2E),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(catalog)
    assert [w["name"] for w in spec["workloads"]] == [
        "paper_dse", "sweep_cache", "detailed_sweep", "pool_mixed"]


def test_layer_metrics_cover_the_per_layer_catalog():
    rec = tracing.Recorder()
    produced = set(tracing.layer_metrics(rec, 1.0))
    produced |= set(harness._cache_metrics(dict(
        memory_hits=0, disk_hits=0, misses=0, bytes_written=0)))
    produced |= {"trace.overhead_pct", "sim_kips", "mse_cpi_median_pct",
                 "mse_power_median_pct", "mse_avf_median_pct", "wall_raw_s",
                 "host.spin_s"}
    assert produced == {m[0] for m in harness.PER_LAYER}


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
    q1, median, q3 = harness.quartiles(values)
    assert harness.spread(values) == pytest.approx((q3 - q1) / median)
