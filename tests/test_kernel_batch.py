"""Batched interval kernel: bit-identity, golden pins, JIT, dispatch.

The PR that introduced :func:`repro.uarch.interval_model.\
simulate_interval_batch` rewrote the whole interval-model kernel to
advance a stack of configurations at once.  These tests pin the two
contracts that rewrite must never break:

* **traces** — the scalar path (now a batch of one) and every batch row
  are byte-for-byte identical to the pre-rewrite kernel (golden sha256
  digests pinned below);
* **keys** — :meth:`repro.engine.jobs.SimJob.key` is byte-identical to
  the pre-rewrite recipe (golden keys pinned below), so every existing
  :class:`~repro.engine.cache.ResultCache` entry remains valid.

Plus the surrounding machinery: the EWMA scan against a naive reference
loop, numba-JIT vs NumPy equivalence, grouped engine dispatch vs
per-job execution, and the ensemble's stacked-DWT refit.
"""

import hashlib

import numpy as np
import pytest

from repro.engine.executor import ParallelExecutor
from repro.engine.jobs import SimJob, make_jobs
from repro.engine.kernel import (
    batch_kernel_enabled,
    group_signature,
    plan_groups,
    run_jobs,
)
from repro.uarch.interval_model import (
    IntervalBatchResult,
    simulate_interval,
    simulate_interval_batch,
)
from repro.uarch.jit import ewma_scan, jit_available, jit_enabled, set_jit
from repro.uarch.params import ConfigBatch, baseline_config
from repro.workloads.spec2000 import get_benchmark

from executor_utils import ordered


def _trace_digest(res) -> str:
    """sha256 over every output array of one interval result."""
    h = hashlib.sha256()
    for arr in (res.cpi, res.power, res.avf, res.iq_avf):
        h.update(arr.tobytes())
    for name in sorted(res.components):
        h.update(name.encode())
        h.update(res.components[name].tobytes())
    return h.hexdigest()


#: (benchmark, config overrides, n_samples, noise) -> golden digests,
#: computed on the pre-rewrite scalar kernel.  A digest change means the
#: kernel's numerics moved — which invalidates every published baseline.
GOLDEN_CASES = [
    ("gcc", {}, 128, True,
     "bff715aafa3178d7b470266bbc849bf438e8d99d3a3294ae3ae7cd6032e4c51c",
     "573d1bd564e4da1746e388a2a754b6a3d69f6849105a3510f46d1b4773268fc9"),
    ("gcc", {}, 128, False,
     "e56a3ff3d6e74935caba9bada509ee53ed87351ffb8d1ab14572d1d387f5ead0",
     "8b53f3f77f5299f96ed1d48b188305e49dc5de1cc78eeaa4110352485e1b45ae"),
    ("mcf", {"fetch_width": 4, "rob_size": 64, "iq_size": 32,
             "lsq_size": 24, "l2_size_kb": 512, "dl1_size_kb": 16,
             "dl1_latency": 3}, 64, True,
     "dcd5368bb09c3cf450a2cc3cd1af6449dddabd90d26334ef9cb4ecb486327f2c",
     "b3b5518b7812445fc33b17ba1bbb4806ce8ce05915488c3642825d2e003050ea"),
    ("swim", {"dvm_enabled": True, "dvm_threshold": 0.25}, 128, True,
     "14ff0260279e054e077a5b7353f8d1ac7d25b9bec85a53143a0f691b76a26139",
     "936fe2f6872d471231856a10857345983ee60fcc5c9d8e609257d01756d04608"),
    ("bzip2", {"fetch_width": 16, "l2_latency": 20}, 32, False,
     "d5ad9c98354fb3742a992240f869498363272d4557e38e8b952afa6691f56ab9",
     "a01e1f2bb977c6ddd780782502322aad0cbc19b2e5c85d7baef08ea6d79096ab"),
    ("vpr", {"dvm_enabled": True}, 64, False,
     "737db34dcf7f5cf688140c9338dd0551cdf3ec82cc8a1364e94841333a9b7ac2",
     "057d8e8127d5131b41dc2967151e11c8c02cbca82f4a1b681696d0de88f90053"),
]

#: Pre-rewrite key for a detailed-backend job: grouped dispatch must not
#: perturb detailed jobs' identity either.
GOLDEN_DETAILED_KEY = (
    "ea7fd372543c92ce0a39f4916f25432507542cc65e20956c4bf1efe854046e9d"
)


@pytest.mark.parametrize(
    "bench,overrides,n,noise,trace_golden,key_golden",
    GOLDEN_CASES, ids=[f"{c[0]}-{c[2]}-noise{int(c[3])}"
                       for c in GOLDEN_CASES])
def test_golden_traces_and_keys(bench, overrides, n, noise,
                                trace_golden, key_golden):
    config = baseline_config(**overrides)
    res = simulate_interval(get_benchmark(bench), config, n, noise=noise)
    assert _trace_digest(res) == trace_golden
    job = SimJob(bench, config, n_samples=n, noise=noise)
    assert job.key() == key_golden


def test_golden_detailed_key():
    job = SimJob("gcc", baseline_config(), backend="detailed",
                 n_samples=16, instructions_per_sample=200)
    assert job.key() == GOLDEN_DETAILED_KEY


def test_key_unchanged_by_key_memoization():
    """key() memoizes on first call; the memo must not leak into
    equality/hash semantics or later key() calls."""
    a = baseline_config()
    b = baseline_config()
    k1 = SimJob("gcc", a, n_samples=128).key()
    a.key()  # populate the config-level memo
    k2 = SimJob("gcc", a, n_samples=128).key()
    k3 = SimJob("gcc", b, n_samples=128).key()
    assert k1 == k2 == k3
    assert a == b and hash(a) == hash(b)


# ----------------------------------------------------------------------
# Batch == scalar, bit for bit
# ----------------------------------------------------------------------
def _lhs_configs(n, seed):
    from repro.dse.lhs import sample_train_configs
    from repro.dse.space import paper_design_space

    return sample_train_configs(paper_design_space(), n, seed=seed)


def _assert_rows_equal(batch: IntervalBatchResult, scalars):
    for row, ref in zip(batch, scalars):
        assert np.array_equal(row.cpi, ref.cpi)
        assert np.array_equal(row.power, ref.power)
        assert np.array_equal(row.avf, ref.avf)
        assert np.array_equal(row.iq_avf, ref.iq_avf)
        assert sorted(row.components) == sorted(ref.components)
        for name in ref.components:
            assert np.array_equal(row.components[name],
                                  ref.components[name]), name


@pytest.mark.parametrize("size", [1, 7, 64])
@pytest.mark.parametrize("noise", [True, False])
def test_batch_rows_match_scalar(size, noise):
    workload = get_benchmark("gcc")
    configs = _lhs_configs(size, seed=size)
    batch = simulate_interval_batch(workload, configs, n_samples=64,
                                    noise=noise)
    scalars = [simulate_interval(workload, c, 64, noise=noise)
               for c in configs]
    _assert_rows_equal(batch, scalars)


@pytest.mark.parametrize("bench", ["mcf", "swim", "twolf"])
def test_batch_matches_scalar_across_benchmarks(bench):
    workload = get_benchmark(bench)
    configs = _lhs_configs(9, seed=17)
    batch = simulate_interval_batch(workload, configs, n_samples=32)
    _assert_rows_equal(
        batch, [simulate_interval(workload, c, 32) for c in configs])


def test_batch_matches_scalar_mixed_dvm():
    """DVM-on and DVM-off configs in one batch, different thresholds."""
    workload = get_benchmark("swim")
    base = _lhs_configs(7, seed=5)
    configs = [
        c.with_dvm(True, 0.2 + 0.1 * (i % 3)) if i % 2 else c
        for i, c in enumerate(base)
    ]
    batch = simulate_interval_batch(workload, configs, n_samples=128)
    _assert_rows_equal(
        batch, [simulate_interval(workload, c, 128) for c in configs])


def test_batch_accepts_config_batch_and_seeds_independent():
    workload = get_benchmark("gcc")
    configs = _lhs_configs(4, seed=3)
    prebuilt = ConfigBatch(configs)
    a = simulate_interval_batch(workload, prebuilt, n_samples=64)
    b = simulate_interval_batch(workload, configs, n_samples=64)
    _assert_rows_equal(a, list(b))
    # Noise seeds derive per config: permuting the batch permutes rows.
    perm = simulate_interval_batch(workload, configs[::-1], n_samples=64)
    _assert_rows_equal(perm, list(b)[::-1])


def test_scalar_simulate_interval_is_batch_of_one():
    workload = get_benchmark("vortex")
    config = baseline_config(rob_size=128, lsq_size=96)
    scalar = simulate_interval(workload, config, 64)
    batch = simulate_interval_batch(workload, [config], n_samples=64)
    _assert_rows_equal(batch, [scalar])


# ----------------------------------------------------------------------
# EWMA scan + JIT
# ----------------------------------------------------------------------
def _naive_ewma_smooth(trace, alpha=0.3):
    """The pre-rewrite per-element persistence loop (reference): the
    accumulator seeds from ``trace[0]`` and the update runs on every
    element including the first."""
    out = np.empty_like(trace)
    acc = trace[0]
    beta = 1.0 - alpha
    for i in range(len(trace)):
        acc = alpha * trace[i] + beta * acc
        out[i] = acc
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_ewma_scan_matches_naive_loop(dtype):
    rng = np.random.default_rng(11)
    traces = rng.normal(size=(5, 40)).astype(dtype)
    out = ewma_scan(traces, 0.3)
    for row in range(traces.shape[0]):
        assert np.array_equal(out[row],
                              _naive_ewma_smooth(traces[row], 0.3)), row


def test_ewma_scan_rejects_bad_rank():
    with pytest.raises(Exception):
        ewma_scan(np.zeros(8), 0.3)


def test_jit_disabled_without_numba_or_flag(monkeypatch):
    monkeypatch.delenv("REPRO_JIT", raising=False)
    set_jit(None)
    assert jit_enabled() is False          # default off
    if not jit_available():
        set_jit(True)
        assert jit_enabled() is False      # requested but unavailable
    set_jit(None)


def test_jit_env_flag_parsing(monkeypatch):
    from repro.uarch import jit as jit_mod

    set_jit(None)
    for text, expected in [("1", True), ("true", True), ("on", True),
                           ("0", False), ("", False), ("off", False)]:
        monkeypatch.setenv("REPRO_JIT", text)
        assert jit_mod.jit_requested() is expected, text
    set_jit(False)
    monkeypatch.setenv("REPRO_JIT", "1")
    assert jit_mod.jit_requested() is False  # explicit override wins
    set_jit(None)


def test_jit_scan_bit_identical_to_numpy():
    pytest.importorskip("numba")
    rng = np.random.default_rng(23)
    traces = rng.normal(size=(8, 64))
    assert np.array_equal(ewma_scan(traces, 0.3, jit=True),
                          ewma_scan(traces, 0.3, jit=False))


def test_jit_kernel_bit_identical_to_numpy():
    pytest.importorskip("numba")
    workload = get_benchmark("gcc")
    configs = _lhs_configs(5, seed=9)
    set_jit(True)
    try:
        jitted = simulate_interval_batch(workload, configs, n_samples=64)
    finally:
        set_jit(None)
    plain = simulate_interval_batch(workload, configs, n_samples=64)
    _assert_rows_equal(jitted, list(plain))


# ----------------------------------------------------------------------
# Grouped engine dispatch
# ----------------------------------------------------------------------
def _result_equal(a, b):
    assert a.benchmark == b.benchmark and a.config == b.config
    assert sorted(a.traces) == sorted(b.traces)
    for d in a.traces:
        assert np.array_equal(a.traces[d], b.traces[d]), d
    assert sorted(a.components) == sorted(b.components)
    for d in a.components:
        assert np.array_equal(a.components[d], b.components[d]), d


def _mixed_jobs():
    configs = _lhs_configs(12, seed=2)
    jobs = make_jobs("gcc", configs, backend="interval", n_samples=64)
    jobs += make_jobs("mcf", configs[:4], backend="interval", n_samples=64)
    jobs += [SimJob("swim", c, n_samples=32, noise=False)
             for c in configs[:3]]
    return jobs


def test_group_signature_partitions():
    jobs = _mixed_jobs()
    detailed = SimJob("gcc", baseline_config(), backend="detailed",
                      n_samples=8, instructions_per_sample=50)
    # Detailed jobs group among themselves (trace-memo sharing), on a
    # distinct signature shape that can never collide with interval's.
    sig = group_signature(detailed)
    assert sig is not None and sig[0] == "detailed"
    assert sig != group_signature(jobs[0])
    other_res = SimJob("gcc", baseline_config(), backend="detailed",
                       n_samples=8, instructions_per_sample=80)
    assert group_signature(other_res) != sig
    sigs = {group_signature(j) for j in jobs}
    assert len(sigs) == 3
    groups = plan_groups(jobs + [detailed])
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 3, 4, 12]


def test_plan_groups_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
    assert not batch_kernel_enabled()
    jobs = _mixed_jobs()
    assert plan_groups(jobs) == [[i] for i in range(len(jobs))]


def test_run_jobs_matches_per_job_run(monkeypatch):
    jobs = _mixed_jobs()
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "0")
    ref = run_jobs(jobs)
    monkeypatch.setenv("REPRO_BATCH_KERNEL", "1")
    got = run_jobs(jobs)
    for r, g in zip(ref, got):
        _result_equal(r, g)


def test_local_executor_stream_grouped(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_KERNEL", raising=False)
    jobs = _mixed_jobs()
    ref = [j.run() for j in jobs]
    seen = []
    for i, res in ParallelExecutor(max_workers=1).submit_batch(jobs):
        seen.append(i)
        _result_equal(ref[i], res)
    assert seen == list(range(len(jobs)))


@pytest.mark.parametrize("shm", [False, True])
def test_parallel_executor_grouped(shm):
    jobs = _mixed_jobs()
    ref = [j.run() for j in jobs]
    got = ordered(ParallelExecutor(max_workers=2, shm=shm), jobs)
    for r, g in zip(ref, got):
        _result_equal(r, g)


def test_grouped_results_detach_cleanly():
    """Batch rows are views into the (B, S) matrices; consumers that
    need owning arrays (the memory cache) detach them."""
    jobs = make_jobs("gcc", _lhs_configs(3, seed=1),
                     backend="interval", n_samples=32)
    results = run_jobs(jobs)
    assert any(arr.base is not None
               for res in results for arr in res.traces.values())
    for res in results:
        owned = res.detach()
        for d in res.traces:
            assert owned.traces[d].base is None
            assert np.array_equal(owned.traces[d], res.traces[d])


# ----------------------------------------------------------------------
# Ensemble stacked-DWT refit
# ----------------------------------------------------------------------
def test_ensemble_fit_matches_per_member_dwt():
    from repro._validation import rng_from_seed
    from repro.core.predictor import (
        WaveletNeuralPredictor,
        WaveletPredictorEnsemble,
    )

    rng = np.random.default_rng(3)
    X = rng.uniform(size=(40, 5))
    t = np.linspace(0, 1, 32)
    traces = np.array([np.sin(5 * t + x[0]) * (1 + x[2]) for x in X])
    ens = WaveletPredictorEnsemble(n_members=3, n_coefficients=8,
                                   seed=0).fit(X, traces)
    # Reference: the historical path — each member transforms its own
    # (resampled) trace matrix.
    r = rng_from_seed(0)
    Xq = rng.uniform(size=(6, 5))
    for m in range(3):
        if m == 0:
            Xm, tm = X, traces
        else:
            idx = r.integers(0, X.shape[0], size=X.shape[0])
            Xm, tm = X[idx], traces[idx]
        ref = WaveletNeuralPredictor(ens.settings).fit(Xm, tm)
        assert np.array_equal(ens.members_[m].selected_indices_,
                              ref.selected_indices_)
        assert np.array_equal(ens.members_[m].predict(Xq), ref.predict(Xq))


def test_fit_rejects_mismatched_coefficients():
    from repro.core.predictor import WaveletNeuralPredictor
    from repro.errors import ModelError

    rng = np.random.default_rng(0)
    X = rng.uniform(size=(16, 3))
    traces = rng.normal(size=(16, 32))
    with pytest.raises(ModelError):
        WaveletNeuralPredictor(n_coefficients=4).fit(
            X, traces, coefficients=traces[:, :16])
