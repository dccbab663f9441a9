"""Golden digests and engine parity for the detailed pipeline kernel.

The detailed backend has two execution engines — the object-model
interpreter and the struct-of-arrays kernel (optionally numba-compiled)
— that must produce bit-identical statistic streams.  This module pins:

* golden sha256 digests of full detailed runs for five
  (benchmark, config) pairs, including DVM-enabled ones — any
  behavioural drift in the pipeline, caches, predictor or DVM
  controller fails loudly;
* interpreter / kernel / JIT-setting parity against those digests
  (the compiled-kernel case runs in CI's with-numba leg and is skipped
  where numba is absent);
* canonical-snapshot round-trips across engines, checkpoint
  resume-mid-run (including crashing under one engine and resuming
  under the other), and v1-checkpoint invalidation;
* the interpreter's dead-cycle skipping against the kernel, which
  steps every cycle (:class:`TestDeadCycleSkip`);
* the trace memo's sharing and isolation guarantees.

Regenerate the digest table with ``tools/capture_detailed_goldens.py``
after an *intended* behaviour change.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

from repro.dse.lhs import sample_train_configs
from repro.dse.space import paper_design_space
from repro.errors import SimulationError
from repro.reliability.dvm import DVMController, DVMPolicy
from repro.uarch import jit
from repro.uarch.detailed import (CHECKPOINT_VERSION, DetailedSimulator,
                                  sweep_checkpoints)
from repro.uarch.params import MachineConfig, baseline_config
from repro.uarch.pipeline import _MAX_CPI, OutOfOrderCore
from repro.uarch.trace import InstructionTrace, OpClass
from repro.workloads.generator import clear_trace_memo, synthesize_interval
from repro.workloads.spec2000 import BENCHMARK_NAMES, get_benchmark

N_SAMPLES = 8
IPS = 400

STREAMS = ("cpi", "power", "avf", "iq_avf", "mispredict_rate",
           "dvm_throttled_frac")

#: sha256 over the concatenated float64 bytes of all six streams of an
#: 8-interval x 400-instruction detailed run.
GOLDEN_DIGESTS = {
    "gcc-baseline":
        "72d40a0fe267aa9a2bd4b6eea233fadc404f6f71524086026bbfe77a34c24747",
    "mcf-weak":
        "1cc2d47861d0610e2e7947c96a4cafb551c95360b85145c261883ce8b88206af",
    "swim-strong":
        "caae8a1b1e7016ca7e590652561ed7fef831444f41a824a19dfe68193d3e71bd",
    "mcf-dvm-tight":
        "91e9ddb1185e7c40cb770552e49cd2a0b16dc5286cf22c0d1a387b45d3fcbd25",
    "gcc-dvm":
        "71b15594b533fecab8903fd7f17d2848e32bcbc98f803eb345404a2b11c40d8d",
}


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


def _digest(result) -> str:
    parts = []
    for name in STREAMS:
        arr = result.traces.get(name)
        if arr is None:
            arr = result.components[name]
        parts.append(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _force_engine(monkeypatch, engine):
    original = OutOfOrderCore.run_interval
    monkeypatch.setattr(
        OutOfOrderCore, "run_interval",
        lambda self, trace, _original=original, _engine=engine:
            _original(self, trace, engine=_engine))


def _run_case(bench, config, **kwargs):
    return DetailedSimulator(config).run(
        bench, n_samples=N_SAMPLES, instructions_per_sample=IPS, **kwargs)


# ----------------------------------------------------------------------
# Golden digests per engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_interpreter_matches_goldens(label, bench, config):
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_kernel_matches_goldens_uncompiled(monkeypatch, label, bench, config):
    _force_engine(monkeypatch, "kernel-interp")
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


@pytest.mark.skipif(not jit.jit_available(), reason="numba not installed")
@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_kernel_matches_goldens_compiled(monkeypatch, label, bench, config):
    _force_engine(monkeypatch, "kernel")
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


def test_jit_on_off_parity():
    """Digest invariant under the JIT setting, whatever numba's state.

    With numba absent a requested JIT silently falls back to the
    interpreter; with numba present (CI's with-numba leg) the default
    engine becomes the compiled kernel — either way the streams must
    not move.
    """
    label, bench, config = golden_cases()[0]
    try:
        jit.set_jit(False)
        off = _digest(_run_case(bench, config))
        jit.set_jit(True)
        on = _digest(_run_case(bench, config))
    finally:
        jit.set_jit(None)
    assert off == on == GOLDEN_DIGESTS[label]


def test_unknown_engine_rejected():
    core = OutOfOrderCore(baseline_config())
    trace = synthesize_interval(get_benchmark("gcc"), 0, N_SAMPLES, IPS)
    with pytest.raises(SimulationError, match="unknown pipeline engine"):
        core.run_interval(trace, engine="fortran")


# ----------------------------------------------------------------------
# Snapshot round-trips across engines
# ----------------------------------------------------------------------
def _interval_signature(stats):
    return (stats.cycles, stats.branch_mispredicts,
            stats.dvm_throttled_cycles, tuple(stats.counters.items()),
            tuple(stats.ace_bit_cycles.items()))


def _core_with_dvm():
    return OutOfOrderCore(baseline_config(),
                         dvm=DVMController(DVMPolicy(threshold=0.3)))


def _run_intervals(core, lo, hi, engine):
    workload = get_benchmark("gcc")
    return [
        _interval_signature(core.run_interval(
            synthesize_interval(workload, i, N_SAMPLES, IPS), engine=engine))
        for i in range(lo, hi)
    ]


def test_alternating_engines_bit_identical():
    reference = _run_intervals(_core_with_dvm(), 0, N_SAMPLES, "python")
    core = _core_with_dvm()
    workload = get_benchmark("gcc")
    mixed = [
        _interval_signature(core.run_interval(
            synthesize_interval(workload, i, N_SAMPLES, IPS),
            engine=("python" if i % 2 else "kernel-interp")))
        for i in range(N_SAMPLES)
    ]
    assert mixed == reference


@pytest.mark.parametrize("first_engine,second_engine",
                         [("kernel-interp", "python"),
                          ("python", "kernel-interp")])
def test_snapshot_round_trip_across_engines(first_engine, second_engine):
    reference = _run_intervals(_core_with_dvm(), 0, N_SAMPLES, "python")
    core = _core_with_dvm()
    head = _run_intervals(core, 0, 4, first_engine)
    snapshot = core.snapshot_state()
    resumed = _core_with_dvm()
    resumed.restore_state(snapshot)
    tail = _run_intervals(resumed, 4, N_SAMPLES, second_engine)
    assert head == reference[:4]
    assert tail == reference[4:]


def test_kernel_and_object_snapshots_identical():
    core = _core_with_dvm()
    _run_intervals(core, 0, 4, "kernel-interp")
    from_kernel = core.snapshot_state()
    core._leave_kernel_mode()
    from_objects = core.snapshot_state()
    assert set(from_kernel) == set(from_objects)
    for key in from_kernel:
        assert np.array_equal(from_kernel[key], from_objects[key]), key


def test_restore_rejects_mismatched_shapes():
    snapshot = OutOfOrderCore(baseline_config()).snapshot_state()
    small = MachineConfig(il1_size_kb=8, dl1_size_kb=8)
    with pytest.raises(Exception, match="does not match"):
        OutOfOrderCore(small).restore_state(snapshot)


# ----------------------------------------------------------------------
# Dead-cycle skipping: interpreter vs the every-cycle kernel
# ----------------------------------------------------------------------
def _exact(value):
    """``value`` with every float as its exact bit pattern."""
    if isinstance(value, dict):
        return tuple((key, _exact(item)) for key, item in value.items())
    if isinstance(value, float):
        return value.hex()
    return value


def _hand_trace(ops, src1=None, address=None, pc=None, taken=None):
    """A hand-built interval: ``ops`` as OpClass values, ACE everywhere."""
    n = len(ops)
    return InstructionTrace(
        op=np.asarray(ops, dtype=np.int8),
        src1_dist=np.asarray(src1 if src1 is not None else [0] * n,
                             dtype=np.int64),
        src2_dist=np.zeros(n, dtype=np.int64),
        address=np.asarray(address if address is not None else [0] * n,
                           dtype=np.int64),
        pc=np.asarray(pc if pc is not None
                      else [0x400000 + 4 * i for i in range(n)],
                      dtype=np.int64),
        taken=np.asarray(taken if taken is not None else [False] * n,
                         dtype=bool),
        ace=np.ones(n, dtype=bool))


def _lhs_cases():
    configs = sample_train_configs(paper_design_space(), 24, seed=11)
    cases = []
    for index, config in enumerate(configs):
        bench = BENCHMARK_NAMES[index % len(BENCHMARK_NAMES)]
        for dvm in (None, 0.05, 0.3):
            label = f"{index}-{bench}-" + ("nodvm" if dvm is None
                                           else f"dvm{dvm}")
            cases.append(pytest.param(
                bench, (config.with_dvm(False) if dvm is None
                        else config.with_dvm(True, dvm)), id=label))
    return cases


class TestDeadCycleSkip:
    """The interpreter jumps over cycles in which nothing commits,
    issues, dispatches or fetches; the array kernel run as plain Python
    steps every cycle.  Every statistic and the final snapshot must
    agree to the bit, including where an event lands inside a dead run.
    """

    @staticmethod
    def _core(config):
        dvm = (DVMController(DVMPolicy(threshold=config.dvm_threshold))
               if config.dvm_enabled else None)
        return OutOfOrderCore(config, dvm=dvm)

    def _differential(self, config, traces):
        skipping, stepping = self._core(config), self._core(config)
        stats = []
        for trace in traces:
            got = skipping.run_interval(trace, engine="python")
            want = stepping.run_interval(trace, engine="kernel-interp")
            assert ([_exact(getattr(got, f.name))
                     for f in dataclasses.fields(got)]
                    == [_exact(getattr(want, f.name))
                        for f in dataclasses.fields(want)])
            stats.append(got)
        got, want = skipping.snapshot_state(), stepping.snapshot_state()
        assert sorted(got) == sorted(want)
        for key in got:
            assert got[key].dtype == want[key].dtype, key
            assert got[key].tobytes() == want[key].tobytes(), key
        return stats, skipping

    @pytest.mark.parametrize("bench,config", _lhs_cases())
    def test_lhs_configs_match_stepping_kernel(self, bench, config):
        workload = get_benchmark(bench)
        self._differential(config, [
            synthesize_interval(workload, i, 4, 250) for i in range(2)])

    def test_dvm_sample_inside_dead_run(self):
        """Samples land inside dead runs and flip the throttle there.

        With a one-entry DTLB and a 600-cycle TLB miss, every load after
        the first two hits the DL1 but holds its three consumers for
        600 cycles with no L2 miss outstanding, so the waiting/ready
        ratio alone gates dispatch.  A 200-cycle sample inside such a
        dead run raises ``wq_ratio`` past the waiting count, and the
        buffered instructions dispatch on the very next cycle.
        """
        config = MachineConfig(dtlb_entries=1, tlb_miss_latency=600
                               ).with_dvm(True, 0.3)
        ops, src1, address = [], [], []
        for block in range(12):
            ops += [OpClass.LOAD] + [OpClass.INT_ALU] * 5
            src1 += [0, 1, 2, 3, 0, 0]
            address += [0x2000_0000 + (block % 2) * 4096] + [0] * 5
        stats, core = self._differential(
            config, [_hand_trace(ops, src1, address)])
        assert stats[0].counters["l2"] == 2          # two cold lines only
        assert stats[0].dvm_throttled_cycles > 0
        assert core.dvm.sample_count >= stats[0].cycles // 200 >= 10

    def test_l2_miss_throttled_window(self):
        """An outstanding L2 miss throttles dispatch through a dead run
        that only the miss-heap pop ends.

        The ROB head is a load that hits the DL1 but misses the
        two-entry DTLB (600 cycles, no L2 miss).  Behind it, a load to a
        resident page misses the L2 and returns after ~220 cycles with
        no consumer waiting on it: dispatch resumes at that pop, long
        before the head can commit.
        """
        def trace(addresses):
            return _hand_trace([OpClass.LOAD] * len(addresses)
                               + [OpClass.INT_ALU] * (32 - len(addresses)),
                               address=addresses
                               + [0] * (32 - len(addresses)))

        warm = trace([0x2000_0000, 0x2100_0000, 0x2200_0000])
        probe = trace([0x2000_0000, 0x2200_0800])
        config = MachineConfig(dtlb_entries=2, tlb_miss_latency=600
                               ).with_dvm(True, 0.3)
        stats, _ = self._differential(config, [warm, probe])
        assert stats[1].counters["l2"] == 1
        assert 0 < stats[1].dvm_throttled_cycles < stats[1].cycles - 300

    def test_mispredict_fetch_stall(self):
        """Mispredicted branches stall fetch for ``pipeline_depth``
        cycles after they resolve; the drained core is dead until the
        stall ends."""
        rng = np.random.default_rng(5)
        n = 200
        ops = [OpClass.BRANCH if i % 3 == 2 else OpClass.INT_ALU
               for i in range(n)]
        taken = [bool(op == OpClass.BRANCH and rng.random() < 0.5)
                 for op in ops]
        stats, _ = self._differential(
            baseline_config(), [_hand_trace(ops, taken=taken)] * 2)
        assert all(s.branch_mispredicts > 0 for s in stats)

    @pytest.mark.parametrize("dvm", [None, 0.3], ids=["nodvm", "dvm"])
    def test_max_cycles_guard_raises_at_same_cycle(self, dvm):
        """A load that never returns inside the interval's cycle budget
        trips the deadlock guard at ``max_cycles + 1`` in both engines,
        with no cycle skipped past it."""
        config = MachineConfig(memory_latency=50_000)
        if dvm is not None:
            config = config.with_dvm(True, dvm)
        trace = _hand_trace([OpClass.LOAD, OpClass.INT_ALU], [0, 1],
                            [0x5000_0000, 0])
        limit = max(len(trace) * _MAX_CPI, 10_000)
        with pytest.raises(SimulationError,
                           match=f"at cycle {limit + 1} "):
            self._core(config).run_interval(trace, engine="python")
        with pytest.raises(SimulationError, match="model deadlock"):
            self._core(config).run_interval(trace, engine="kernel-interp")


# ----------------------------------------------------------------------
# Checkpointing on the array snapshot (format v2)
# ----------------------------------------------------------------------
class _Crash(Exception):
    pass


def _crashing_run(monkeypatch, bench, config, path, engine, crash_after):
    """Run with checkpointing, forcing ``engine``, crashing after N
    intervals; returns without the crash propagating."""
    original = OutOfOrderCore.run_interval
    calls = [0]

    def wrapper(self, trace, _original=original):
        calls[0] += 1
        if calls[0] > crash_after:
            raise _Crash()
        return _original(self, trace, engine=engine)

    monkeypatch.setattr(OutOfOrderCore, "run_interval", wrapper)
    with pytest.raises(_Crash):
        _run_case(bench, config, checkpoint_every=3, checkpoint_path=path)
    monkeypatch.undo()


@pytest.mark.parametrize("crash_engine,resume_engine",
                         [("python", "python"),
                          ("kernel-interp", "python"),
                          ("python", "kernel-interp")])
def test_checkpoint_resume_mid_run(monkeypatch, tmp_path,
                                   crash_engine, resume_engine):
    """A crashed run resumes bit-identically — in either engine, from a
    snapshot written by either engine (DVM controller state included)."""
    label, bench, config = golden_cases()[4]  # gcc-dvm
    path = tmp_path / "run.ckpt.npz"
    # Warmup + intervals 0..3 simulate; snapshot lands at next=3.
    _crashing_run(monkeypatch, bench, config, path, crash_engine,
                  crash_after=5)
    assert path.exists()

    _force_engine(monkeypatch, resume_engine)
    calls = [0]
    original = OutOfOrderCore.run_interval

    def counting(self, trace, _original=original):
        calls[0] += 1
        return _original(self, trace)

    monkeypatch.setattr(OutOfOrderCore, "run_interval", counting)
    result = _run_case(bench, config, checkpoint_every=3,
                       checkpoint_path=path)
    assert _digest(result) == GOLDEN_DIGESTS[label]
    assert calls[0] == N_SAMPLES - 3   # no warmup, intervals 3..7 only
    assert not path.exists()           # completed runs remove the snapshot


def test_v1_checkpoint_invalidated_not_resumed(tmp_path):
    """A pre-v2 snapshot (pickled core, no ``state_version``) is deleted
    and the run starts cleanly from interval 0."""
    label, bench, config = golden_cases()[0]
    path = tmp_path / "run.ckpt.npz"
    np.savez(path, meta=np.array("ckpt/v1-era digest"), next=np.array(4),
             core=np.zeros(64, dtype=np.uint8))
    result = _run_case(bench, config, checkpoint_every=3,
                       checkpoint_path=path)
    assert _digest(result) == GOLDEN_DIGESTS[label]
    assert not path.exists()


def test_sweep_checkpoints_removes_only_orphans(tmp_path):
    keep = tmp_path / "fresh.ckpt.npz"
    np.savez(keep, meta=np.array("m"), next=np.array(1),
             state_version=np.array(CHECKPOINT_VERSION))
    np.savez(tmp_path / "v1.ckpt.npz", meta=np.array("m"), next=np.array(1),
             core=np.zeros(8, dtype=np.uint8))
    (tmp_path / "crashed.tmp").write_bytes(b"partial write")
    (tmp_path / "corrupt.ckpt.npz").write_bytes(b"not a zip archive")
    ancient = tmp_path / "ancient.ckpt.npz"
    np.savez(ancient, meta=np.array("m"), next=np.array(1),
             state_version=np.array(CHECKPOINT_VERSION))
    stale_time = time.time() - 8 * 24 * 3600
    os.utime(ancient, (stale_time, stale_time))
    (tmp_path / "unrelated.txt").write_text("not a checkpoint")

    removed, reclaimed = sweep_checkpoints(tmp_path)
    assert removed == 4
    assert reclaimed > 0
    survivors = sorted(p.name for p in tmp_path.iterdir())
    assert survivors == ["fresh.ckpt.npz", "unrelated.txt"]
    assert sweep_checkpoints(tmp_path) == (0, 0)
    assert sweep_checkpoints(tmp_path / "missing") == (0, 0)


# ----------------------------------------------------------------------
# Trace memo
# ----------------------------------------------------------------------
def test_trace_memo_shares_frozen_traces():
    clear_trace_memo()
    workload = get_benchmark("gcc")
    first = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    second = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    assert second is first
    assert not first.op.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        first.address[0] = 1


def test_trace_memo_keys_on_content_and_arguments():
    clear_trace_memo()
    workload = get_benchmark("gcc")
    base = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    assert synthesize_interval(workload, 1, N_SAMPLES, IPS) is not base
    assert synthesize_interval(workload, 0, N_SAMPLES, IPS,
                               seed=123) is not base
    other = get_benchmark("mcf")
    assert synthesize_interval(other, 0, N_SAMPLES, IPS) is not base


def test_trace_memo_disable(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_MEMO", "0")
    clear_trace_memo()
    workload = get_benchmark("gcc")
    first = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    second = synthesize_interval(workload, 0, N_SAMPLES, IPS)
    assert second is not first
    assert first.op.flags.writeable
    for name in ("op", "src1_dist", "src2_dist", "address", "pc",
                 "taken", "ace"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
