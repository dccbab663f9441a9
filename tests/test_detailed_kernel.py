"""Golden digests, snapshots and checkpoints of the detailed pipeline.

The detailed backend has one stepper, the event-driven interpreter
:meth:`~repro.uarch.pipeline.OutOfOrderCore.run_interval`.  This module
pins:

* golden sha256 digests of full detailed runs for five
  (benchmark, config) pairs, including DVM-enabled ones (run alone
  here, as one group in ``test_detailed_batch``) — any behavioural
  drift in the pipeline, caches, predictor or DVM controller fails
  loudly;
* the canonical snapshot round-trip, checkpoint resume mid-run, and
  v1-checkpoint invalidation;
* the interpreter's dead-cycle skipping, against digests recorded from
  an every-cycle stepper (:class:`TestDeadCycleSkip`);
* the trace memo's sharing and isolation guarantees.

Regenerate the golden digest table with
``tools/capture_detailed_goldens.py`` after an *intended* behaviour
change.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

from repro.dse.lhs import sample_train_configs
from repro.dse.space import paper_design_space
from repro.engine.jobs import SimJob
from repro.errors import SimulationError
from repro.reliability.dvm import DVMController, DVMPolicy
from repro.uarch import detailed, jit
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


def _run_case(bench, config, **kwargs):
    return DetailedSimulator(config).run(
        bench, n_samples=N_SAMPLES, instructions_per_sample=IPS, **kwargs)


def _job(bench, config, **kwargs):
    return SimJob(bench, config, backend="detailed", n_samples=N_SAMPLES,
                  instructions_per_sample=IPS, **kwargs)


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,bench,config", golden_cases(),
                         ids=[c[0] for c in golden_cases()])
def test_interpreter_matches_goldens(label, bench, config):
    assert _digest(_run_case(bench, config)) == GOLDEN_DIGESTS[label]


def test_jit_on_off_parity():
    """``REPRO_JIT`` compiles only the interval model's scan: a detailed
    run's streams do not move with it, whatever numba's state."""
    label, bench, config = golden_cases()[0]
    try:
        digests = set()
        for enabled in (False, True):
            jit.set_jit(enabled)
            digests.add(_digest(_run_case(bench, config)))
    finally:
        jit.set_jit(None)
    assert digests == {GOLDEN_DIGESTS[label]}


# ----------------------------------------------------------------------
# Snapshot round-trips
# ----------------------------------------------------------------------
def _interval_signature(stats):
    return (stats.cycles, stats.branch_mispredicts,
            stats.dvm_throttled_cycles, tuple(stats.counters.items()),
            tuple(stats.ace_bit_cycles.items()))


def _core_with_dvm():
    return OutOfOrderCore(baseline_config(),
                         dvm=DVMController(DVMPolicy(threshold=0.3)))


def _gcc_interval(i):
    return synthesize_interval(get_benchmark("gcc"), i, N_SAMPLES, IPS)


def test_snapshot_round_trip_bit_identical():
    """Every interval runs on a fresh core restored from the previous
    core's snapshot (DVM controller state included); the streams and
    the final snapshot match one core run straight through."""
    reference = _core_with_dvm()
    want = [_interval_signature(reference.run_interval(_gcc_interval(i)))
            for i in range(N_SAMPLES)]
    core = _core_with_dvm()
    got = []
    for i in range(N_SAMPLES):
        got.append(_interval_signature(core.run_interval(_gcc_interval(i))))
        snapshot = core.snapshot_state()
        core = _core_with_dvm()
        core.restore_state(snapshot)
    assert got == want
    final, expected = core.snapshot_state(), reference.snapshot_state()
    assert sorted(final) == sorted(expected)
    for key in final:
        assert np.array_equal(final[key], expected[key]), key


def test_restore_rejects_mismatched_shapes():
    snapshot = OutOfOrderCore(baseline_config()).snapshot_state()
    small = MachineConfig(il1_size_kb=8, dl1_size_kb=8)
    with pytest.raises(Exception, match="does not match"):
        OutOfOrderCore(small).restore_state(snapshot)


# ----------------------------------------------------------------------
# Dead-cycle skipping: interpreter vs an every-cycle stepper's digests
# ----------------------------------------------------------------------
def _exact(value):
    """``value`` with every float as its exact bit pattern."""
    if isinstance(value, dict):
        return tuple((key, _exact(item)) for key, item in value.items())
    if isinstance(value, float):
        return value.hex()
    return value


def _exact_stats(stats):
    return [_exact(getattr(stats, f.name)) for f in dataclasses.fields(stats)]


def _stream_digest(stats_list, snapshot) -> str:
    """First 16 hex digits of a sha256 over every interval's exact
    statistics and the final snapshot's arrays."""
    h = hashlib.sha256()
    for stats in stats_list:
        h.update(repr(_exact_stats(stats)).encode())
    for key in sorted(snapshot):
        h.update(key.encode())
        h.update(str(snapshot[key].dtype).encode())
        h.update(snapshot[key].tobytes())
    return h.hexdigest()[:16]


#: :func:`_stream_digest` of each :class:`TestDeadCycleSkip` case,
#: recorded from a struct-of-arrays kernel that stepped every cycle
#: (since deleted); the skipping interpreter must keep reproducing them.
DEAD_CYCLE_DIGESTS = {
    "0-bzip2-nodvm": "d344f63b919991d5",
    "0-bzip2-dvm0.05": "19a921e631427717",
    "0-bzip2-dvm0.3": "19a921e631427717",
    "1-crafty-nodvm": "9809df6fee000ce4",
    "1-crafty-dvm0.05": "6691cb449a7a6462",
    "1-crafty-dvm0.3": "6691cb449a7a6462",
    "2-eon-nodvm": "9a962442472f518f",
    "2-eon-dvm0.05": "31f77a5e7c220419",
    "2-eon-dvm0.3": "31f77a5e7c220419",
    "3-gap-nodvm": "7525613be5985f36",
    "3-gap-dvm0.05": "d7ed48f89c89fbec",
    "3-gap-dvm0.3": "d7ed48f89c89fbec",
    "4-gcc-nodvm": "0fd0d05cdc557194",
    "4-gcc-dvm0.05": "f76e9300e9e869a1",
    "4-gcc-dvm0.3": "f76e9300e9e869a1",
    "5-mcf-nodvm": "3b367cf6de607c09",
    "5-mcf-dvm0.05": "9509d84c4020d8e0",
    "5-mcf-dvm0.3": "9509d84c4020d8e0",
    "6-parser-nodvm": "e1da6ac260582593",
    "6-parser-dvm0.05": "f8f06da584de70c2",
    "6-parser-dvm0.3": "f8f06da584de70c2",
    "7-perlbmk-nodvm": "2d8fbfc64fd23c96",
    "7-perlbmk-dvm0.05": "823a06a6af208c3f",
    "7-perlbmk-dvm0.3": "823a06a6af208c3f",
    "8-swim-nodvm": "eff569cf8eba71e9",
    "8-swim-dvm0.05": "639f4757d47b25e6",
    "8-swim-dvm0.3": "639f4757d47b25e6",
    "9-twolf-nodvm": "770168deaf00520a",
    "9-twolf-dvm0.05": "68fc61e26c304333",
    "9-twolf-dvm0.3": "af2022417b8a2d79",
    "10-vortex-nodvm": "51d4526be419f2e1",
    "10-vortex-dvm0.05": "a7807dfb1b55fb24",
    "10-vortex-dvm0.3": "a7807dfb1b55fb24",
    "11-vpr-nodvm": "c7a46c5e40014a75",
    "11-vpr-dvm0.05": "2eb2bb2407d25932",
    "11-vpr-dvm0.3": "fda6186d67c91d87",
    "12-bzip2-nodvm": "801b8c68d7eb68ff",
    "12-bzip2-dvm0.05": "301e35fa14beaacb",
    "12-bzip2-dvm0.3": "301e35fa14beaacb",
    "13-crafty-nodvm": "22834da663775ff3",
    "13-crafty-dvm0.05": "d2ecb44d6b69c25d",
    "13-crafty-dvm0.3": "d2ecb44d6b69c25d",
    "14-eon-nodvm": "82ecd460ecb495b5",
    "14-eon-dvm0.05": "94ac009a3c5f3abd",
    "14-eon-dvm0.3": "94ac009a3c5f3abd",
    "15-gap-nodvm": "6ffbe25480ea1d1a",
    "15-gap-dvm0.05": "916cb06bf5845518",
    "15-gap-dvm0.3": "738e9000ab3736f6",
    "16-gcc-nodvm": "c6490fad0bc5e094",
    "16-gcc-dvm0.05": "0041bf3fa47d2bb9",
    "16-gcc-dvm0.3": "0041bf3fa47d2bb9",
    "17-mcf-nodvm": "9067f7358723e4ac",
    "17-mcf-dvm0.05": "fcbb1ac657e6fd9b",
    "17-mcf-dvm0.3": "fcbb1ac657e6fd9b",
    "18-parser-nodvm": "7675e38c33c8bb45",
    "18-parser-dvm0.05": "70c6690119672b36",
    "18-parser-dvm0.3": "70c6690119672b36",
    "19-perlbmk-nodvm": "b8d99a41b1fb092a",
    "19-perlbmk-dvm0.05": "aec03bdae91257d5",
    "19-perlbmk-dvm0.3": "aec03bdae91257d5",
    "20-swim-nodvm": "7fce619abdcce664",
    "20-swim-dvm0.05": "51f41efb4a8fdd00",
    "20-swim-dvm0.3": "51f41efb4a8fdd00",
    "21-twolf-nodvm": "8a137833879c1041",
    "21-twolf-dvm0.05": "1fe1781b4435269c",
    "21-twolf-dvm0.3": "1fe1781b4435269c",
    "22-vortex-nodvm": "8a9f173c9042dbe9",
    "22-vortex-dvm0.05": "e7c1e9c73f4861f4",
    "22-vortex-dvm0.3": "e7c1e9c73f4861f4",
    "23-vpr-nodvm": "392d9fbdeea7133d",
    "23-vpr-dvm0.05": "130192339e45376e",
    "23-vpr-dvm0.3": "130192339e45376e",
    "dvm_sample_inside_dead_run": "3c869866c53d3c67",
    "l2_miss_throttled_window": "c62eeea6328467ee",
    "mispredict_fetch_stall": "76f044e39fee5165",
}


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
                label, bench, (config.with_dvm(False) if dvm is None
                               else config.with_dvm(True, dvm)), id=label))
    return cases


class TestDeadCycleSkip:
    """The interpreter jumps over cycles in which nothing commits,
    issues, dispatches or fetches.  Every statistic and the final
    snapshot must match, to the bit, the digest recorded from a stepper
    that stepped every cycle, including where an event lands inside a
    dead run.
    """

    @staticmethod
    def _core(config):
        dvm = (DVMController(DVMPolicy(threshold=config.dvm_threshold))
               if config.dvm_enabled else None)
        return OutOfOrderCore(config, dvm=dvm)

    def _differential(self, case, config, traces):
        skipping = self._core(config)
        stats = [skipping.run_interval(trace) for trace in traces]
        assert (_stream_digest(stats, skipping.snapshot_state())
                == DEAD_CYCLE_DIGESTS[case])
        return stats, skipping

    @pytest.mark.parametrize("case,bench,config", _lhs_cases())
    def test_lhs_configs_match_stepping_kernel(self, case, bench, config):
        workload = get_benchmark(bench)
        self._differential(case, config, [
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
            "dvm_sample_inside_dead_run", config,
            [_hand_trace(ops, src1, address)])
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
        stats, _ = self._differential("l2_miss_throttled_window", config,
                                      [warm, probe])
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
            "mispredict_fetch_stall", baseline_config(),
            [_hand_trace(ops, taken=taken)] * 2)
        assert all(s.branch_mispredicts > 0 for s in stats)

    @pytest.mark.parametrize("dvm", [None, 0.3], ids=["nodvm", "dvm"])
    def test_max_cycles_guard_raises_at_same_cycle(self, dvm):
        """A load that never returns inside the interval's cycle budget
        trips the deadlock guard at ``max_cycles + 1``, with no cycle
        skipped past it."""
        config = MachineConfig(memory_latency=50_000)
        if dvm is not None:
            config = config.with_dvm(True, dvm)
        trace = _hand_trace([OpClass.LOAD, OpClass.INT_ALU], [0, 1],
                            [0x5000_0000, 0])
        limit = max(len(trace) * _MAX_CPI, 10_000)
        with pytest.raises(SimulationError,
                           match=f"at cycle {limit + 1} "):
            self._core(config).run_interval(trace)


# ----------------------------------------------------------------------
# Checkpointing on the array snapshot (format v2)
# ----------------------------------------------------------------------
class _Crash(Exception):
    pass


def crash_at(monkeypatch, interval):
    """Make the detailed interval loop crash when it synthesizes
    measured ``interval`` (before stepping it)."""
    original = detailed.synthesize_interval

    def failing(workload, i, n, ips, seed=None):
        if i == interval and seed is None:
            raise _Crash()
        if seed is None:
            return original(workload, i, n, ips)
        return original(workload, i, n, ips, seed=seed)

    monkeypatch.setattr(detailed, "synthesize_interval", failing)


def test_checkpoint_resume_mid_run(monkeypatch, tmp_path):
    """A crashed run resumes bit-identically from its snapshot (DVM
    controller state included)."""
    label, bench, config = golden_cases()[4]  # gcc-dvm
    path = tmp_path / "run.ckpt.npz"
    # Warmup + intervals 0..3 simulate; snapshot lands at next=3.
    crash_at(monkeypatch, 4)
    with pytest.raises(_Crash):
        _run_case(bench, config, checkpoint_every=3, checkpoint_path=path)
    monkeypatch.undo()
    assert path.exists()

    calls = []
    original = detailed.synthesize_interval

    def counting(workload, i, n, ips, seed=None):
        calls.append((i, seed))
        return original(workload, i, n, ips, seed=seed)

    monkeypatch.setattr(detailed, "synthesize_interval", counting)
    result = _run_case(bench, config, checkpoint_every=3,
                       checkpoint_path=path)
    assert _digest(result) == GOLDEN_DIGESTS[label]
    # No warmup, intervals 3..7 only.
    assert calls == [(i, None) for i in range(3, N_SAMPLES)]
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
