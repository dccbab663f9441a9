"""Unit tests for synthetic trace generation.

:data:`SYNTHESIS_DIGESTS` pins ``synthesize_interval``'s output bit for
bit; regenerate it with ``tools/capture_detailed_goldens.py`` after an
*intended* behaviour change.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.uarch.trace import InstructionTrace, OpClass
from repro.workloads.generator import (RawStream, synthesize_interval,
                                      synthesize_trace)
from repro.workloads.spec2000 import BENCHMARK_NAMES, get_benchmark

TRACE_FIELDS = ("op", "src1_dist", "src2_dist", "address", "pc", "taken",
                "ace")

#: sha256, per benchmark and ``n_samples x instructions_per_sample``
#: shape, over every field (name, dtype and bytes) of every interval of
#: the shape followed by the ``seed=1`` warm-up interval.
SYNTHESIS_DIGESTS = {
    "bzip2": {
        "32x1000":
            "0bfedae5e8099a28695838c2743142faf32e0d7e44cca94c4272888236ab1ed0",
        "16x400":
            "7281111ad0f043ad0df89936e023f2b9c51655204069e1c8582db181f6d4d693",
        "8x3":
            "19db64aea5c41569aa82821a19dcee246ca0f0052dce4072922d43905bcee9ce",
    },
    "crafty": {
        "32x1000":
            "34b5376c1914aad740e17249c096f84177cfddc6d217f9f2228a73022c71351f",
        "16x400":
            "b78af845230e2a589ed9318904340ad32077f8eb3306f151b0e2cb64bd809058",
        "8x3":
            "31424e4e3e0a80d847822f132ef0ae4fa8269f99a9e285b4eb54cf645bb7470f",
    },
    "eon": {
        "32x1000":
            "54b544157aeebe7d340bfc5e0690f757646aee3a783b7e31d7b6a986ff804e1b",
        "16x400":
            "987db35306570fad6da1ed3eba40ec6b8cdddafe4bfa1b94f6db59589801f353",
        "8x3":
            "5bdab286040944b233525a97781f19efb0f61a616ad362658858e18b10d50db0",
    },
    "gap": {
        "32x1000":
            "4aa9713e9658b18a73dd4de0c214edf12b8173d38640c71e91c104fbf25e73ef",
        "16x400":
            "36a92da974e30f0f758eaa39d522c502da0da5e4e1dcd82de10f4de0c2bde7b0",
        "8x3":
            "50a24fc0dcf911f478fc145b53530b61fe4519ce53e278151f6135e87cef2b98",
    },
    "gcc": {
        "32x1000":
            "b01289cc5c7999e909c849419f96746387b883d3e70458654b4e7fcb44e8de11",
        "16x400":
            "d36076d0de29c51297e6f77c7512dd7e8b705d07fadf61beaaea72518bd9fc7e",
        "8x3":
            "f1114231eb485ba6892da85eaf5aed20b7e44196cffda72b118421bec7bc6aa7",
    },
    "mcf": {
        "32x1000":
            "b7f9e0eb3c7b2914f83e5723d7d73c3ff4b6b2ca51d9cab56258f0dfdc93e7bf",
        "16x400":
            "4cacee17baa69a6229348578d98772cdd4208d2ad9e6b7d73d4a653791997811",
        "8x3":
            "54b51586f89acd54dda2c5afe9663f2d855c5442d8f2c1756999f61e9c6d1a94",
    },
    "parser": {
        "32x1000":
            "1ad43172930363fe34797dac0647714db39a98c1fdc2059ff6e77fd0fbd1fab2",
        "16x400":
            "244e992770677e48d585b1a338e37443f2814a6b9a12987992943fcefa4a3cde",
        "8x3":
            "80ed734b381e91348209d01ab0ae2a7f9a16a1127d620e3cc956ba4b1cbc713b",
    },
    "perlbmk": {
        "32x1000":
            "c18053815b7d72e6009b010d22d4181586de8951615e83ef70987481774f2229",
        "16x400":
            "56800339454d387c0b0a38b42d450b37c9eaf290f3273f6e90a7565989a4437a",
        "8x3":
            "ec149f9c4014e50ec2b4396be081aa49c6e3d6342a467a5f9a7dbd0e43571105",
    },
    "swim": {
        "32x1000":
            "9a16a5873f554dd561716c7d1ae220884c96a900ed5c7253ca4f96c5697c9c9f",
        "16x400":
            "e3b6a4bc8b8d990fa7f750b23b198d38a4419d9aaa9551c899b7e535b0d9f07d",
        "8x3":
            "71ab814e0d9335546b4bc2a5cdbe96033fc508be2349a1484f1e505d5d307ab7",
    },
    "twolf": {
        "32x1000":
            "37f294393bd5550169b743862e15c940f5a123123e98a764f43a1a71d1d017a9",
        "16x400":
            "4e92ceaa4ca41487fd432ec2ef49209967213f03ff805e3ea8e77a15093cc784",
        "8x3":
            "9723590714acc954657bdcb64baf787c97b6567a7119fe9ff8491aeb8ce42d35",
    },
    "vortex": {
        "32x1000":
            "6a6caddbe358672fa5e2ec027fcf41eed56ba972d33c0b0745884dbfb24e5673",
        "16x400":
            "68e9629b8308cecdd687ff5259e2f3d40699c736cfc7ddacec3f92156d458884",
        "8x3":
            "df1f983b1ddd2d472061fa93e50075ed575b1c6a68670bd800973323c1be31c4",
    },
    "vpr": {
        "32x1000":
            "7f001eb96d0ccffec1856e351d831263f51bbb535236fe3c831e8f303e6ed7bb",
        "16x400":
            "b4defea473af0f5574cb583aa3b702efaf4f578447589572a98460818111fc65",
        "8x3":
            "6efdde2c5bc5c6660749dbf5fd0691846d40411131d9173267748ca8e793da85",
    },
}


def _synthesis_digest(workload, n_samples, ips):
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


@pytest.mark.parametrize("bench", BENCHMARK_NAMES)
def test_synthesis_matches_digests(bench, monkeypatch):
    # Memo off: every interval is synthesized, none replayed.
    monkeypatch.setenv("REPRO_TRACE_MEMO", "0")
    workload = get_benchmark(bench)
    for shape, expected in SYNTHESIS_DIGESTS[bench].items():
        n_samples, ips = map(int, shape.split("x"))
        assert _synthesis_digest(workload, n_samples, ips) == expected, shape


class TestTraceContainer:
    def test_slice_view(self):
        trace = synthesize_interval(get_benchmark("gcc"), 0, 16, 200)
        sub = trace.slice(50, 100)
        assert len(sub) == 50
        assert np.array_equal(sub.op, trace.op[50:100])

    def test_bad_slice_rejected(self):
        trace = synthesize_interval(get_benchmark("gcc"), 0, 16, 100)
        with pytest.raises(WorkloadError):
            trace.slice(50, 20)
        with pytest.raises(WorkloadError):
            trace.slice(0, 101)

    def test_mismatched_fields_rejected(self):
        with pytest.raises(WorkloadError):
            InstructionTrace(
                op=np.zeros(4, dtype=np.int8),
                src1_dist=np.zeros(4, dtype=np.int64),
                src2_dist=np.zeros(4, dtype=np.int64),
                address=np.zeros(4, dtype=np.int64),
                pc=np.zeros(3, dtype=np.int64),      # wrong length
                taken=np.zeros(4, dtype=bool),
                ace=np.zeros(4, dtype=bool),
            )


class TestStatisticalFidelity:
    def test_deterministic(self):
        wl = get_benchmark("gcc")
        a = synthesize_interval(wl, 3, 64, 500)
        b = synthesize_interval(wl, 3, 64, 500)
        assert np.array_equal(a.op, b.op)
        assert np.array_equal(a.address, b.address)

    def test_different_intervals_differ(self):
        wl = get_benchmark("gcc")
        a = synthesize_interval(wl, 0, 64, 500)
        b = synthesize_interval(wl, 32, 64, 500)
        assert not np.array_equal(a.op, b.op)

    @pytest.mark.parametrize("bench", ["gcc", "swim", "mcf"])
    def test_mix_matches_model(self, bench):
        wl = get_benchmark(bench)
        n_samples = 16
        interval = 4
        trace = synthesize_interval(wl, interval, n_samples, 4000)
        observed = trace.mix_fractions()
        weights = wl.phase_weights(n_samples)[interval]
        for attr, key in (("f_load", "f_load"), ("f_branch", "f_branch"),
                          ("f_fp", "f_fp")):
            expected = float(weights @ wl.phase_vector(attr))
            assert observed[key] == pytest.approx(expected, abs=0.03)

    def test_memory_ops_have_addresses(self):
        trace = synthesize_interval(get_benchmark("gcc"), 0, 16, 1000)
        is_mem = (trace.op == OpClass.LOAD) | (trace.op == OpClass.STORE)
        assert np.all(trace.address[is_mem] > 0)
        assert np.all(trace.address[~is_mem] == 0)

    def test_ace_fraction_matches_model(self):
        wl = get_benchmark("gcc")
        trace = synthesize_interval(wl, 0, 16, 5000)
        weights = wl.phase_weights(16)[0]
        expected = float(weights @ wl.phase_vector("ace_fraction"))
        assert np.mean(trace.ace) == pytest.approx(expected, abs=0.03)

    def test_dependence_distances_positive(self):
        trace = synthesize_interval(get_benchmark("eon"), 0, 16, 1000)
        assert np.all(trace.src1_dist >= 1)
        assert np.all(trace.src2_dist >= 0)

    def test_swim_branch_fraction_tiny(self):
        trace = synthesize_interval(get_benchmark("swim"), 4, 16, 4000)
        assert trace.mix_fractions()["f_branch"] < 0.06

    def test_mcf_touches_larger_footprint_than_crafty(self):
        mcf = synthesize_interval(get_benchmark("mcf"), 0, 16, 3000)
        crafty = synthesize_interval(get_benchmark("crafty"), 0, 16, 3000)
        mcf_lines = np.unique(mcf.address[mcf.address > 0] // 64).size
        crafty_lines = np.unique(crafty.address[crafty.address > 0] // 64).size
        assert mcf_lines > crafty_lines

    def test_bad_length_rejected(self):
        with pytest.raises(WorkloadError):
            synthesize_interval(get_benchmark("gcc"), 0, 16, 0)


class TestSeedValidation:
    def test_integer_seeds_accepted(self):
        wl = get_benchmark("gcc")
        plain = synthesize_interval(wl, 0, 16, 200, seed=7)
        for seed in (np.int64(7), np.uint64(7), np.int32(7)):
            other = synthesize_interval(wl, 0, 16, 200, seed=seed)
            assert np.array_equal(other.address, plain.address)
            assert np.array_equal(other.pc, plain.pc)

    def test_generator_rejected(self):
        # A generator's draws depend on how far it has advanced, so it
        # cannot stand in a memo key, and a non-PCG64 one cannot be
        # replayed from raw output.
        wl = get_benchmark("gcc")
        for rng in (np.random.default_rng(1),
                    np.random.Generator(np.random.MT19937(1))):
            with pytest.raises(WorkloadError, match="seed"):
                synthesize_interval(wl, 0, 16, 200, seed=rng)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(WorkloadError, match="seed"):
            synthesize_interval(get_benchmark("gcc"), 0, 16, 200, seed=seed)


#: One draw for the stream reader: ``("random",)``, ``("integers", n)``
#: or ``("doubles", k)``.
_BOUNDS = st.one_of(
    st.just(1),                       # draws nothing
    st.just(64),                      # hot region: no rejection possible
    st.just(3 * 2**30),               # rejects about a quarter of words
    st.integers(2, 2**32),            # 32-bit words
    st.integers(2**32 + 1, 2**63),    # whole 64-bit outputs
)
_DRAWS = st.lists(st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), _BOUNDS),
    st.tuples(st.just("doubles"), st.integers(0, 5)),
), max_size=60)


def _play(draws, random, integers, doubles):
    out = []
    for kind, *args in draws:
        if kind == "random":
            out.append(random())
        elif kind == "integers":
            out.append(integers(*args))
        else:
            out.append(doubles(*args).tolist())
    return out


class TestRawStream:
    """The reader against the generator calls it stands in for."""

    @given(seed=st.integers(0, 2**64 - 1), carried=st.booleans(),
           size=st.integers(0, 80), draws=_DRAWS)
    @settings(max_examples=200, deadline=None)
    def test_matches_generator(self, seed, carried, size, draws):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if carried:
            # A 32-bit draw leaves the high half-word carried.
            rng.integers(5)
            twin.integers(5)
            assert rng.bit_generator.state["has_uint32"]
        stream = RawStream(rng, size)
        got = _play(draws, stream.random, stream.integers, stream.doubles)
        expected = _play(draws, twin.random, lambda n: int(twin.integers(n)),
                         twin.random)
        assert got == expected

    def test_lemire_rejection_extends_block(self):
        # With n = 3 * 2**30 a quarter of 32-bit words is rejected, so
        # 64 draws from a 1-output block must run past it repeatedly.
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        stream = RawStream(rng, 1)
        n = 3 * 2**30
        assert ([stream.integers(n) for _ in range(64)]
                == [int(twin.integers(n)) for _ in range(64)])
        assert stream.random() == twin.random()

    def test_one_draws_nothing(self):
        stream = RawStream(np.random.default_rng(9), 4)
        assert stream.integers(1) == 0
        assert stream.random() == np.random.default_rng(9).random()

    def test_non_pcg64_rejected(self):
        with pytest.raises(WorkloadError):
            RawStream(np.random.Generator(np.random.MT19937(1)), 8)


class TestFullTrace:
    def test_concatenation(self):
        wl = get_benchmark("eon")
        trace = synthesize_trace(wl, n_samples=4, instructions_per_sample=100)
        assert len(trace) == 400
        part = synthesize_interval(wl, 0, 4, 100)
        assert np.array_equal(trace.op[:100], part.op)
