"""The result cache's on-disk entry format.

Pins the single-record layout of :mod:`repro.engine.cache`: a ``put``
read back by a fresh cache reproduces every array, dtype, shape and
config field type exactly, and every damaged entry (truncated, flipped
byte, wrong magic, non-numeric dtype, legacy npz under the live name) is a
miss that re-simulates bit-identically and overwrites the bad entry.
"""

import dataclasses
import io
import json
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.engine import ResultCache, SimJob, create_engine
from repro.engine.cache import _PREFIX, LEGACY_SUFFIX, MAGIC, SUFFIX
from repro.errors import EngineError
from repro.uarch.params import baseline_config


def _arrays(result):
    return {**{f"trace/{k}": v for k, v in result.traces.items()},
            **{f"comp/{k}": v for k, v in result.components.items()}}


def _assert_same(loaded, expected):
    want, got = _arrays(expected), _arrays(loaded)
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert got[name].shape == arr.shape, name
        assert np.array_equal(got[name], arr, equal_nan=True), name
    assert loaded.benchmark == expected.benchmark
    assert loaded.backend == expected.backend
    assert loaded.n_samples == expected.n_samples
    assert loaded.config == expected.config


@pytest.fixture(scope="module")
def interval_job():
    return SimJob("gcc", baseline_config(rob_size=128, dvm_enabled=True),
                  n_samples=32)


@pytest.fixture(scope="module")
def interval_result(interval_job):
    return interval_job.run()


@pytest.fixture(scope="module")
def detailed_job():
    return SimJob("mcf", baseline_config(), backend="detailed",
                  n_samples=4, instructions_per_sample=100)


class TestRoundTrip:
    @pytest.mark.parametrize("which", ["interval", "detailed"])
    def test_fresh_cache_reads_back_exactly(self, tmp_path, which,
                                            interval_job, detailed_job):
        job = interval_job if which == "interval" else detailed_job
        result = job.run()
        ResultCache(tmp_path).put(job, result)
        fresh = ResultCache(tmp_path)
        loaded = fresh.get(job)
        assert fresh.stats.disk_hits == 1
        _assert_same(loaded, result)
        for field in dataclasses.fields(result.config):
            value = getattr(loaded.config, field.name)
            assert type(value) is type(getattr(result.config, field.name))
        assert loaded.config.key() == result.config.key()
        for name, arr in _arrays(loaded).items():
            assert arr.flags.writeable, name
            assert arr.base is None, name
        # Owning arrays: the memory tier keeps the loaded object itself.
        assert loaded.detach() is loaded

    def test_entries_of_one_layout_share_a_size(self, tmp_path):
        cache = ResultCache(tmp_path)
        for config in (baseline_config(), baseline_config(
                rob_size=128, l2_size_kb=512, dvm_threshold=0.125)):
            job = SimJob("gcc", config, n_samples=16)
            cache.put(job, job.run())
        sizes = {p.stat().st_size for p in tmp_path.glob(f"*{SUFFIX}")}
        assert len(sizes) == 1

    def test_object_arrays_are_not_stored(self, tmp_path, interval_job,
                                          interval_result):
        bad = dataclasses.replace(
            interval_result,
            components={"odd": np.array([object()], dtype=object)})
        with pytest.raises(EngineError, match="non-numeric"):
            ResultCache(tmp_path).put(interval_job, bad)
        assert list(tmp_path.iterdir()) == []


def _entry_path(cache_dir, job):
    return ResultCache(cache_dir)._path(job.key())


def _recrc(record):
    """``record`` with its prefix CRC recomputed over the body."""
    magic, header_len, _ = _PREFIX.unpack_from(record)
    body = record[_PREFIX.size:]
    return _PREFIX.pack(magic, header_len, zlib.crc32(body)) + body


def _retyped(record, descr):
    """A well-formed entry whose first trace claims dtype ``descr``."""
    _, header_len, _ = _PREFIX.unpack_from(record)
    start = _PREFIX.size
    header = json.loads(record[start:start + header_len])
    header["traces"][0][1] = descr
    text = json.dumps(header, separators=(",", ":")).encode("utf8")
    body = text + record[start + header_len:]
    return _recrc(_PREFIX.pack(MAGIC, len(text), 0) + body)


def _flip_last(record):
    return record[:-1] + bytes([record[-1] ^ 0x01])


def _legacy_npz(result):
    buffer = io.BytesIO()
    np.savez(buffer, benchmark=np.array(result.benchmark),
             **{f"trace_{k}": v for k, v in result.traces.items()})
    return buffer.getvalue()


CORRUPTIONS = {
    "empty": lambda record, result: b"",
    "truncated_in_prefix": lambda record, result: record[:_PREFIX.size - 3],
    "truncated_after_prefix": lambda record, result: record[:_PREFIX.size],
    "truncated_in_header": lambda record, result: record[:_PREFIX.size + 20],
    "truncated_mid_arrays": lambda record, result: record[:len(record) // 2],
    "truncated_last_byte": lambda record, result: record[:-1],
    "flipped_payload_byte": lambda record, result: _flip_last(record),
    "trailing_garbage": lambda record, result: _recrc(record + b"\0" * 8),
    "wrong_magic": lambda record, result: b"NOTREPRO" + record[8:],
    "object_dtype": lambda record, result: _retyped(record, "|O"),
    # Same item size as float64, and np.frombuffer would accept it.
    "bytes_dtype": lambda record, result: _retyped(record, "|S8"),
    "legacy_npz": lambda record, result: _legacy_npz(result),
}


class TestFaultInjection:
    @pytest.mark.parametrize("fault", sorted(CORRUPTIONS))
    def test_bad_entry_is_a_miss_and_is_overwritten(
            self, tmp_path, fault, interval_job, interval_result):
        ResultCache(tmp_path).put(interval_job, interval_result)
        path = _entry_path(tmp_path, interval_job)
        good = path.read_bytes()
        bad = CORRUPTIONS[fault](good, interval_result)
        assert bad != good
        path.write_bytes(bad)

        probe = ResultCache(tmp_path)
        assert probe.get(interval_job) is None
        assert probe.stats.misses == 1 and probe.stats.disk_hits == 0

        # The engine re-simulates the job and the store replaces the
        # bad entry with a good one.
        engine = create_engine(cache_dir=tmp_path)
        [rerun] = engine.run([interval_job])
        assert engine.cache.stats.misses == 1
        _assert_same(rerun, interval_job.run())
        assert path.read_bytes() == good
        reread = ResultCache(tmp_path)
        _assert_same(reread.get(interval_job), interval_result)
        assert reread.stats.disk_hits == 1


class TestLegacyEntries:
    def test_counted_never_read_and_collected(self, tmp_path, interval_job,
                                              interval_result):
        cache = ResultCache(tmp_path)
        cache.put(interval_job, interval_result)
        live = _entry_path(tmp_path, interval_job)
        legacy = live.with_suffix(LEGACY_SUFFIX)
        legacy.write_bytes(_legacy_npz(interval_result))
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 2
        assert fresh.disk_bytes() == (live.stat().st_size
                                      + legacy.stat().st_size)
        out = io.StringIO()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        assert "entries:     2" in out.getvalue()

        live.unlink()  # only the legacy entry is left for this key
        assert ResultCache(tmp_path).get(interval_job) is None

        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        assert "stale versions: removed 1 entries" in out.getvalue()
        assert not legacy.exists()
        assert len(ResultCache(tmp_path)) == 0
