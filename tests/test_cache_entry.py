"""The result cache's on-disk format: records packed in segments.

Pins the layout of :mod:`repro.engine.cache`: a ``put`` read back by a
fresh cache reproduces every array, dtype, shape and config field type
exactly.  Every damaged record inside a multi-record segment (truncated,
flipped byte, wrong magic, non-numeric dtype, an npz in its place) is a
miss for that key alone, and every damaged segment (truncated footer,
bad footer CRC, footer entry past the end, torn mid-record) a miss for
the keys it affects; either way the engine re-simulates bit-identically
and a fresh cache then hits.  Also pins that ``repro cache gc`` deletes
the files this version cannot read and nothing else, and that a segment
another process commits becomes visible without listing the directory
on every miss.
"""

import dataclasses
import io
import json
import os
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    VERSION_TAG,
    ExecutionEngine,
    ResultCache,
    SimJob,
    create_engine,
)
from repro.engine import cache as cache_module
from repro.engine.cache import (
    _PREFIX,
    _TRAILER,
    MAGIC,
    SUFFIX,
    _pack_footer,
    _read_footer,
)
from repro.errors import EngineError, SimulationError
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


@pytest.fixture(scope="module")
def siblings():
    """Two jobs stored in the same segment as ``interval_job``."""
    jobs = [SimJob("gcc", baseline_config(rob_size=64), n_samples=32),
            SimJob("gcc", baseline_config(l2_size_kb=512), n_samples=32)]
    return [(job, job.run()) for job in jobs]


class TestRoundTrip:
    @pytest.mark.parametrize("which", ["interval", "detailed"])
    def test_fresh_cache_reads_back_exactly(self, tmp_path, which,
                                            interval_job, detailed_job):
        job = interval_job if which == "interval" else detailed_job
        result = job.run()
        ResultCache(tmp_path).put(job.key(), result)
        fresh = ResultCache(tmp_path)
        loaded = fresh.get(job.key())
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
            cache.put(job.key(), job.run())
        lengths = {length for path in tmp_path.glob(f"*{SUFFIX}")
                   for _, _, length, _ in _read_footer(
                       path, path.stat().st_size)}
        assert len(lengths) == 1

    def test_empty_arrays_round_trip(self, tmp_path, interval_job,
                                     interval_result):
        odd = dataclasses.replace(
            interval_result, components={
                **interval_result.components,
                "none": np.zeros(0), "no_columns": np.zeros((3, 0))})
        ResultCache(tmp_path).put(interval_job.key(), odd)
        _assert_same(ResultCache(tmp_path).get(interval_job.key()), odd)

    def test_object_arrays_are_not_stored(self, tmp_path, interval_job,
                                          interval_result):
        bad = dataclasses.replace(
            interval_result,
            components={"odd": np.array([object()], dtype=object)})
        with pytest.raises(EngineError, match="non-numeric"):
            ResultCache(tmp_path).put(interval_job.key(), bad)
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Building and damaging segments
# ----------------------------------------------------------------------
def _records(path):
    """``[(key, record bytes)]`` of one segment, in file order."""
    data = path.read_bytes()
    return [(key, data[offset:offset + length]) for key, offset, length, _
            in _read_footer(path, len(data))]


def _segment(records):
    """A segment of ``records`` whose footer is consistent with them.

    Each entry's CRC is that of the record's own body, so only the
    record-level checks can reject a damaged record.
    """
    entries, offset = [], 0
    for key, record in records:
        entries.append((key, offset, len(record),
                        zlib.crc32(record[_PREFIX.size:])))
        offset += len(record)
    return b"".join(record for _, record in records) + _pack_footer(entries)


def _age(path, seconds=3600):
    """Date ``path`` back, as a segment damaged before the re-run."""
    stamp = path.stat().st_mtime - seconds
    os.utime(path, (stamp, stamp))


def _stored_segment(tmp_path, jobs):
    """Run ``jobs`` as one engine batch; the one segment it commits."""
    engine = create_engine(cache_dir=tmp_path)
    engine.run(jobs)
    [path] = tmp_path.glob(f"*{SUFFIX}")
    return path


def _recrc(record):
    """``record`` with its prefix CRC recomputed over the body."""
    magic, header_len, _ = _PREFIX.unpack_from(record)
    body = record[_PREFIX.size:]
    return _PREFIX.pack(magic, header_len, zlib.crc32(body)) + body


def _retyped(record, descr):
    """A well-formed record whose first trace claims dtype ``descr``."""
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


def _resimulated_then_hit(tmp_path, jobs, affected, expected):
    """The engine re-simulates exactly ``affected`` bit-identically, and
    a fresh cache then hits every job."""
    engine = create_engine(cache_dir=tmp_path)
    rerun = engine.run(jobs)
    assert engine.cache.stats.misses == len(affected)
    assert engine.cache.stats.disk_hits == len(jobs) - len(affected)
    for result, want in zip(rerun, expected):
        _assert_same(result, want)
    reread = ResultCache(tmp_path)
    for job, want in zip(jobs, expected):
        _assert_same(reread.get(job.key()), want)
    assert reread.stats.disk_hits == len(jobs)


class TestFaultInjection:
    @pytest.mark.parametrize("fault", sorted(CORRUPTIONS))
    def test_bad_entry_is_a_miss_and_is_overwritten(
            self, tmp_path, fault, interval_job, interval_result, siblings):
        (first, first_result), (last, last_result) = siblings
        jobs = [first, interval_job, last]
        path = _stored_segment(tmp_path, jobs)
        records = _records(path)
        assert [key for key, _ in records] == [job.key() for job in jobs]
        key, good = records[1]
        bad = CORRUPTIONS[fault](good, interval_result)
        assert bad != good
        path.write_bytes(_segment([records[0], (key, bad), records[2]]))
        _age(path)

        probe = ResultCache(tmp_path)
        assert probe.get(interval_job.key()) is None
        _assert_same(probe.get(first.key()), first_result)
        _assert_same(probe.get(last.key()), last_result)
        assert probe.stats.misses == 1 and probe.stats.disk_hits == 2

        # The re-simulated record lands in a newer segment, which
        # supersedes the damaged one.
        _resimulated_then_hit(tmp_path, jobs, [interval_job],
                              [first_result, interval_result, last_result])


def _truncated_footer(data, entries):
    records_end = entries[-1][1] + entries[-1][2]
    return data[:records_end + (len(data) - records_end) // 2], [0, 1, 2]


def _bad_footer_crc(data, entries):
    footer_len, crc, magic = _TRAILER.unpack(data[-_TRAILER.size:])
    trailer = _TRAILER.pack(footer_len, crc ^ 0x01, magic)
    return data[:-_TRAILER.size] + trailer, [0, 1, 2]


def _footer_offset_past_eof(data, entries):
    records_end = entries[-1][1] + entries[-1][2]
    moved = [list(entry) for entry in entries]
    moved[1][1] = len(data)
    return data[:records_end] + _pack_footer(moved), [1]


def _torn_mid_record(data, entries):
    _, offset, length, _ = entries[1]
    return data[:offset + length // 2], [0, 1, 2]


SEGMENT_FAULTS = {
    "truncated_footer": _truncated_footer,
    "bad_footer_crc": _bad_footer_crc,
    "footer_offset_past_eof": _footer_offset_past_eof,
    "torn_mid_record": _torn_mid_record,
}


class TestSegmentFaults:
    @pytest.mark.parametrize("fault", sorted(SEGMENT_FAULTS))
    def test_affected_keys_miss_and_resimulate(
            self, tmp_path, fault, interval_job, interval_result, siblings):
        (first, first_result), (last, last_result) = siblings
        jobs = [first, interval_job, last]
        expected = [first_result, interval_result, last_result]
        path = _stored_segment(tmp_path, jobs)
        data = path.read_bytes()
        bad, affected = SEGMENT_FAULTS[fault](
            data, _read_footer(path, len(data)))
        path.write_bytes(bad)
        _age(path)

        probe = ResultCache(tmp_path)
        for index, (job, want) in enumerate(zip(jobs, expected)):
            loaded = probe.get(job.key())
            if index in affected:
                assert loaded is None, index
            else:
                _assert_same(loaded, want)
        assert probe.stats.misses == len(affected)

        _resimulated_then_hit(tmp_path, jobs,
                              [jobs[index] for index in affected], expected)


class TestStaleFiles:
    def test_gc_removes_unreadable_files_and_spares_subdirectories(
            self, tmp_path, interval_job, interval_result):
        key = interval_job.key()
        ResultCache(tmp_path).put(key, interval_result)
        [live] = tmp_path.glob(f"*{SUFFIX}")
        record = _records(live)[0][1]
        # One file per job, as the earlier layouts wrote them; a
        # segment of another key version; a crashed writer's tmp file.
        stale = [tmp_path / f"{VERSION_TAG}-{key}.res",
                 tmp_path / f"{VERSION_TAG}-{key}.npz",
                 tmp_path / f"simjob-v0-{key}.npz",
                 tmp_path / f"simjob-v0-{key[:32]}{SUFFIX}",
                 tmp_path / f"{live.name}1234.tmp"]
        stale[0].write_bytes(record)
        stale[1].write_bytes(_legacy_npz(interval_result))
        stale[2].write_bytes(_legacy_npz(interval_result))
        stale[3].write_bytes(live.read_bytes())
        stale[4].write_bytes(record)
        _age(stale[4], seconds=2 * cache_module.ORPHAN_TMP_SECONDS)
        # Names the cache's gc would delete at the top level, but inside
        # the subdirectories other subsystems own.  (The checkpoint
        # sweep leaves these names alone too.)
        kept = [tmp_path / f"{live.name}5678.tmp",  # a live writer's
                tmp_path / "notes.txt",
                tmp_path / "checkpoints" / stale[0].name,
                tmp_path / "checkpoints" / stale[3].name,
                tmp_path / "numba-cache" / stale[1].name,
                tmp_path / "numba-cache" / stale[4].name]
        for path in kept:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(b"not the result cache's")
        _age(kept[-1], seconds=2 * cache_module.ORPHAN_TMP_SECONDS)

        out = io.StringIO()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        assert "entries:     1\n" in out.getvalue()
        assert "segments:    1\n" in out.getvalue()
        assert f"bytes:       {live.stat().st_size} " in out.getvalue()

        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        assert "stale files: removed 5 files" in out.getvalue()
        assert not any(path.exists() for path in stale)
        assert all(path.exists() for path in kept)
        assert live.exists()
        _assert_same(ResultCache(tmp_path).get(key), interval_result)

        # The per-job record is never read, even with no segment left.
        stale[0].write_bytes(record)
        live.unlink()
        assert ResultCache(tmp_path).get(key) is None


class _FailAfter:
    """Streams the first ``n`` results of a batch, then fails."""

    def __init__(self, n):
        self.n = n

    def submit_batch(self, jobs):
        for index, job in enumerate(jobs[:self.n]):
            yield index, job.run()
        raise SimulationError("injected executor failure")


class TestBatchCommits:
    @pytest.fixture
    def jobs(self):
        return [SimJob("twolf", baseline_config(rob_size=size), n_samples=16)
                for size in (64, 96, 128, 160)]

    def _segments(self, tmp_path):
        return sorted(tmp_path.glob(f"*{SUFFIX}"))

    def test_one_segment_when_the_batch_drains(self, tmp_path, jobs):
        engine = create_engine(cache_dir=tmp_path)
        stream = engine.submit(jobs).as_completed()
        next(stream), next(stream)
        assert self._segments(tmp_path) == []  # still pending
        list(stream)
        [path] = self._segments(tmp_path)
        assert {key for key, _ in _records(path)} == {j.key() for j in jobs}

    def test_executor_failure_commits_drained_results(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        handle = ExecutionEngine(_FailAfter(2), cache=cache).submit(jobs)
        with pytest.raises(SimulationError, match="injected"):
            handle.results()
        [path] = self._segments(tmp_path)
        assert [key for key, _ in _records(path)] \
            == [job.key() for job in jobs[:2]]
        fresh = ResultCache(tmp_path)
        assert [fresh.get(job.key()) is not None for job in jobs] \
            == [True, True, False, False]

    def test_abandoned_handle_loses_only_pending_results(self, tmp_path,
                                                         jobs):
        create_engine(cache_dir=tmp_path).run(jobs[:1])
        handle = create_engine(cache_dir=tmp_path).submit(jobs)
        handle.result(1)
        del handle  # abandoned: jobs[1] was stored but never committed
        engine = create_engine(cache_dir=tmp_path)
        rerun = engine.run(jobs)
        assert engine.cache.stats.disk_hits == 1
        assert engine.cache.stats.misses == 3
        for job, result in zip(jobs, rerun):
            _assert_same(result, job.run())

    def test_partial_writes_resume(self, tmp_path, jobs, monkeypatch):
        writev = os.writev

        def short_writev(fd, buffers):
            # At most 777 bytes per call, often ending mid-buffer.
            out, room = [], 777
            for buffer in buffers:
                out.append(buffer[:room])
                room -= len(out[-1])
                if not room:
                    break
            return writev(fd, out)

        monkeypatch.setattr(cache_module.os, "writev", short_writev)
        create_engine(cache_dir=tmp_path).run(jobs)
        fresh = ResultCache(tmp_path)
        for job in jobs:
            _assert_same(fresh.get(job.key()), job.run())

    def test_pending_bytes_past_the_limit_commit(self, tmp_path, jobs,
                                                 monkeypatch):
        monkeypatch.setattr(cache_module, "SEGMENT_BYTES", 1)
        create_engine(cache_dir=tmp_path).run(jobs)
        assert len(self._segments(tmp_path)) == len(jobs)


class TestSharedDirectory:
    def test_other_process_commit_becomes_visible(
            self, tmp_path, monkeypatch, interval_job, interval_result,
            siblings):
        listings = []
        scandir = os.scandir

        def counting_scandir(path):
            listings.append(path)
            return scandir(path)

        monkeypatch.setattr(cache_module.os, "scandir", counting_scandir)
        writer = ResultCache(tmp_path, memory_items=0)
        reader = ResultCache(tmp_path, memory_items=0)
        # Date the directory back, so the commit below changes its
        # mtime even on filesystems with coarse timestamps.
        _age(tmp_path)
        key = interval_job.key()
        assert reader.get(key) is None
        writer.put(key, interval_result)
        _assert_same(reader.get(key), interval_result)
        scanned = len(listings)
        for _ in range(3):
            for job, _ in siblings:
                assert reader.get(job.key()) is None
        assert len(listings) == scanned  # unchanged directory: no listing
        assert reader.stats.misses == 1 + 3 * len(siblings)
        assert reader.stats.disk_hits == 1
