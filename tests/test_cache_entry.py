"""The result cache's on-disk format: blocks of rows packed in segments.

Pins the layout of :mod:`repro.engine.cache`: a ``put`` read back by a
fresh cache reproduces every array, dtype, shape and config field type
exactly.  A damaged row inside a multi-row block (truncated, flipped
byte, trailing garbage, an npz in its place) is a miss for that key
alone; a damaged block header (truncated, wrong magic, bad CRC,
non-numeric dtype) a miss for that block's keys while the segment's
other blocks still hit; and every damaged segment (truncated footer,
bad footer CRC, footer entry past the end, torn mid-row, an earlier
layout's trailer) a miss for the keys it affects.  Either way the
engine re-simulates bit-identically into a newer segment and a fresh
cache then hits.  Also pins that a sweep is bit-identical however warm
the cache is, that ``repro cache gc`` deletes the files this version
cannot read and nothing else, and that a segment another process
commits becomes visible without listing the directory on every miss.
"""

import dataclasses
import io
import json
import os
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.dse.lhs import sample_train_configs
from repro.dse.runner import SweepRunner
from repro.dse.space import paper_design_space
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
    SEGMENT_MAGIC,
    SUFFIX,
    _pack_footer,
    _read_footer,
)
from repro.engine.kernel import run_jobs
from repro.errors import EngineError, SimulationError
from repro.uarch.params import baseline_config
from repro.uarch.simulator import DOMAINS


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
        # The row of a one-row block over one private, writable copy:
        # the memory tier keeps the loaded object itself.
        assert len(loaded.block) == 1
        for name, arr in _arrays(loaded).items():
            assert arr.flags.writeable, name
            assert not np.shares_memory(arr, _arrays(result)[name]), name
        assert loaded.detach() is loaded

    def test_group_of_one_is_detached_as_a_copy(self, interval_job):
        """A group of one's arrays may view larger kernel intermediates:
        the memory tier keeps an owning copy, not the row itself."""
        [result] = run_jobs([interval_job])
        kept = result.detach()
        assert kept is not result and kept.block is None
        _assert_same(kept, result)
        for name, arr in _arrays(kept).items():
            assert arr.base is None, name

    def test_row_with_an_invalid_config_is_a_miss(self, tmp_path,
                                                  interval_job,
                                                  interval_result):
        """A row whose CRC holds but whose config fails validation (a
        dvm_threshold outside (0, 1)) reads back as a miss."""
        ResultCache(tmp_path).put(interval_job.key(), interval_result)
        [path] = tmp_path.glob(f"*{SUFFIX}")
        [(head, [(key, row, _)])] = _blocks(path)
        names = json.loads(head[_PREFIX.size:])["config"]
        values = np.frombuffer(row, "<f8", len(names)).copy()
        values[names.index("dvm_threshold")] = 2.0
        row = values.tobytes() + row[values.nbytes:]
        path.write_bytes(_segment([(head, [(key, row, zlib.crc32(row))])]))
        assert ResultCache(tmp_path).get(key) is None

    def test_entries_of_one_layout_share_a_size(self, tmp_path):
        cache = ResultCache(tmp_path)
        for config in (baseline_config(), baseline_config(
                rob_size=128, l2_size_kb=512, dvm_threshold=0.125)):
            job = SimJob("gcc", config, n_samples=16)
            cache.put(job.key(), job.run())
        lengths = {length for path in tmp_path.glob(f"*{SUFFIX}")
                   for _, _, _, length, _ in _footer(path)}
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
def _footer(path):
    """``[(key, block offset, row offset, length, crc)]`` of a segment."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return list(_read_footer(fd, path.stat().st_size))
    finally:
        os.close(fd)


def _blocks(path):
    """``[(block head, [(key, row bytes, crc)])]`` of one segment, in
    file order; the head is the block's prefix and header."""
    data = path.read_bytes()
    blocks = {}
    for key, block, offset, length, crc in _footer(path):
        head_end = block + _PREFIX.size + _PREFIX.unpack_from(data, block)[1]
        _, rows = blocks.setdefault(block, (data[block:head_end], []))
        rows.append((key, data[offset:offset + length], crc))
    return list(blocks.values())


def _segment(blocks):
    """A segment of ``blocks``, each ``(head, [(key, row, crc)])``.

    The footer lists each row where it now lies, with the CRC given:
    pass a damaged row with its original CRC to have it caught.
    """
    data, entries = b"", []
    for head, rows in blocks:
        block = len(data)
        data += head
        for key, row, crc in rows:
            entries.append((key, block, len(data), len(row), crc))
            data += row
    return data + _pack_footer(entries)


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


def _retyped(head, descr):
    """A well-formed block head whose first trace claims dtype ``descr``."""
    fields = json.loads(head[_PREFIX.size:])
    fields["traces"][0][1] = descr
    header = json.dumps(fields, separators=(",", ":")).encode()
    return _PREFIX.pack(MAGIC, len(header), zlib.crc32(header)) + header


def _flip_last(data):
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _legacy_npz(result):
    buffer = io.BytesIO()
    np.savez(buffer, benchmark=np.array(result.benchmark),
             **{f"trace_{k}": v for k, v in result.traces.items()})
    return buffer.getvalue()


#: Faults of one row, ``(row, crc, result) -> (row, crc)``: the row's
#: key misses, and the rest of its block still hits.
ROW_FAULTS = {
    "empty": lambda row, crc, result: (b"", crc),
    "truncated_mid_arrays": lambda row, crc, result: (row[:len(row) // 2],
                                                      crc),
    "truncated_last_byte": lambda row, crc, result: (row[:-1], crc),
    "flipped_payload_byte": lambda row, crc, result: (_flip_last(row), crc),
    # A matching CRC: only the row-length check can catch these.
    "trailing_garbage": lambda row, crc, result: (
        row + b"\0" * 8, zlib.crc32(row + b"\0" * 8)),
    "legacy_npz": lambda row, crc, result: (
        _legacy_npz(result), zlib.crc32(_legacy_npz(result))),
}

#: Faults of one block head, ``head -> head``: every key of that block
#: misses, and the segment's other blocks still hit.
HEADER_FAULTS = {
    "truncated_in_prefix": lambda head: head[:_PREFIX.size - 3],
    "truncated_after_prefix": lambda head: head[:_PREFIX.size],
    "truncated_in_header": lambda head: head[:_PREFIX.size + 20],
    "flipped_header_byte": lambda head: _flip_last(head),
    "wrong_magic": lambda head: b"NOTREPRO" + head[8:],
    "object_dtype": lambda head: _retyped(head, "|O"),
    # Same item size as float64, and np.frombuffer would accept it.
    "bytes_dtype": lambda head: _retyped(head, "|S8"),
}


def _resimulated_then_hit(tmp_path, jobs, affected, expected):
    """The engine re-simulates exactly ``affected`` bit-identically into
    a newer segment, and a fresh cache then hits every job."""
    engine = create_engine(cache_dir=tmp_path)
    rerun = engine.run(jobs)
    assert engine.cache.stats.misses == len(affected)
    assert engine.cache.stats.disk_hits == len(jobs) - len(affected)
    for result, want in zip(rerun, expected):
        _assert_same(result, want)
    # The damaged segment was dated back; a rewrite of the same key set
    # replaces it under its own name.
    newest = max(tmp_path.glob(f"*{SUFFIX}"),
                 key=lambda path: path.stat().st_mtime_ns)
    assert {key for key, *_ in _footer(newest)} \
        == {job.key() for job in affected}
    reread = ResultCache(tmp_path)
    for job, want in zip(jobs, expected):
        _assert_same(reread.get(job.key()), want)
    assert reread.stats.disk_hits == len(jobs)


class TestFaultInjection:
    @pytest.mark.parametrize("fault", sorted({*ROW_FAULTS, *HEADER_FAULTS}))
    def test_bad_entry_is_a_miss_and_is_overwritten(
            self, tmp_path, fault, interval_job, interval_result, siblings):
        """Block A holds ``first`` and ``interval_job``, block B holds
        ``last``; the fault hits ``interval_job``'s row or block A's
        head."""
        (first, first_result), (last, last_result) = siblings
        jobs = [first, interval_job, last]
        path = _stored_segment(tmp_path, jobs)
        [(head, rows)] = _blocks(path)  # one kernel group: one block
        assert [key for key, _, _ in rows] == [job.key() for job in jobs]
        bad_head, (key, row, crc) = head, rows[1]
        if fault in ROW_FAULTS:
            bad_row = (key, *ROW_FAULTS[fault](row, crc, interval_result))
            assert bad_row != rows[1]
            affected = [interval_job]
        else:
            bad_head, bad_row = HEADER_FAULTS[fault](head), rows[1]
            assert bad_head != head
            affected = [first, interval_job]
        path.write_bytes(_segment([(bad_head, [rows[0], bad_row]),
                                   (head, [rows[2]])]))
        _age(path)

        probe = ResultCache(tmp_path)
        for job, want in zip(jobs, [first_result, interval_result,
                                    last_result]):
            loaded = probe.get(job.key())
            if job in affected:
                assert loaded is None, job
            else:
                _assert_same(loaded, want)
        assert probe.stats.misses == len(affected)
        assert probe.stats.disk_hits == len(jobs) - len(affected)

        _resimulated_then_hit(tmp_path, jobs, affected,
                              [first_result, interval_result, last_result])


def _truncated_footer(data, entries):
    rows_end = entries[-1][2] + entries[-1][3]
    return data[:rows_end + (len(data) - rows_end) // 2], [0, 1, 2]


def _bad_footer_crc(data, entries):
    footer_len, crc, magic = _TRAILER.unpack(data[-_TRAILER.size:])
    trailer = _TRAILER.pack(footer_len, crc ^ 0x01, magic)
    return data[:-_TRAILER.size] + trailer, [0, 1, 2]


def _footer_offset_past_eof(data, entries):
    rows_end = entries[-1][2] + entries[-1][3]
    moved = [list(entry) for entry in entries]
    moved[1][2] = len(data)
    return data[:rows_end] + _pack_footer(moved), [1]


def _torn_mid_record(data, entries):
    _, _, offset, length, _ = entries[1]
    return data[:offset + length // 2], [0, 1, 2]


def _pre_bump_segment(data, entries):
    """The segment as the previous layout would end it: every key
    misses, and nothing of it is read."""
    old_magic = SEGMENT_MAGIC[:-1] + b"1"
    assert old_magic != SEGMENT_MAGIC
    return data[:-len(old_magic)] + old_magic, [0, 1, 2]


SEGMENT_FAULTS = {
    "truncated_footer": _truncated_footer,
    "bad_footer_crc": _bad_footer_crc,
    "footer_offset_past_eof": _footer_offset_past_eof,
    "torn_mid_record": _torn_mid_record,
    "pre_bump_segment": _pre_bump_segment,
}


class TestSegmentFaults:
    @pytest.mark.parametrize("fault", sorted(SEGMENT_FAULTS))
    def test_affected_keys_miss_and_resimulate(
            self, tmp_path, fault, interval_job, interval_result, siblings):
        (first, first_result), (last, last_result) = siblings
        jobs = [first, interval_job, last]
        expected = [first_result, interval_result, last_result]
        path = _stored_segment(tmp_path, jobs)
        bad, affected = SEGMENT_FAULTS[fault](path.read_bytes(),
                                              _footer(path))
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
        [(_, [(_, record, _)])] = _blocks(live)
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


class TestEarlierLayouts:
    def test_gc_removes_segments_of_an_earlier_layout(
            self, tmp_path, interval_job, interval_result):
        key = interval_job.key()
        ResultCache(tmp_path).put(key, interval_result)
        [live] = tmp_path.glob(f"*{SUFFIX}")
        # This key version's name, the previous layout's trailer magic.
        data = live.read_bytes()
        earlier = tmp_path / f"{VERSION_TAG}-{'0' * 32}{SUFFIX}"
        earlier.write_bytes(data[:-len(SEGMENT_MAGIC)] + b"REPROSG1")
        short = tmp_path / f"{VERSION_TAG}-{'1' * 32}{SUFFIX}"
        short.write_bytes(b"REPROSG2")  # shorter than any trailer
        assert ResultCache(tmp_path).describe()["disk_segments"] == 3

        removed, freed = ResultCache(tmp_path).gc_versions()
        assert (removed, freed) == (2, len(data) + len(b"REPROSG2"))
        assert sorted(tmp_path.iterdir()) == [live]
        _assert_same(ResultCache(tmp_path).get(key), interval_result)


#: ``(misses, disk hits, memory hits)`` of the final sweep over 8 configs.
WARMTH = {
    "cold": (8, 0, 0),
    "memory_warm": (0, 0, 8),
    "disk_warm": (0, 8, 0),
    "half_warm": (4, 4, 0),  # the sweep_cache pattern: half read back
}


class TestWarmth:
    """A sweep is bit-identical however warm its cache is."""

    @pytest.fixture(scope="class")
    def reference(self):
        configs = sample_train_configs(paper_design_space(), 8, seed=5)
        runner = SweepRunner(engine=ExecutionEngine(), n_samples=32)
        results = runner.engine.run(runner.jobs_for("gcc", configs))
        return configs, runner.run_configs("gcc", configs), results

    @pytest.mark.parametrize("warmth", sorted(WARMTH))
    def test_sweep_is_bit_identical(self, tmp_path, warmth, reference):
        configs, want, want_results = reference
        engine = create_engine(cache_dir=tmp_path)
        if warmth != "cold":
            # The warming sweep: this engine for the memory tier, an
            # earlier process's engine on the same directory otherwise.
            warmer = engine if warmth == "memory_warm" \
                else create_engine(cache_dir=tmp_path)
            SweepRunner(engine=warmer, n_samples=32).run_configs(
                "gcc", configs[::2] if warmth == "half_warm" else configs)
            engine.cache.stats = type(engine.cache.stats)()
        got = SweepRunner(engine=engine, n_samples=32).run_configs(
            "gcc", configs)
        stats = engine.cache.stats
        assert (stats.misses, stats.disk_hits, stats.memory_hits) \
            == WARMTH[warmth]
        for domain in DOMAINS:
            assert np.array_equal(got.domain(domain), want.domain(domain))
        # Every array of every row, read back by a fresh process.
        fresh = ResultCache(tmp_path)
        for config, result in zip(configs, want_results):
            job = SimJob("gcc", config, n_samples=32)
            _assert_same(fresh.get(job.key()), result)


class _FailAfter:
    """Streams the first ``n`` results of a batch, then fails."""

    def __init__(self, n):
        self.n = n

    def submit_batch(self, jobs):
        for index, job in enumerate(jobs[:self.n]):
            yield index, job.run()
        raise SimulationError("injected executor failure")


class _Owning:
    """Streams each result as a lone, writable copy, as a result
    unpickled from a pool worker arrives."""

    def submit_batch(self, jobs):
        for index, job in enumerate(jobs):
            yield index, job.run().detach()


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
        # One kernel group: one block holding every row.
        [(_, rows)] = _blocks(path)
        assert [key for key, _, _ in rows] == [job.key() for job in jobs]

    def test_executor_failure_commits_drained_results(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        handle = ExecutionEngine(_FailAfter(2), cache=cache).submit(jobs)
        with pytest.raises(SimulationError, match="injected"):
            handle.results()
        [path] = self._segments(tmp_path)
        assert [key for key, *_ in _footer(path)] \
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

    def test_kernel_rows_are_read_only(self, tmp_path, jobs):
        """A streamed kernel row cannot change before the batch drains."""
        stream = create_engine(cache_dir=tmp_path).submit(jobs).as_completed()
        _, result = next(stream)
        with pytest.raises(ValueError, match="read-only"):
            result.traces["cpi"] *= 2.0
        list(stream)
        fresh = ResultCache(tmp_path)
        for job in jobs:
            _assert_same(fresh.get(job.key()), job.run())

    def test_row_changed_before_the_commit_is_a_miss(self, tmp_path, jobs):
        """A writable streamed result changed in place before the batch
        drains keeps the CRC taken when it was stored: that key misses,
        the others hit."""
        handle = ExecutionEngine(_Owning(), cache=ResultCache(tmp_path)
                                 ).submit(jobs)
        stream = handle.as_completed()
        index, result = next(stream)
        result.traces["cpi"] *= 2.0
        list(stream)
        fresh = ResultCache(tmp_path)
        assert [fresh.get(job.key()) is None for job in jobs] \
            == [i == index for i in range(len(jobs))]

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

    def test_rows_of_one_block_in_any_order(self, tmp_path, jobs):
        """Rows put out of order, with a gap, gather into one block."""
        results = run_jobs(jobs)
        assert len({id(result.block) for result in results}) == 1
        cache = ResultCache(tmp_path, memory_items=0)
        pending = cache_module.PendingSegment()
        for index in (3, 0, 2):
            cache.put(jobs[index].key(), results[index], pending)
        cache.commit(pending)
        [(_, rows)] = _blocks(self._segments(tmp_path)[0])
        assert [key for key, _, _ in rows] \
            == [jobs[index].key() for index in (3, 0, 2)]
        fresh = ResultCache(tmp_path)
        for index in (3, 0, 2):
            _assert_same(fresh.get(jobs[index].key()), results[index])
        assert fresh.get(jobs[1].key()) is None


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
