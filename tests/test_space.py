"""Unit tests for repro.dse.space (Table 2)."""

import math

import numpy as np
import pytest

from repro._validation import rng_from_seed
from repro.dse.space import (
    DVM_PARAMETER,
    DesignSpace,
    Parameter,
    paper_design_space,
    table2_rows,
)
from repro.errors import ConfigurationError, SamplingError


class TestTable2:
    def test_nine_parameters(self):
        space = paper_design_space()
        assert space.n_parameters == 9
        assert space.names == (
            "fetch_width", "rob_size", "iq_size", "lsq_size", "l2_size_kb",
            "l2_latency", "il1_size_kb", "dl1_size_kb", "dl1_latency",
        )

    def test_level_sets_match_paper(self):
        space = paper_design_space()
        assert space.parameter("fetch_width").train_levels == (2, 4, 8, 16)
        assert space.parameter("fetch_width").test_levels == (2, 8)
        assert space.parameter("rob_size").train_levels == (96, 128, 160)
        assert space.parameter("l2_latency").train_levels == (8, 12, 14, 16, 20)
        assert space.parameter("dl1_size_kb").test_levels == (16, 32, 64)

    def test_test_levels_subset_of_train(self):
        # Table 2's test levels are all drawn from the train levels.
        for p in paper_design_space().parameters:
            assert set(p.test_levels) <= set(p.train_levels)

    def test_grid_sizes(self):
        space = paper_design_space()
        assert space.size("train") == 4 * 3 * 4 * 4 * 4 * 5 * 4 * 4 * 4
        assert space.size("test") == 2 * 2 * 2 * 3 * 3 * 3 * 3 * 3 * 3

    def test_table2_rows_render(self):
        rows = table2_rows()
        assert len(rows) == 9
        assert rows[0][0] == "fetch_width"
        assert rows[0][3] == 4


class TestEncoding:
    def test_encode_in_unit_interval(self):
        space = paper_design_space()
        for split in ("train", "test"):
            for cfg in space.sample_random(10, split=split, seed=3):
                vec = space.encode(cfg)
                assert vec.shape == (9,)
                assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_extremes_map_to_0_and_1(self):
        space = paper_design_space()
        lo = space.config_from_values({p.name: p.train_levels[0]
                                       for p in space.parameters})
        hi = space.config_from_values({p.name: p.train_levels[-1]
                                       for p in space.parameters})
        assert np.allclose(space.encode(lo), 0.0)
        assert np.allclose(space.encode(hi), 1.0)

    def test_log_scale_spacing(self):
        p = Parameter("x", (8, 16, 32, 64), (8, 64))
        # Log scale: each doubling is an equal step.
        vals = [p.encode(v) for v in (8, 16, 32, 64)]
        steps = np.diff(vals)
        assert np.allclose(steps, steps[0])

    def test_linear_scale(self):
        p = Parameter("x", (1, 2, 3, 4), (1, 4), log_scale=False)
        assert p.encode(2.5) == pytest.approx(0.5)

    def test_encode_many_shape(self):
        space = paper_design_space()
        cfgs = space.sample_random(5, seed=1)
        assert space.encode_many(cfgs).shape == (5, 9)

    @pytest.mark.parametrize("dvm", [False, True])
    def test_encode_many_equals_row_wise_encode(self, dvm):
        space = paper_design_space()
        if dvm:
            space = space.with_dvm_parameter()
        cfgs = (space.sample_random(300, split="train", seed=4)
                + space.sample_random(40, split="test", seed=5))
        if dvm:
            # Flip DVM on every other config so both levels occur.
            cfgs = [space.config_from_values(dict(
                space.values_of(c), dvm=i % 2)) for i, c in enumerate(cfgs)]
        X = space.encode_many(cfgs)
        rows = np.vstack([space.encode(c) for c in cfgs])
        assert X.shape == (len(cfgs), space.n_parameters)
        assert X.tobytes() == rows.tobytes()
        assert space.encode_many(cfgs[:1]).tobytes() == rows[:1].tobytes()

    def test_encode_many_one_parameter_space(self):
        space = DesignSpace((Parameter("rob_size", (96, 128), (96,)),))
        cfgs = space.sample_random(2, split="train", seed=0)
        X = space.encode_many(cfgs)
        assert X.shape == (2, 1)
        assert sorted(X[:, 0].tolist()) == [0.0, 1.0]

    def test_encode_many_zero_parameter_space(self):
        space = DesignSpace(())
        assert space.encode_many(space.sample_random(1)).shape == (1, 0)

    def test_encode_many_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            paper_design_space().encode_many([])

    def test_encode_matches_per_call_range(self):
        # The encoding range is computed once per parameter; it must be
        # the per-call union-of-levels range it replaced, bit for bit.
        for p in paper_design_space().with_dvm_parameter().parameters:
            scale = math.log2 if p.log_scale else float
            levels = set(p.train_levels) | set(p.test_levels)
            lo, hi = scale(min(levels)), scale(max(levels))
            for value in sorted(levels) + [p.train_levels[0] * 1.5]:
                expected = (scale(value) - lo) / (hi - lo)
                assert p.encode(value).hex() == expected.hex()
        flat = Parameter("x", (4,), (4,))
        assert flat.encode(4) == 0.5


class TestConfigConstruction:
    def test_level_indices_roundtrip(self):
        space = paper_design_space()
        cfg = space.config_from_level_indices([0] * 9, "train")
        assert cfg.fetch_width == 2
        assert cfg.l2_latency == 8

    def test_bad_index_rejected(self):
        space = paper_design_space()
        with pytest.raises(ConfigurationError):
            space.config_from_level_indices([9] * 9, "train")

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_design_space().config_from_level_indices([0] * 3)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_design_space().config_from_values({"cache_ways": 4})

    def test_values_of_roundtrip(self):
        space = paper_design_space()
        cfg = space.sample_random(1, seed=5)[0]
        values = space.values_of(cfg)
        rebuilt = space.config_from_values(values)
        assert rebuilt.key() == cfg.key()


class TestDvmSpace:
    def test_with_dvm_adds_tenth_parameter(self):
        space = paper_design_space().with_dvm_parameter()
        assert space.n_parameters == 10
        assert space.names[-1] == "dvm"

    def test_with_dvm_idempotent(self):
        space = paper_design_space().with_dvm_parameter()
        assert space.with_dvm_parameter() is space

    def test_dvm_value_maps_to_flag(self):
        space = paper_design_space().with_dvm_parameter()
        values = {p.name: p.train_levels[0] for p in space.parameters}
        values["dvm"] = 1
        cfg = space.config_from_values(values)
        assert cfg.dvm_enabled

    def test_dvm_parameter_definition(self):
        assert DVM_PARAMETER.train_levels == (0, 1)
        assert not DVM_PARAMETER.log_scale


class TestSampling:
    def test_unique_sampling(self):
        space = paper_design_space()
        cfgs = space.sample_random(50, split="test", seed=0)
        keys = {c.key() for c in cfgs}
        assert len(keys) == 50

    def test_values_come_from_split_levels(self):
        space = paper_design_space()
        for cfg in space.sample_random(20, split="test", seed=2):
            for p in space.parameters:
                assert getattr(cfg, p.name) in p.test_levels

    def test_oversampling_rejected(self):
        space = DesignSpace((Parameter("fetch_width", (2, 4), (2, 4)),))
        with pytest.raises(SamplingError):
            space.sample_random(3, split="train", seed=0)

    def test_duplicate_parameter_names_rejected(self):
        p = Parameter("fetch_width", (2, 4), (2,))
        with pytest.raises(ConfigurationError):
            DesignSpace((p, p))

    def test_unsorted_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", (4, 2), (2,))


def _reference_sample_random(space, n, split="test", seed=0, unique=True):
    """The scalar-draw loop: one ``rng.integers(high)`` per parameter per
    attempt, at most ``1000 * n`` attempts."""
    rng = rng_from_seed(seed)
    seen = set()
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise SamplingError("rejection sampling failed")
        idx = tuple(int(rng.integers(len(p.levels(split))))
                    for p in space.parameters)
        if unique:
            if idx in seen:
                continue
            seen.add(idx)
        out.append(space.config_from_level_indices(idx, split))
    return out


class _StuckGenerator(np.random.Generator):
    """Draws level 0 for everything and counts the values drawn."""

    drawn = 0

    def integers(self, high, size=None):
        shape = () if size is None else size
        self.drawn += int(np.prod(shape))
        zeros = np.zeros(shape, dtype=np.int64)
        return zeros if size is not None else int(zeros)


def _keys(configs):
    return [c.key() for c in configs]


class TestArrayWiseSampling:
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("unique", [True, False])
    def test_matches_scalar_draws(self, split, unique):
        space = paper_design_space()
        for seed in (0, 1, 17):
            for n in (1, 7, 50, 600):
                got = space.sample_random(n, split=split, seed=seed,
                                          unique=unique)
                ref = _reference_sample_random(space, n, split, seed, unique)
                assert _keys(got) == _keys(ref), (seed, n)

    @pytest.mark.parametrize("unique", [True, False])
    def test_tiny_space_with_duplicates(self, unique):
        space = DesignSpace((
            Parameter("fetch_width", (2, 4), (2, 4)),
            Parameter("rob_size", (96, 128, 160), (128,)),
            Parameter("iq_size", (32,), (32,)),
        ))
        for seed in range(5):
            for split in ("train", "test"):
                n = space.size(split) if unique else 25
                got = space.sample_random(n, split=split, seed=seed,
                                          unique=unique)
                ref = _reference_sample_random(space, n, split, seed, unique)
                assert _keys(got) == _keys(ref), (seed, split)
                if unique:
                    assert len(set(_keys(got))) == n

    @pytest.mark.parametrize("unique", [True, False])
    def test_passed_generator_ends_in_the_same_state(self, unique):
        space = DesignSpace((
            Parameter("fetch_width", (2, 4, 8), (2, 4, 8)),
            Parameter("rob_size", (96, 128), (96, 128)),
        ))
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        got = space.sample_random(6, split="train", seed=ours, unique=unique)
        ref = _reference_sample_random(space, 6, "train", theirs, unique)
        assert _keys(got) == _keys(ref)
        assert ours.integers(1 << 40) == theirs.integers(1 << 40)
        assert ours.random() == theirs.random()

    def test_attempt_guard_still_raises(self):
        space = paper_design_space()
        stuck = _StuckGenerator(np.random.PCG64(0))
        with pytest.raises(SamplingError, match="rejection sampling"):
            space.sample_random(3, split="train", seed=stuck)
        # The scalar loop drew 1000 * n attempts of 9 values, no more.
        assert stuck.drawn == 3 * 1000 * 9
        with pytest.raises(SamplingError):
            _reference_sample_random(space, 3, "train",
                                     _StuckGenerator(np.random.PCG64(0)))
        repeats = space.sample_random(3, split="train", unique=False,
                                      seed=_StuckGenerator(np.random.PCG64(0)))
        assert len(set(_keys(repeats))) == 1
