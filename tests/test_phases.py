"""Unit and property tests for repro.workloads.phases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.phases import (
    FINE_RESOLUTION,
    SCALAR_ATTRIBUTES,
    NoiseModel,
    PhaseProfile,
    WorkloadModel,
    block_schedule,
    overlay_bursts,
    overlay_drift,
    overlay_periodic,
)


def _two_phase_model(name="toy"):
    phases = (
        PhaseProfile("a", ilp_limit=4.0),
        PhaseProfile("b", ilp_limit=2.0, f_load=0.4),
    )
    sched = block_schedule([(0, 0.5), (1, 0.5)])
    return WorkloadModel(name, phases, sched)


class TestPhaseProfile:
    def test_defaults_valid(self):
        p = PhaseProfile("x")
        assert 0 <= p.f_mem <= 1

    @pytest.mark.parametrize("kwargs", [
        {"f_load": 1.2},
        {"branch_mispredict": -0.1},
        {"ace_fraction": 2.0},
        {"ilp_limit": 0.0},
        {"mlp": 0.5},
        {"f_load": 0.5, "f_store": 0.4, "f_branch": 0.2},
        {"data_footprints": ((4.0, 0.8), (8.0, 0.4))},
        {"data_footprints": ((4.0, 0.6), (8.0, -0.1))},
    ])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            PhaseProfile("bad", **kwargs)


class TestScheduleBuilders:
    def test_block_schedule_lengths(self):
        sched = block_schedule([(0, 0.25), (1, 0.75)])
        assert sched.size == FINE_RESOLUTION
        assert np.sum(sched == 0) == FINE_RESOLUTION // 4

    def test_block_schedule_normalizes_fractions(self):
        a = block_schedule([(0, 1.0), (1, 3.0)])
        b = block_schedule([(0, 0.25), (1, 0.75)])
        assert np.array_equal(a, b)

    def test_empty_blocks_rejected(self):
        with pytest.raises(WorkloadError):
            block_schedule([])

    def test_overlay_periodic_duty(self):
        sched = np.zeros(FINE_RESOLUTION, dtype=int)
        out = overlay_periodic(sched, 1, period=128, duty=0.25)
        assert np.mean(out == 1) == pytest.approx(0.25, abs=0.01)
        assert np.all(sched == 0)  # original untouched

    def test_overlay_periodic_validation(self):
        sched = np.zeros(FINE_RESOLUTION, dtype=int)
        with pytest.raises(WorkloadError):
            overlay_periodic(sched, 1, period=1)
        with pytest.raises(WorkloadError):
            overlay_periodic(sched, 1, period=64, duty=1.5)

    def test_overlay_bursts_positions(self):
        sched = np.zeros(FINE_RESOLUTION, dtype=int)
        out = overlay_bursts(sched, 2, positions=(0.5,), width=0.04)
        hits = np.nonzero(out == 2)[0]
        assert hits.size > 0
        center = FINE_RESOLUTION // 2
        assert abs(hits.mean() - center) < FINE_RESOLUTION * 0.05

    def test_overlay_bursts_validation(self):
        sched = np.zeros(FINE_RESOLUTION, dtype=int)
        with pytest.raises(WorkloadError):
            overlay_bursts(sched, 1, positions=(1.2,), width=0.05)
        with pytest.raises(WorkloadError):
            overlay_bursts(sched, 1, positions=(0.5,), width=0.0)

    def test_overlay_drift_monotone_density(self):
        sched = np.zeros(FINE_RESOLUTION, dtype=int)
        out = overlay_drift(sched, 0, 1)
        first_half = np.mean(out[:FINE_RESOLUTION // 2] == 1)
        second_half = np.mean(out[FINE_RESOLUTION // 2:] == 1)
        assert second_half > first_half


class TestWorkloadModel:
    def test_schedule_validation(self):
        phases = (PhaseProfile("a"),)
        with pytest.raises(WorkloadError):
            WorkloadModel("bad", phases, np.zeros(10, dtype=int))
        with pytest.raises(WorkloadError):
            WorkloadModel("bad", phases,
                          np.ones(FINE_RESOLUTION, dtype=int))  # index 1 of 1

    @given(st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512, 1024]))
    @settings(max_examples=12, deadline=None)
    def test_phase_weights_rows_sum_to_one(self, n_samples):
        model = _two_phase_model()
        weights = model.phase_weights(n_samples)
        assert weights.shape == (n_samples, 2)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0.0)

    def test_bad_n_samples_rejected(self):
        model = _two_phase_model()
        with pytest.raises(WorkloadError):
            model.phase_weights(100)   # not a power of two
        with pytest.raises(WorkloadError):
            model.phase_weights(2048)  # beyond fine resolution

    def test_attribute_trace_mixes_phases(self):
        model = _two_phase_model()
        trace = model.attribute_trace("ilp_limit", 8)
        # First half phase a (4.0), second half phase b (2.0), with a
        # smoothed transition in between.
        assert trace[0] == pytest.approx(4.0, abs=0.01)
        assert trace[-1] == pytest.approx(2.0, abs=0.01)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(WorkloadError):
            _two_phase_model().attribute_trace("cache_misses", 8)

    def test_attributes_returns_all(self):
        attrs = _two_phase_model().attributes(16)
        assert set(attrs) == set(SCALAR_ATTRIBUTES)

    def test_smoothing_preserves_mean(self):
        model = _two_phase_model()
        smooth = model.phase_weights(64, smooth=True)
        raw = model.phase_weights(64, smooth=False)
        assert np.allclose(smooth.mean(axis=0), raw.mean(axis=0), atol=0.01)

    def test_footprint_components_padded(self):
        phases = (
            PhaseProfile("a", data_footprints=((4.0, 0.1),)),
            PhaseProfile("b", data_footprints=((5.0, 0.1), (9.0, 0.2))),
        )
        model = WorkloadModel("toy2", phases,
                              block_schedule([(0, 0.5), (1, 0.5)]))
        log2kb, weight = model.footprint_components()
        assert log2kb.shape == (2, 2)
        assert weight[0, 1] == 0.0  # padding


class TestNoiseModel:
    def test_domain_lookup(self):
        noise = NoiseModel(cpi=0.1, power=0.2, avf=0.05)
        assert noise.level("cpi") == 0.1
        assert noise.level("power") == 0.2
        assert noise.level("iq_avf") == 0.05

    def test_unknown_domain_rejected(self):
        with pytest.raises(WorkloadError):
            NoiseModel().level("temperature")
