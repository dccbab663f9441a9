"""Tests for the experiment registry and the light experiment drivers.

The heavy figure experiments are exercised by the benchmark harness at
full scale; here we run them at a deliberately tiny scale to check
wiring, table structure and headline invariants quickly.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.context import ExperimentContext, Scale
from repro.experiments.registry import ExperimentTable


@pytest.fixture(scope="module")
def tiny_ctx():
    scale = Scale(
        name="tiny", n_train=60, n_test=12, n_samples=64,
        benchmarks=("gcc", "mcf", "swim"),
        fig9_benchmarks=("gcc",), fig10_benchmarks=("gcc",),
    )
    return ExperimentContext(scale)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = list_experiments()
        for required in ("table1", "table2", "fig1", "fig4", "fig7", "fig8",
                         "fig9", "fig10", "fig11", "fig13", "fig14", "fig17",
                         "fig18", "fig19"):
            assert required in ids

    def test_ablations_registered(self):
        ids = list_experiments()
        for required in ("abl-selection", "abl-baselines", "abl-wavelet",
                         "val-backend"):
            assert required in ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_result_table_lookup(self):
        result = ExperimentResult("x", "t", "ref", tables=[
            ExperimentTable("Alpha Beta", ("a",), [[1]]),
        ])
        assert result.table("alpha").rows == [[1]]
        with pytest.raises(ExperimentError):
            result.table("gamma")


class TestLightExperiments:
    def test_table1(self, tiny_ctx):
        result = run_experiment("table1", tiny_ctx)
        assert len(result.table("Baseline").rows) == 15

    def test_table2(self, tiny_ctx):
        result = run_experiment("table2", tiny_ctx)
        assert len(result.table("Design space").rows) == 9

    def test_fig4_monotone(self, tiny_ctx):
        result = run_experiment("fig4", tiny_ctx)
        errors = [r[1] for r in result.table("reconstruction").rows]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_fig1_structure(self, tiny_ctx):
        result = run_experiment("fig1", tiny_ctx)
        assert len(result.table("Trace ranges").rows) == 9

    def test_render_includes_tables(self, tiny_ctx):
        text = run_experiment("table2", tiny_ctx).render()
        assert "fetch_width" in text
        assert "Table 2" in text


class TestPipelineExperiments:
    def test_fig8_tiny(self, tiny_ctx):
        result = run_experiment("fig8", tiny_ctx)
        overall = {r[0]: r[1] for r in result.table("Overall").rows}
        assert set(overall) == {"cpi", "power", "avf"}
        for median in overall.values():
            assert 0.0 < median < 50.0

    def test_fig7_stability(self, tiny_ctx):
        result = run_experiment("fig7", tiny_ctx)
        rows = result.table("stability").rows
        assert all(0.0 <= r[1] <= 1.0 for r in rows)

    def test_fig13_bounds(self, tiny_ctx):
        result = run_experiment("fig13", tiny_ctx)
        for domain in ("CPI", "POWER", "AVF"):
            for row in result.table(f"{domain} directional").rows:
                assert all(0.0 <= v <= 100.0 for v in row[1:])

    def test_fig14_traces(self, tiny_ctx):
        result = run_experiment("fig14", tiny_ctx)
        assert len(result.table("Representative").rows) == 3

    def test_fig11_scores(self, tiny_ctx):
        result = run_experiment("fig11", tiny_ctx)
        rows = result.table("frequency").rows
        assert len(rows) == 9  # 3 benchmarks x 3 domains


class TestContext:
    def test_dataset_cached(self, tiny_ctx):
        a = tiny_ctx.dataset("gcc")
        b = tiny_ctx.dataset("gcc")
        assert a is b

    def test_model_cached(self, tiny_ctx):
        a = tiny_ctx.model("gcc", "cpi")
        b = tiny_ctx.model("gcc", "cpi")
        assert a is b

    def test_dvm_dataset_contains_dvm_configs(self, tiny_ctx):
        train, test = tiny_ctx.dataset("gcc", dvm=True)
        assert any(c.dvm_enabled for c in train.configs)
        assert any(not c.dvm_enabled for c in train.configs)
