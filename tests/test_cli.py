"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestListing:
    def test_list_benchmarks(self):
        code, text = _run(["list-benchmarks"])
        assert code == 0
        for name in ("bzip2", "mcf", "vpr"):
            assert name in text

    def test_list_experiments(self):
        code, text = _run(["list-experiments"])
        assert code == 0
        assert "fig8" in text
        assert "Figure 8" in text


class TestSimulate:
    def test_simulate_default(self):
        code, text = _run(["simulate", "gcc", "--samples", "64"])
        assert code == 0
        assert "cpi" in text and "power" in text
        assert "fetch_width = 8" in text

    def test_simulate_with_overrides(self):
        code, text = _run([
            "simulate", "mcf", "--samples", "64",
            "--fetch-width", "2", "--l2-size-kb", "256",
        ])
        assert code == 0
        assert "fetch_width = 2" in text
        assert "l2_size_kb = 256" in text

    def test_simulate_with_dvm(self):
        code, text = _run(["simulate", "gcc", "--samples", "64", "--dvm",
                           "--dvm-threshold", "0.4"])
        assert code == 0
        assert "dvm = enabled" in text

    def test_unknown_benchmark_raises(self):
        from repro.errors import WorkloadError
        with pytest.raises(WorkloadError):
            _run(["simulate", "nonexistent"])


class TestDse:
    def test_active_search(self):
        code, text = _run([
            "dse", "gcc", "--active", "--samples", "32",
            "--budget", "22", "--batch-size", "6", "--n-init", "16",
            "--constraint", "power:max<=80", "--seed", "1",
        ])
        assert code == 0
        assert "init" in text and "ei" in text
        assert "22 simulations" in text
        assert "best feasible score" in text
        assert "fetch_width" in text

    def test_active_multi_objective(self):
        code, text = _run([
            "dse", "gcc", "--active", "--samples", "32",
            "--budget", "24", "--batch-size", "8", "--n-init", "16",
            "--objective", "cpi:mean", "--objective", "power:p99",
        ])
        assert code == 0
        assert "Pareto front" in text

    def test_predictive_search_without_active(self):
        code, text = _run([
            "dse", "gcc", "--samples", "32", "--n-train", "40",
            "--limit", "200", "--constraint", "power:max<=80",
        ])
        assert code == 0
        assert "trained on 40 simulations" in text
        assert "best predicted" in text

    def test_mode_mismatched_flags_rejected(self):
        from repro.errors import ModelError
        with pytest.raises(ModelError, match="--budget"):
            _run(["dse", "gcc", "--budget", "20"])  # forgot --active
        with pytest.raises(ModelError, match="--n-train"):
            _run(["dse", "gcc", "--active", "--n-train", "500"])

    def test_multi_objective_requires_active(self):
        from repro.errors import ModelError
        with pytest.raises(ModelError, match="--active"):
            _run(["dse", "gcc", "--objective", "cpi:mean",
                  "--objective", "power:p99"])

    def test_bad_specs_rejected(self):
        from repro.errors import ModelError
        with pytest.raises(ModelError):
            _run(["dse", "gcc", "--active", "--constraint", "power<100"])
        with pytest.raises(ModelError):
            _run(["dse", "gcc", "--constraint", "power:max<=high"])
        with pytest.raises(ModelError):
            _run(["dse", "gcc", "--objective", "cpi:mean:min"])


class TestOtherCommands:
    def test_simpoint(self):
        code, text = _run(["simpoint", "gcc", "--intervals", "32"])
        assert code == 0
        assert "representative interval" in text

    def test_run_experiment_table(self):
        code, text = _run(["run-experiment", "table2", "--scale", "quick"])
        assert code == 0
        assert "fetch_width" in text

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestConfig:
    def test_prints_every_setting_with_its_source(self, monkeypatch,
                                                  tmp_path):
        import os

        from repro import settings

        for knob in settings.KNOBS:
            monkeypatch.delenv(knob.variable, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JIT", "")  # empty means unset
        before = dict(os.environ)
        code, text = _run(["config", "--jobs", "2", "--jit",
                           "--checkpoint-every", "0"])
        assert code == 0
        rows = {line.split()[0]: line.split()[1:] for line in
                text.splitlines()}
        assert list(rows) == [knob.variable for knob in settings.KNOBS]
        assert rows["REPRO_JOBS"] == ["2", "flag"]
        assert rows["REPRO_JIT"] == ["True", "flag"]
        assert rows["REPRO_CHECKPOINT_EVERY"] == ["0", "flag"]
        assert rows["REPRO_CACHE_DIR"] == [str(tmp_path), "env"]
        assert rows["REPRO_CHECKPOINT_DIR"] == [
            str(tmp_path / "checkpoints"), "default"]
        assert rows["REPRO_SHM"] == ["True", "default"]
        assert rows["REPRO_CACHE_MAX_BYTES"] == ["-", "default"]
        # Printing the settings changes none of them.
        assert os.environ == before
        assert settings.get("jit") is False


class TestEngineFlags:
    @pytest.mark.parametrize("argv", [
        ["--jobs", "0"],
        ["--jobs", "-2"],
        ["--jobs", "two"],
        ["--cache-max-bytes", "-5"],
        ["--cache-max-bytes", "0"],
        ["--jit-threads", "0"],
        ["--checkpoint-every", "-3"],
    ])
    def test_out_of_range_engine_flags_are_usage_errors(self, argv, capsys):
        # Rejected by argparse (exit 2 with a usage line), before any
        # engine or cache is built.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "gcc"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro sweep")
        assert f"argument {argv[0]}" in err

    def test_no_shm_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code, text = _run(["sweep", "gcc", "--n-train", "2", "--n-test", "1",
                           "--samples", "64", "--no-shm"])
        assert code == 0
        assert "3 simulations" in text

    def test_shm_parallel_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code, text = _run(["sweep", "gcc", "--n-train", "4", "--n-test", "2",
                           "--samples", "64", "--jobs", "2", "--shm"])
        assert code == 0
        assert "2 worker(s)" in text

    def test_checkpoint_flag_threads_through_engine_not_env(
            self, monkeypatch, tmp_path):
        import argparse
        import os

        from repro.cli import _make_engine
        from repro.engine import SimJob
        from repro.uarch.params import baseline_config

        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        before = dict(os.environ)
        args = argparse.Namespace(
            jobs=None, cache_dir=str(tmp_path / "cache"),
            cache_max_bytes=None, progress=False, shm=None,
            checkpoint_every=5,
        )
        engine = _make_engine(args)
        # The settings live on the engine and are stamped onto detailed
        # jobs (pickled to any pool worker) — never exported.
        assert os.environ == before
        assert engine.checkpoint_every == 5
        assert engine.checkpoint_dir == str(
            tmp_path / "cache" / "checkpoints")
        job = engine._configure_job(
            SimJob("gcc", baseline_config(), backend="detailed",
                   n_samples=8, instructions_per_sample=40))
        assert job.checkpoint_every == 5
        assert job.checkpoint_dir == engine.checkpoint_dir
        # The key ignores checkpoint plumbing: one cache entry either way.
        assert job.key() == SimJob(
            "gcc", baseline_config(), backend="detailed",
            n_samples=8, instructions_per_sample=40).key()

    def test_no_repro_env_mutation_after_main(self, monkeypatch, tmp_path):
        import os

        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        before = dict(os.environ)
        code, _ = _run(["sweep", "gcc", "--n-train", "2", "--n-test", "1",
                        "--samples", "64", "--checkpoint-every", "5",
                        "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert os.environ == before
        code, _ = _run(["run-experiment", "table2", "--scale", "quick"])
        assert code == 0
        assert os.environ == before  # notably: no REPRO_SCALE leak

    def test_env_driven_checkpointing_follows_cache_dir_flag(
            self, monkeypatch, tmp_path):
        import argparse
        import os

        from repro.cli import _make_engine

        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "8")  # env, not flag
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        before = dict(os.environ)
        args = argparse.Namespace(
            jobs=None, cache_dir=str(tmp_path / "cache"),
            cache_max_bytes=None, progress=False, shm=None,
            checkpoint_every=None,
        )
        engine = _make_engine(args)
        assert os.environ == before
        assert engine.checkpoint_dir == str(
            tmp_path / "cache" / "checkpoints")
        # Env-driven settings are resolved into explicit engine config
        # so they ride inside the jobs to every worker.
        assert engine.checkpoint_every == 8

    def test_checkpoint_every_zero_flag_overrides_env(self, monkeypatch,
                                                      tmp_path):
        import argparse

        from repro.cli import _make_engine
        from repro.engine import SimJob
        from repro.uarch.params import baseline_config

        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "8")
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        args = argparse.Namespace(
            jobs=None, cache_dir=str(tmp_path / "cache"),
            cache_max_bytes=None, progress=False, shm=None,
            checkpoint_every=0,  # flag: explicitly disable
        )
        engine = _make_engine(args)
        assert engine.checkpoint_every == 0
        job = engine._configure_job(
            SimJob("gcc", baseline_config(), backend="detailed",
                   n_samples=8, instructions_per_sample=40))
        assert job.checkpoint_every == 0  # 0 wins over the environment
        from repro.uarch.detailed import resolve_checkpoint_settings

        assert resolve_checkpoint_settings(0, None) == (0, None)
