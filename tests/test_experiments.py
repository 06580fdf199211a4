"""Experiment harness: configs, artifacts, persistence round-trips."""

import json

import numpy as np
import pytest

from shmgp import gp
from shmgp.config import ExperimentConfig
from shmgp.errors import ConfigError, DataError
from shmgp.experiments import run_experiment
from shmgp.model_io import load_model, read_csv, save_exact_gp, write_csv

FAST_TREND = {
    "task": "exact_gp",
    "seed": 0,
    "data": {"generator": "trend", "params": {"seed": 0, "n_samples": 120},
             "inputs": ["temperature"]},
    "split": {"type": "head_fraction", "fraction": 0.5},
    "model": {"kernel": {"family": "squared_exponential", "signal_scale": 3.0,
                         "lengthscales": 2.0},
              "mean": {"form": "linear_fit"}, "noise_var": 0.5},
}


class TestConfig:
    def test_roundtrip_lossless(self):
        cfg = ExperimentConfig.from_dict(FAST_TREND)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "mystery", "data": {}})

    def test_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAST_TREND, "surprise": 1})

    def test_malformed_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(bad)


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(ExperimentConfig.from_dict(FAST_TREND), output_dir=out)
        assert (out / "predictions.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "config.json").exists()
        header, data = read_csv(out / "predictions.csv")
        assert header == ["time", "y_true", "y_mean", "y_var"]
        assert data.shape[0] == 60
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["nmse_percent"] == pytest.approx(report.nmse_percent)

    def test_deterministic_metrics_across_runs(self, tmp_path):
        a = run_experiment(ExperimentConfig.from_dict(FAST_TREND), output_dir=tmp_path / "a")
        b = run_experiment(ExperimentConfig.from_dict(FAST_TREND), output_dir=tmp_path / "b")
        ma = json.loads((tmp_path / "a" / "metrics.json").read_text())
        mb = json.loads((tmp_path / "b" / "metrics.json").read_text())
        ma.pop("wall_ms"), mb.pop("wall_ms")
        assert ma == mb
        assert a.nmse_percent == b.nmse_percent

    def test_failed_run_leaves_no_outputs(self, tmp_path):
        out = tmp_path / "nothing"
        cfg = dict(FAST_TREND)
        cfg["data"] = {"path": str(tmp_path / "does-not-exist.csv")}
        with pytest.raises(Exception):
            run_experiment(ExperimentConfig.from_dict(cfg), output_dir=out)
        assert not out.exists() or not any(out.iterdir())

    def test_stride_split_and_csv_input(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.arange(80) * 0.5
        x = rng.uniform(-2, 2, 80)
        y = np.sin(x) + 0.01 * rng.standard_normal(80)
        write_csv(tmp_path / "data.csv", ["time", "x", "y"], [t, x, y])
        cfg = ExperimentConfig.from_dict({
            "task": "exact_gp",
            "data": {"path": str(tmp_path / "data.csv"), "inputs": ["x"], "target": "y"},
            "split": {"type": "stride", "stride": 4},
            "model": {"kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                                 "lengthscales": 1.0}, "noise_var": 0.001},
        })
        report = run_experiment(cfg, output_dir=tmp_path / "out")
        assert report.nmse_percent < 5.0

    def test_sdof_box_takes_the_time_step_of_the_kernel_input(self, tmp_path):
        # the first column is an index, so its step of 1 would cap omega_n at pi
        t = np.arange(400) * 0.025
        y = np.sin(9.4 * t) + 0.01 * np.random.default_rng(3).standard_normal(400)
        write_csv(tmp_path / "data.csv", ["index", "time", "y"], [np.arange(400.0), t, y])
        cfg = ExperimentConfig.from_dict({
            "task": "exact_gp",
            "data": {"path": str(tmp_path / "data.csv"), "inputs": ["time"]},
            "split": {"type": "stride", "stride": 8},
            "model": {"kernel": {"family": "sdof", "optimize": True}, "noise_var": 1e-4},
            "optimizer": {"particles": 8, "iterations": 10, "seed": 1},
        })
        run_experiment(cfg, output_dir=tmp_path / "out")
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["hyperparameters"]["omega_n"] > np.pi

    @pytest.mark.parametrize("inputs, error", [(["z"], DataError), (5, ConfigError)],
                             ids=["column-missing", "inputs-not-a-list"])
    def test_csv_columns_that_cannot_be_read(self, tmp_path, inputs, error):
        # a non-list data.inputs used to escape as a TypeError traceback
        write_csv(tmp_path / "data.csv", ["time", "x", "y"],
                  [np.arange(4.0), np.arange(4.0), np.ones(4)])
        cfg = ExperimentConfig.from_dict({
            "task": "exact_gp",
            "data": {"path": str(tmp_path / "data.csv"), "inputs": inputs},
            "model": {"kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                                 "lengthscales": 1.0}, "noise_var": 0.1},
        })
        with pytest.raises(error):
            run_experiment(cfg, output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unknown_split_type(self, tmp_path):
        cfg = dict(FAST_TREND)
        cfg["split"] = {"type": "bogus"}
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_dict(cfg), output_dir=tmp_path / "x")

    def test_unknown_generator(self, tmp_path):
        cfg = dict(FAST_TREND)
        cfg["data"] = {"generator": "nope"}
        with pytest.raises(ConfigError, match="unknown generator"):
            run_experiment(ExperimentConfig.from_dict(cfg), output_dir=tmp_path / "x")


class TestModelPersistence:
    def test_exact_gp_roundtrip(self, tmp_path):
        from shmgp.kernels import SquaredExponential

        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(20, 2))
        y = np.sin(X[:, 0]) + X[:, 1]
        model = gp.fit_exact(gp.Dataset(X, y), SquaredExponential(1.0, [0.5, 0.8]),
                             noise_var=0.01)
        save_exact_gp(tmp_path, model, ["a", "b"], "y")
        doc, loaded = load_model(tmp_path)
        assert doc["input_columns"] == ["a", "b"]
        Xs = rng.uniform(-1, 1, size=(7, 2))
        np.testing.assert_array_equal(gp.predict(model, Xs).mean,
                                      gp.predict(loaded, Xs).mean)
        np.testing.assert_array_equal(gp.predict(model, Xs).var,
                                      gp.predict(loaded, Xs).var)

    def test_narx_roundtrip(self, tmp_path, fit_narx):
        from shmgp.kernels import SquaredExponential
        from shmgp.model_io import save_narx
        from shmgp.narx import NarxConfig, ResidualMean, SequenceData, predict_osa
        from shmgp.physics import MorisonMean

        rng = np.random.default_rng(2)
        n = 60
        U = np.sin(0.3 * np.arange(n)) + 0.1 * rng.standard_normal(n)
        Ud = np.gradient(U, 0.1)
        yv = U * np.abs(U) + 0.5 * Ud
        seq = SequenceData(u=np.column_stack([U, Ud]), y=yv, dt=0.1)
        cfg = NarxConfig(2, 2, ResidualMean(MorisonMean(1.0, 0.5)))
        model = fit_narx(seq, cfg, SquaredExponential(1.0, 1.0), noise_var=1e-4)
        save_narx(tmp_path, model, ["U", "Udot"], "y")
        _, loaded = load_model(tmp_path)
        a_mean, a_var = predict_osa(model, seq)
        b_mean, b_var = predict_osa(loaded, seq)
        np.testing.assert_array_equal(a_mean, b_mean)
        np.testing.assert_array_equal(a_var, b_var)

    def test_reduced_rank_roundtrip(self, tmp_path):
        from shmgp.kernels import SquaredExponential
        from shmgp.model_io import save_reduced_rank
        from shmgp.reduced_rank import DomainSpec, fit_reduced, predict_reduced

        rng = np.random.default_rng(3)
        X = rng.uniform(-0.8, 0.8, size=(25, 1))
        y = np.sin(3 * X[:, 0])
        model = fit_reduced(gp.Dataset(X, y), DomainSpec([2.0], basis_counts=24),
                            SquaredExponential(1.0, 0.4), 1e-3)
        save_reduced_rank(tmp_path, model, ["x"], "y")
        _, loaded = load_model(tmp_path)
        Xs = np.linspace(-1, 1, 9).reshape(-1, 1)
        np.testing.assert_allclose(predict_reduced(model, Xs)[0],
                                   predict_reduced(loaded, Xs)[0], rtol=1e-12)


def test_narx_task_one_step_ahead(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "task": "narx", "seed": 1,
        "data": {"generator": "wave", "params": {"seed": 0, "segment": 120}, "level": 50},
        "model": {"lags": [2, 2], "mode": "residual_morison",
                  "morison": {"drag": 1.0, "inertia": 0.8},
                  "kernel": {"family": "squared_exponential", "optimize": True, "ard": True},
                  "noise_var": "optimize", "evaluation": "osa"},
        "optimizer": {"particles": 6, "iterations": 8, "seed": 1},
    })
    report = run_experiment(cfg, output_dir=tmp_path / "narx")
    assert report.nmse_percent < 50.0
    assert report.coverage_percent is not None
    header, data = read_csv(tmp_path / "narx" / "predictions.csv")
    assert header == ["time", "y_true", "y_mean", "y_var"]
    assert np.all(np.isfinite(data[:, 3]))


def test_write_read_csv_roundtrip(tmp_path):
    t = np.array([0.0, 0.5, 1.0])
    y = np.array([1.25, -0.5, 3.0])
    write_csv(tmp_path / "x.csv", ["time", "y"], [t, y])
    header, data = read_csv(tmp_path / "x.csv")
    assert header == ["time", "y"]
    np.testing.assert_array_equal(data[:, 1], y)
