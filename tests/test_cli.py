"""Command-line interface: subcommands, exit codes, file contracts."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shmgp.cli import main
from shmgp.model_io import read_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FAST_CONFIG = {
    "task": "exact_gp",
    "seed": 0,
    "data": {"generator": "trend", "params": {"seed": 0, "n_samples": 120},
             "inputs": ["temperature"]},
    "split": {"type": "head_fraction", "fraction": 0.5},
    "model": {"kernel": {"family": "squared_exponential", "signal_scale": 3.0,
                         "lengthscales": 2.0},
              "mean": {"form": "linear_fit"}, "noise_var": 0.5},
}

FAST_NARX = {
    "task": "narx",
    "seed": 1,
    "data": {"generator": "wave", "params": {"seed": 0, "segment": 120}, "level": 50},
    "model": {"lags": [2, 2], "mode": "residual_morison",
              "morison": {"drag": 1.0, "inertia": 0.8},
              "kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                         "lengthscales": 1.0},
              "noise_var": 1e-3, "evaluation": "osa"},
}

FAST_FORCE = {
    "task": "latent_force",
    "seed": 0,
    "data": {"generator": "mdof_chain",
             "params": {"masses": [1.0, 1.0], "dampings": [0.5, 0.5], "stiffnesses": [8.0, 6.0],
                        "dt": 0.05, "observed": [["displacement", 1]], "noise_std": 0.001,
                        "seed": 3, "force": {"n_samples": 80, "seed": 4}}},
    "model": {"nu": 1.5, "sigma": 2.0, "lengthscale": 0.6, "noise_var": 1e-06},
}

# generator specs whose params the generator cannot run, as
# (generator spec, change to its params; None removes the parameter)
BAD_GENERATOR_PARAMS = [
    pytest.param(FAST_CONFIG["data"], {"bogus": 1}, id="trend-misspelt-param"),
    pytest.param(FAST_FORCE["data"], {"masses": None}, id="mdof-no-masses"),
    pytest.param(FAST_FORCE["data"], {"force": None}, id="mdof-no-force"),
    pytest.param(FAST_FORCE["data"], {"force": {"seed": 4}}, id="mdof-no-n_samples"),
    pytest.param(FAST_FORCE["data"], {"observed": [["strain", 0]]}, id="mdof-strain"),
    pytest.param(FAST_FORCE["data"], {"observed": [["displacement", 2]]}, id="mdof-observed-dof"),
    pytest.param(FAST_FORCE["data"], {"force_dof": 5}, id="mdof-force_dof"),
    pytest.param(FAST_FORCE["data"], {"dampings": [0.5]}, id="mdof-one-damper"),
    pytest.param(FAST_FORCE["data"], {"substeps": 0}, id="mdof-substeps-0"),
    pytest.param(FAST_FORCE["data"], {"dt": -0.05}, id="mdof-dt-negative"),
    pytest.param(FAST_FORCE["data"], {"observed": 5}, id="mdof-observed-not-a-list"),
    pytest.param(FAST_FORCE["data"], {"force": "x"}, id="mdof-force-not-an-object"),
]

TREND = json.loads((CONFIGS / "trend_zero_mean.json").read_text())
FIELD = json.loads((CONFIGS / "reduced_rank_field.json").read_text())
FIELD_GP = json.loads((CONFIGS / "field_exact_gp.json").read_text())
FAST_TUNED = dict(FAST_CONFIG, optimizer={"particles": 2, "iterations": 1},
                  model={"kernel": {"family": "squared_exponential", "optimize": True},
                         "noise_var": 0.5})


def _with(doc, section, **changes):
    return {**doc, section: {**doc[section], **changes}}


# a section the task does not read, and a bound on a noise variance that is
# not tuned, as id -> (config, the key its one-line message names)
UNUSED_SECTIONS = {
    "narx-split": (dict(FAST_NARX, split={"type": "bogus"}), "split"),
    "latent_force-split": (dict(FAST_FORCE, split={"type": "bogus"}), "split"),
    "reduced_rank-optimizer": (dict(FIELD, optimizer={"particles": 0}), "optimizer"),
    # the field's own train and test tables are its split
    "bounded_field-reduced_rank-split": (dict(FIELD, split={"type": "head_fraction"}), "split"),
    "bounded_field-exact_gp-split": (dict(FIELD_GP, split={"type": "head_fraction"}), "split"),
    "bounds-noise_var-fixed-noise": (
        _with(_with(TREND, "model", noise_var=0.01), "optimizer",
              bounds={"noise_var": [1e-3, 0.1]}), "noise_var"),
    "bounds-noise_var-fixed-kernel": (
        dict(FAST_CONFIG, optimizer={"bounds": {"noise_var": [1e-3, 0.1]}}), "noise_var"),
}

# configs with one malformed section; each must exit 2 before any fit
MALFORMED_SECTIONS = [
    pytest.param(_with(FIELD, "model", domain={"boundary": "dirichlet"}),
                 id="domain-no-half_widths"),
    pytest.param(_with(FIELD, "model", domain={**FIELD["model"]["domain"], "bogus": 1}),
                 id="domain-unknown-key"),
    pytest.param(_with(FIELD, "model", domain={**FIELD["model"]["domain"], "boundary": "periodic"}),
                 id="domain-periodic"),
    pytest.param(_with(FIELD, "model", noise_var="abc"), id="reduced_rank-noise_var-string"),
    pytest.param(_with(FIELD, "model", bogus=1), id="reduced_rank-model-unknown-key"),
    pytest.param(_with(FAST_CONFIG, "model", bogus=1), id="exact_gp-model-unknown-key"),
    pytest.param(_with(FAST_NARX, "model", bogus=1), id="narx-model-unknown-key"),
    pytest.param(_with(FAST_NARX, "model", lags=[4]), id="lags-one-entry"),
    pytest.param(_with(FAST_NARX, "model", lags=[4.5, 4]), id="lags-not-integer"),
    pytest.param(_with(FAST_NARX, "model", lags=[-1, 4]), id="lags-negative"),
    pytest.param(_with(FAST_NARX, "model", evaluation="freerun"), id="evaluation-freerun"),
    pytest.param(_with(FAST_NARX, "data", level="abc"), id="level-string"),
    pytest.param(_with(FAST_CONFIG, "split", bogus=1), id="split-unknown-key"),
    pytest.param(_with(FAST_CONFIG, "split", fraction="x"), id="split-fraction-string"),
    pytest.param(dict(FAST_CONFIG, split={"type": "stride", "stride": "x"}),
                 id="split-stride-string"),
    pytest.param(_with(FAST_CONFIG, "data", inputs=["nope"]), id="inputs-not-generated"),
    pytest.param(_with(FAST_CONFIG, "data", target="nope"), id="target-not-generated"),
    pytest.param(_with(FAST_CONFIG, "model", noise_var=-0.5), id="noise_var-negative-fixed"),
    pytest.param(_with(FAST_TUNED, "model", noise_var=-0.5), id="noise_var-negative-tuned"),
    # the log-space search needs finite bounds with 0 < lower < upper
    pytest.param(_with(TREND, "optimizer", bounds={"lengthscale": [10, 1]}), id="bounds-reversed"),
    pytest.param(_with(TREND, "optimizer", bounds={"lengthscale": [0, 1]}), id="bounds-zero"),
    pytest.param(_with(TREND, "optimizer", bounds={"noise_var": [1e-6, float("inf")]}),
                 id="bounds-infinite"),
    pytest.param(_with(TREND, "optimizer", bounds={"lengthscale": [1]}), id="bounds-one-value"),
    pytest.param(_with(TREND, "optimizer", bounds={"lengthscale": "1, 10"}),
                 id="bounds-string"),
    pytest.param(dict(FAST_FORCE, optimizer={"particles": 2, "iterations": 1,
                                             "bounds": {"sigma": [0, 1]}}),
                 id="latent_force-bounds-zero"),
    pytest.param(_with(FIELD, "model", domain={**FIELD["model"]["domain"], "half_widths": [1.0],
                                               "basis_counts": [10]}),
                 id="domain-dimension-not-data"),
    # each source and task takes its own data keys
    pytest.param(_with(FAST_CONFIG, "data", bogus=1), id="exact_gp-data-unknown-key"),
    pytest.param(_with(FAST_CONFIG, "data", level=50), id="exact_gp-data-level"),
    pytest.param(dict(FAST_CONFIG, data={"path": "data.csv", "params": {}}),
                 id="csv-data-params"),
    pytest.param(_with(FAST_NARX, "data", bogus=1), id="narx-data-unknown-key"),
    pytest.param(_with(FAST_NARX, "data", inputs=["U"]), id="narx-data-inputs"),
    pytest.param(_with(FIELD, "data", bogus=1), id="reduced_rank-data-unknown-key"),
    pytest.param(_with(FIELD, "data", target="nope"), id="bounded_field-data-target"),
    pytest.param(_with(FAST_FORCE, "data", bogus=1), id="latent_force-data-unknown-key"),
    pytest.param(_with(FAST_FORCE, "data", params=[1]), id="data-params-not-object"),
    *(pytest.param(doc, id=name) for name, (doc, _) in UNUSED_SECTIONS.items()),
]


def _bad_params(spec, change):
    params = {**spec["params"], **change}
    return {**spec, "params": {k: v for k, v in params.items() if v is not None}}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestGenerate:
    def test_writes_named_csv(self, tmp_path):
        spec = _write_config(tmp_path, {"generator": "trend",
                                        "params": {"seed": 1, "n_samples": 48}}, "gen.json")
        out = tmp_path / "data"
        assert main(["generate", str(spec), "-o", str(out)]) == 0
        header, data = read_csv(out / "data.csv")
        assert header == ["time", "temperature", "sin_daily", "cos_daily", "y"]
        assert data.shape == (48, 5)
        assert (out / "generator.json").exists()

    def test_mdof_generator_emits_truth_force(self, tmp_path):
        spec = _write_config(tmp_path, {
            "generator": "mdof_chain",
            "params": {"masses": [1.0], "dampings": [0.4], "stiffnesses": [5.0],
                       "dt": 0.02, "observed": [["displacement", 0]],
                       "noise_std": 0.001, "seed": 1,
                       "force": {"n_samples": 100, "seed": 2}}}, "gen.json")
        out = tmp_path / "mdof"
        assert main(["generate", str(spec), "-o", str(out)]) == 0
        header, data = read_csv(out / "data.csv")
        assert header == ["time", "displacement_0", "force_true"]
        assert data.shape == (100, 3)

    @pytest.mark.parametrize("spec", sorted(p.name for p in CONFIGS.glob("generate_*.json")))
    def test_shipped_spec_writes_expected_header(self, tmp_path, capsys, spec):
        headers = {
            "generate_mdof.json": ["time", "displacement_0", "displacement_1",
                                   "displacement_2", "force_true"],
            "generate_wave.json": ["time", "U", "Udot", "y"],
        }
        out = tmp_path / "data"
        assert main(["generate", str(CONFIGS / spec), "-o", str(out)]) == 0
        assert read_csv(out / "data.csv")[0] == headers[spec]

    @pytest.mark.parametrize("spec, tables", [
        pytest.param({"generator": "bounded_field", "params": {"seed": 3, "train_grid": 4}},
                     {"train.csv": ["index", "x0", "x1", "y"],
                      "test.csv": ["index", "x0", "x1", "y"]}, id="bounded_field"),
        pytest.param({"generator": "sdof_oscillator",
                      "params": {"m": 1.0, "c": 0.5, "k": 40.0, "dt": 0.05, "n_samples": 60}},
                     {"data.csv": ["time", "force", "y"]}, id="sdof_oscillator"),
        # one dof observed twice keeps both columns
        pytest.param(_bad_params(FAST_FORCE["data"], {"observed": [["displacement", 0],
                                                                   ["displacement", 0]]}),
                     {"data.csv": ["time", "displacement_0", "displacement_0", "force_true"]},
                     id="mdof-same-dof-twice"),
    ])
    def test_generator_writes_its_tables(self, tmp_path, capsys, spec, tables):
        out = tmp_path / "data"
        assert main(["generate", str(_write_config(tmp_path, spec, "gen.json")),
                     "-o", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([*tables, "generator.json"])
        for name, header in tables.items():
            got, data = read_csv(out / name)
            assert got == header
            assert data.shape[1] == len(header)

    @pytest.mark.parametrize("spec, change", BAD_GENERATOR_PARAMS)
    def test_bad_generator_params_exit_2(self, tmp_path, capsys, spec, change):
        path = _write_config(tmp_path, _bad_params(spec, change), "gen.json")
        out = tmp_path / "data"
        assert main(["generate", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_spec_without_params_runs_generator_defaults(self, tmp_path, capsys):
        spec = _write_config(tmp_path, {"generator": "trend"}, "gen.json")
        out = tmp_path / "data"
        assert main(["generate", str(spec), "-o", str(out)]) == 0
        assert read_csv(out / "data.csv")[1].shape == (504, 5)

    def test_diverged_simulation_exits_3(self, tmp_path):
        spec = _write_config(tmp_path, {
            "generator": "sdof_oscillator",
            "params": {"m": 1.0, "c": 0.0, "k": 1e6, "forcing": 1.0, "dt": 0.5,
                       "n_samples": 200}}, "gen.json")
        assert main(["generate", str(spec), "-o", str(tmp_path / "data")]) == 3

    def test_diverged_chain_exits_3(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "generate_mdof.json").read_text())
        doc["params"]["dt"] = 1.0
        spec = _write_config(tmp_path, doc, "gen.json")
        assert main(["generate", str(spec), "-o", str(tmp_path / "data")]) == 3
        assert capsys.readouterr().err.startswith("data error: simulation diverged")

    def test_output_root_env_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHMGP_OUTPUT_ROOT", str(tmp_path / "root"))
        spec = _write_config(tmp_path, {"generator": "trend",
                                        "params": {"seed": 0, "n_samples": 24}}, "gen.json")
        assert main(["generate", str(spec)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith(str(tmp_path / "root"))
        assert (tmp_path / "root" / "trend-data" / "data.csv").exists()

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["generate", str(bad), "-o", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spec", [
        {"generator": "trend", "params": {"seed": 1}, "bogus": 1},
        {"generator": "trend", "params": [1]},
        {"params": {"seed": 1}},
        ["trend"],
    ], ids=["unknown-key", "params-not-object", "no-generator", "not-object"])
    def test_spec_keys_exit_2(self, tmp_path, capsys, spec):
        path = _write_config(tmp_path, spec, "gen.json")
        assert main(["generate", str(path), "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error: generator spec: ")
        assert not (tmp_path / "x").exists()


class TestFit:
    def test_fit_prints_metrics_and_writes_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "run"
        assert main(["fit", str(cfg), "-o", str(out)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["nmse_percent"] >= 0.0
        for name in ("predictions.csv", "metrics.json", "config.json", "model.json"):
            assert (out / name).exists()

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely: not json")
        out = tmp_path / "should-not-exist"
        assert main(["fit", str(bad), "-o", str(out)]) == 2
        assert not out.exists()

    def test_data_without_params_runs_generator_defaults(self, tmp_path, capsys):
        doc = dict(FAST_CONFIG, data={"generator": "trend", "inputs": ["temperature"]})
        out = tmp_path / "run"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 0
        assert read_csv(out / "predictions.csv")[1].shape[0] == 252

    def test_missing_data_file_exits_3(self, tmp_path):
        doc = dict(FAST_CONFIG)
        doc["data"] = {"path": str(tmp_path / "ghost.csv")}
        cfg = _write_config(tmp_path, doc)
        assert main(["fit", str(cfg), "-o", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("kernel", [
        {"family": "squared_exponential", "signal_scale": 1.0},  # missing key
        {"family": "squared_exponential", "signal_scale": 1.0, "lengthscales": 2.0,
         "lengthscale": 2.0},  # extra key
        {"family": "gaussian", "signal_scale": 1.0, "lengthscales": 2.0},  # unknown family
        {"family": "gaussian", "optimize": True},
        {"family": "matern32", "optimize": True, "lengthscale": 2.0},
    ])
    def test_bad_config_kernel_exits_2(self, tmp_path, kernel):
        doc = dict(FAST_CONFIG, model={**FAST_CONFIG["model"], "kernel": kernel})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("base, model, key", [
        (FAST_NARX, {"morison": {"drag": "x", "inertia": 0.8}}, "drag"),
        (FAST_NARX, {"morison": {"drag": [1.0, 2.0], "inertia": 0.8}}, "drag"),
        (FAST_CONFIG, {"kernel": {"family": "sdof", "zeta": "x", "omega_n": 2.0, "sigma2": 1.0}},
         "zeta"),
        (FAST_CONFIG, {"kernel": {"family": "sdof", "zeta": 0.1, "omega_n": [1.0, 2.0],
                                  "sigma2": 1.0}}, "omega_n"),
        (FAST_CONFIG, {"mean": {"form": "linear", "intercept": "x", "slope": [1.0]}},
         "intercept"),
        # a list field takes one number or a list of them
        (FAST_CONFIG, {"kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                                  "lengthscales": "x"}}, "lengthscales"),
        (FAST_CONFIG, {"kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                                  "lengthscales": [[1.0], [1.0, 2.0]]}}, "lengthscales"),
        (FAST_CONFIG, {"mean": {"form": "linear", "intercept": 0.0, "slope": "x"}}, "slope"),
        # the latent-force prior, under its config names
        (FAST_FORCE, {"sigma": "x"}, "sigma"),
        (FAST_FORCE, {"sigma": [1.0, 2.0]}, "sigma"),
        (FAST_FORCE, {"lengthscale": None}, "lengthscale"),
        (FAST_FORCE, {"nu": "smooth"}, "nu"),
        (FAST_CONFIG, {"noise_var": "x"}, "noise_var"),
        (FAST_TUNED, {"noise_var": [0.1, 0.2]}, "noise_var"),
        (FIELD, {"noise_var": "x"}, "noise_var"),
        # JSON true and false are not the numbers 1 and 0
        (FAST_CONFIG, {"noise_var": True}, "noise_var"),
        (FAST_CONFIG, {"kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                                  "lengthscales": [True]}}, "lengthscales"),
        (FAST_CONFIG, {"mean": {"form": "linear", "intercept": 0.0, "slope": [1.0, False]}},
         "slope"),
    ], ids=["drag-string", "drag-list", "zeta-string", "omega_n-list", "intercept-string",
            "lengthscales-string", "lengthscales-ragged", "slope-string", "sigma-string",
            "sigma-list", "lengthscale-null", "nu-string", "noise_var-string",
            "noise_var-list-tuned", "reduced_rank-noise_var-string", "noise_var-true",
            "lengthscales-true", "slope-false"])
    def test_a_value_that_is_not_one_number_exits_2_naming_its_key(
            self, tmp_path, capsys, base, model, key):
        doc = dict(base, model={**base["model"], **model})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} takes one finite number" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kernel, key", [
        ({"family": "matern32", "optimize": "x"}, "optimize"),
        ({"family": "matern32", "optimize": 1}, "optimize"),
        ({"family": "matern32", "optimize": True, "ard": "x"}, "ard"),
    ], ids=["optimize-string", "optimize-one", "ard-string"])
    def test_a_switch_that_is_not_true_or_false_exits_2_naming_it(
            self, tmp_path, capsys, kernel, key):
        doc = dict(FAST_TUNED, model={**FAST_TUNED["model"], "kernel": kernel})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} takes true or false" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("base, model", [
        (FAST_CONFIG, {"mean": {"form": "bogus"}}),  # unknown form
        (FAST_CONFIG, {"mean": {"form": "linear", "intercept": 1.0}}),  # no slope
        (FAST_CONFIG, {"mean": {"form": "zero", "slope": [1.0]}}),  # extra key
        (FAST_CONFIG, {"mean": ["zero"]}),  # not an object
        (FAST_NARX, {"morison": {"drag": 1.0}}),  # no inertia
        (FAST_NARX, {"morison": {"drag": 1.0, "inertia": 0.8, "mass": 2.0}}),  # extra key
        (FAST_NARX, {"morison": {}}),  # Morison mode without coefficients
        (FAST_NARX, {"mode": "blackbox"}),  # coefficients the mode would ignore
        (FAST_NARX, {"mode": "bogus"}),  # unknown mode
    ])
    def test_bad_config_mean_or_mode_exits_2(self, tmp_path, base, model):
        doc = dict(base, model={**base["model"], **model})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("doc", MALFORMED_SECTIONS)
    def test_malformed_section_exits_2_before_any_fit(self, tmp_path, monkeypatch, doc):
        from shmgp import experiments, gp, statespace

        fits = []
        for module, name in ((gp, "fit_exact"), (experiments, "fit_reduced"),
                             (statespace, "kalman_filter")):
            fit = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fit=fit, **k: fits.append(1) or fit(*a, **k))
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not fits
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(UNUSED_SECTIONS))
    def test_an_unused_section_exits_2_naming_it(self, tmp_path, capsys, name):
        doc, key = UNUSED_SECTIONS[name]
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("tuned", [False, True])
    @pytest.mark.parametrize("mean", [
        {"form": "linear", "intercept": 1.0, "slope": [1.0, 2.0]},  # one input, two slopes
        {"form": "morison", "drag": 1.0, "inertia": 0.5},  # needs two inputs
    ])
    def test_mean_that_does_not_fit_inputs_exits_2_before_any_fit(
            self, tmp_path, monkeypatch, tuned, mean):
        from shmgp import gp

        fits = []
        fit_exact = gp.fit_exact
        monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1) or fit_exact(*a, **k))
        base = (json.loads((CONFIGS / "trend_zero_mean.json").read_text()) if tuned
                else FAST_CONFIG)
        doc = dict(base, model={**base["model"], "mean": mean})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not fits
        assert not out.exists()

    @pytest.mark.parametrize("mean", [{"form": "bogus"}, {"form": "zero"}])
    def test_narx_config_with_mean_exits_2(self, tmp_path, mean):
        # the NARX prior mean comes from model.mode
        doc = dict(FAST_NARX, model={**FAST_NARX["model"], "mean": mean})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("name, key, value", [
        (name, key, value) for name in ("sdof_kernel_gp", "latent_force_3dof")
        for key, value in (("substeps", 0), ("substeps", -1), ("substeps", 1.5), ("dt", -1.0),
                           ("dt", 0.0))
    ] + [("sdof_kernel_gp", "k3", None), ("sdof_kernel_gp", "k3", "x"),
         ("latent_force_3dof", "dt", "x"), ("latent_force_3dof", "dt", None)] + [
        ("sdof_kernel_gp", key, value) for key, value in (
            ("y0", "x"), ("v0", [1, 2]), ("forcing", "x"), ("n_samples", "x"),
            ("n_samples", -1), ("seed", "x"), ("y0", True), ("forcing", False),
            ("forcing", ["x", 1.0]), ("forcing", [1.0, True]))])
    def test_a_step_setting_that_cannot_integrate_exits_2_naming_it(
            self, tmp_path, capsys, name, key, value):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc["data"]["params"][key] = value
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key} takes " in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in CONFIGS.glob("*.json")
        if "optimizer" in json.loads(path.read_text())))
    @pytest.mark.parametrize("seed", ["x", [1], {}, -1, True, 1.5],
                             ids=["string", "list", "object", "negative", "bool", "float"])
    def test_a_swarm_seed_that_is_not_a_count_exits_2_naming_it(
            self, tmp_path, capsys, name, seed):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc["optimizer"]["seed"] = seed
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: optimizer: seed takes a non-negative integer")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    # values no shipped config carries, each read by the annotation of the
    # parameter or field that owns its key, and a chain's values, which must
    # agree with each other: (config, path to the key, value, message)
    @pytest.mark.parametrize("name, path, value, message", [
        ("sdof_kernel_gp", ("optimizer", "inertia"), "x", "inertia takes one finite number"),
        ("sdof_kernel_gp", ("optimizer", "social"), None, "social takes one finite number"),
        ("sdof_kernel_gp", ("optimizer", "cognitive"), True, "cognitive takes one finite number"),
        ("reduced_rank_field", ("model", "domain", "max_total"), 2.5,
         "max_total takes a positive integer"),
        ("reduced_rank_field", ("model", "domain", "max_total"), "x",
         "max_total takes a positive integer"),
        ("trend_zero_mean", ("seed",), "x", "seed takes a non-negative integer"),
        ("latent_force_3dof", ("data", "params", "y0"), [1.0, 2.0],
         "y0 takes one value per entry of masses"),
        ("latent_force_3dof", ("data", "params", "masses"), [1.0, True, 0.9],
         "masses takes one finite number or a list of them"),
        ("latent_force_3dof", ("data", "params", "stiffnesses"), [200.0, -180.0, 220.0],
         "stiffnesses takes positive numbers"),
        ("latent_force_3dof", ("data", "params", "noise_std"), [1e-4, 1e-4],
         "noise_std takes one value or one per channel"),
        ("latent_force_3dof", ("data", "params", "observed"), [["displacement", 0.0]],
         "observed dof takes a non-negative integer"),
        ("latent_force_3dof", ("data", "params", "observed"), [["displacement"]],
         "observed takes [kind, dof] pairs"),
        ("latent_force_3dof", ("data", "params", "force", "band"), [4.0, 0.5],
         "band takes a pair 0 < low < high"),
        ("reduced_rank_field", ("data", "params", "half_widths"), [1.0],
         "data.params of generator 'bounded_field': ValueError: half_widths takes two"),
        ("reduced_rank_field", ("data", "params", "half_widths"), [1.0, 1.0, 1.0],
         "data.params of generator 'bounded_field': ValueError: half_widths takes two"),
        ("latent_force_3dof", ("data", "params", "observed"), 5,
         "data.params: observed takes [kind, dof] pairs"),
        ("latent_force_3dof", ("data", "params", "force"), "x",
         "data.params of generator 'mdof_chain': ValueError: force takes an object"),
    ], ids=["inertia-string", "social-null", "cognitive-true", "max_total-fraction",
            "max_total-string", "seed-string", "y0-two-of-three", "masses-true",
            "stiffness-negative", "noise_std-two-of-three", "observed-dof-float",
            "observed-no-dof", "band-reversed", "half_widths-one", "half_widths-three",
            "observed-not-a-list", "force-not-an-object"])
    def test_a_value_no_shipped_config_carries_exits_2_naming_its_key(
            self, tmp_path, capsys, name, path, value, message):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc.get("optimizer", {}).update(SWARM)
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("spec, change", BAD_GENERATOR_PARAMS)
    def test_bad_generator_params_exit_2(self, tmp_path, spec, change):
        base = FAST_CONFIG if spec is FAST_CONFIG["data"] else FAST_FORCE
        doc = dict(base, data=_bad_params(spec, change))
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"bogus": 1},
        {"nu": 2.5},  # no Matern family with this smoothness
        {"nu": "smooth"},
        {"sigma": 0.0},
        {"sigma": -1.0},
        {"lengthscale": 0.0},
        {"noise_var": [1e-6, 1e-6]},  # FAST_FORCE observes one channel
        {"noise_var": -1e-6},
        {"noise_var": [-1e-6]},
        {"noise_var": "small"},
    ], ids=["unknown-key", "nu-2.5", "nu-string", "sigma-0", "sigma-negative", "lengthscale-0",
            "noise_var-two-values", "noise_var-negative", "noise_var-negative-list",
            "noise_var-string"])
    def test_bad_latent_force_model_exits_2(self, tmp_path, monkeypatch, model):
        from shmgp import experiments

        sims = []
        simulate = experiments.simulate_mdof_chain
        monkeypatch.setattr(experiments, "simulate_mdof_chain",
                            lambda *a, **k: sims.append(1) or simulate(*a, **k))
        doc = dict(FAST_FORCE, model={**FAST_FORCE["model"], **model})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not sims
        assert not out.exists()

    @pytest.mark.parametrize("observed, noise_var", [
        (None, [1e-6, 1e-6, 1e-6]),  # the generator observes one channel by default
        ([["displacement", 0], ["velocity", 1], ["acceleration", 1]], [1e-6, 1e-6]),
    ], ids=["default-observed", "three-channels"])
    def test_noise_var_per_observed_channel_exits_2(self, tmp_path, observed, noise_var):
        doc = dict(FAST_FORCE, data=_bad_params(FAST_FORCE["data"], {"observed": observed}),
                   model={**FAST_FORCE["model"], "noise_var": noise_var})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not out.exists()

    def test_empty_observed_exits_2_naming_it(self, tmp_path, capsys):
        doc = dict(FAST_FORCE, data=_bad_params(FAST_FORCE["data"], {"observed": []}))
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "observed" in err.split(":", 2)[2]
        assert not out.exists()

    def test_noise_var_per_observed_channel_is_accepted(self, tmp_path):
        observed = [["displacement", 0], ["velocity", 1]]
        doc = dict(FAST_FORCE, data=_bad_params(FAST_FORCE["data"], {"observed": observed}),
                   model={**FAST_FORCE["model"], "noise_var": [1e-6, 2e-6]})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 0
        hyper = json.loads((out / "metrics.json").read_text())["hyperparameters"]
        assert hyper["noise_var"] == [1e-6, 2e-6]

    @pytest.mark.parametrize("nu, family", [(0.5, "matern12"), (1.5, "matern32")])
    def test_latent_force_nu_picks_the_matern_family(self, tmp_path, monkeypatch, nu, family):
        from shmgp import experiments

        priors = []
        estimate_force = experiments.estimate_force
        monkeypatch.setattr(experiments, "estimate_force",
                            lambda *a, **k: priors.append(k["prior"]) or estimate_force(*a, **k))
        doc = dict(FAST_FORCE, model={**FAST_FORCE["model"], "nu": nu})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 0
        assert [p.family for p in priors] == [family]
        assert json.loads((out / "metrics.json").read_text())["hyperparameters"]["nu"] == nu

    # a trend fit tunes signal_scale, lengthscale and noise_var; a latent-force
    # fit tunes sigma, lengthscale and noise_var
    @pytest.mark.parametrize("base, optimizer", [
        pytest.param(TREND, {"bounds": {"lengthscal": [0.1, 10.0]}}, id="trend-lengthscal"),
        pytest.param(TREND, {"bounds": {"sigma": [0.1, 10.0]}}, id="trend-sigma"),
        pytest.param(TREND, {"particles": 0}, id="trend-particles-0"),
        pytest.param(TREND, {"iterations": 0}, id="trend-iterations-0"),
        pytest.param(TREND, {"bogus": 1}, id="trend-unknown-key"),
        pytest.param(FAST_FORCE, {"bounds": {"nosie_var": [1e-8, 1e-4]}}, id="force-nosie_var"),
        pytest.param(FAST_FORCE, {"bounds": {"signal_scale": [0.1, 10.0]}},
                     id="force-signal_scale"),
        pytest.param(FAST_FORCE, {"particles": 0}, id="force-particles-0"),
        # a fixed kernel does not use the section, but it is still checked
        pytest.param(FAST_CONFIG, {"bounds": {"lengthscal": [1.0, 2.0]}}, id="fixed-lengthscal"),
        pytest.param(FAST_CONFIG, {"particles": 0}, id="fixed-particles-0"),
        pytest.param(FAST_CONFIG, {"bogus": 1}, id="fixed-unknown-key"),
    ])
    def test_bad_optimizer_exits_2_before_any_fit(self, tmp_path, monkeypatch, base, optimizer):
        from shmgp import gp, statespace

        fits = []
        fit_exact, kalman_filter = gp.fit_exact, statespace.kalman_filter
        monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1) or fit_exact(*a, **k))
        monkeypatch.setattr(statespace, "kalman_filter",
                            lambda *a, **k: fits.append(1) or kalman_filter(*a, **k))
        settings = {"particles": 2, "iterations": 1}
        doc = dict(base, optimizer={**settings, **(base.get("optimizer") or {}), **optimizer})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert not fits
        assert not out.exists()

    def test_fixed_kernel_accepts_a_valid_optimizer(self, tmp_path):
        optimizer = {"particles": 4, "iterations": 2, "bounds": {"lengthscale": [0.1, 10.0]}}
        runs = {}
        for name, doc in [("plain", FAST_CONFIG),
                          ("optimizer", dict(FAST_CONFIG, optimizer=optimizer))]:
            path, out = _write_config(tmp_path, doc, f"{name}.json"), tmp_path / name
            assert main(["fit", str(path), "-o", str(out)]) == 0
            runs[name] = (out / "predictions.csv").read_bytes()
        assert runs["optimizer"] == runs["plain"]

    def test_good_narx_config_fits(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, FAST_NARX)), "-o", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["narx"]["mode"] == {
            "name": "residual_morison", "drag": 1.0, "inertia": 0.8}

    def test_all_infeasible_swarm_exits_4(self, tmp_path, monkeypatch):
        import dataclasses

        from shmgp import gp

        fit_exact = gp.fit_exact

        def nan_lml_fit(*args, **kwargs):
            return dataclasses.replace(fit_exact(*args, **kwargs), lml=np.nan)

        monkeypatch.setattr(gp, "fit_exact", nan_lml_fit)
        doc = dict(FAST_CONFIG, model={"kernel": {"family": "squared_exponential",
                                                  "optimize": True},
                                       "noise_var": 0.5},
                   optimizer={"particles": 4, "iterations": 2})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("data", [FAST_FORCE["data"]], ids=["mdof_chain"])
    def test_generator_without_a_table_exits_2_before_any_fit(
            self, tmp_path, monkeypatch, capsys, data):
        from shmgp import gp

        fits = []
        fit_exact = gp.fit_exact
        monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1) or fit_exact(*a, **k))
        doc = dict(FAST_CONFIG, data=data)
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert "does not produce tabular data" in capsys.readouterr().err
        assert not fits
        assert not out.exists()

    @pytest.mark.parametrize("kernel", [
        {"family": "sdof", "optimize": True},
        {"family": "sdof", "zeta": 0.05, "omega_n": 3.0, "sigma2": 1.0},
    ], ids=["tuned", "fixed"])
    def test_zero_sample_interval_is_a_data_error(self, tmp_path, capsys, kernel):
        from shmgp.model_io import write_csv

        # every config gets the default box, whose frequency bound is pi / dt
        write_csv(tmp_path / "data.csv", ["time", "y"], [np.zeros(40), np.sin(np.arange(40.0))])
        doc = {"task": "exact_gp", "seed": 0,
               "data": {"path": str(tmp_path / "data.csv"), "inputs": ["time"]},
               "model": {"kernel": kernel, "noise_var": 0.1},
               "optimizer": {"particles": 2, "iterations": 1}}
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "interval" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fixed_sdof_kernel_fits_a_descending_time_column(self, tmp_path, capsys):
        from shmgp.model_io import write_csv

        t = np.linspace(2.0, 0.0, 40)
        write_csv(tmp_path / "data.csv", ["time", "y"], [t, np.sin(3.0 * t)])
        doc = {"task": "exact_gp", "seed": 0,
               "data": {"path": str(tmp_path / "data.csv"), "inputs": ["time"]},
               "model": {"kernel": {"family": "sdof", "zeta": 0.05, "omega_n": 3.0,
                                    "sigma2": 1.0},
                         "noise_var": 0.01}}
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 0
        assert read_csv(out / "predictions.csv")[1].shape == (20, 4)

    def test_tuned_sdof_kernel_fits_a_descending_time_column(self, tmp_path):
        from shmgp.model_io import write_csv

        # the sample interval is taken from the sorted times, so the omega_n
        # box is (0.1, pi / dt) with dt > 0 whatever the row order
        t = np.linspace(2.0, 0.0, 40)
        write_csv(tmp_path / "data.csv", ["time", "x", "y"],
                  [t, np.cos(t), np.sin(3.0 * t)])
        doc = {"task": "exact_gp", "seed": 0,
               "data": {"path": str(tmp_path / "data.csv"), "inputs": ["time"]},
               "model": {"kernel": {"family": "sdof", "optimize": True}, "noise_var": 1e-4},
               "optimizer": {"particles": 4, "iterations": 2}}
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 0
        omega_n = json.loads((out / "metrics.json").read_text())["hyperparameters"]["omega_n"]
        assert 0.1 <= omega_n <= np.pi / (2.0 / 39)

    @pytest.mark.parametrize("kernel", [
        {"family": "squared_exponential", "optimize": True},
        {"family": "squared_exponential", "signal_scale": 1.0, "lengthscales": 2.0},
    ], ids=["tuned", "fixed"])
    @pytest.mark.parametrize("inputs, constant, named", [
        (["temperature"], True, "[0]"),
        (["temperature", "temperature"], False, "[0, 1]"),
        (["time", "temperature", "temperature"], False, "[1, 2]"),
    ], ids=["constant", "repeated", "repeated-after-time"])
    def test_linear_fit_mean_the_inputs_cannot_identify_exits_4(
            self, tmp_path, capsys, kernel, inputs, constant, named):
        from shmgp.model_io import write_csv

        # a constant training input used to give an intercept and slope no data
        # identify, and exit 0; a repeated one, "Singular matrix" or a swarm
        # with no finite evaluation
        t = np.arange(40.0)
        temperature = np.full(40, 20.0) if constant else 20.0 + np.cos(0.3 * t)
        write_csv(tmp_path / "data.csv", ["time", "temperature", "y"],
                  [t, temperature, np.sin(0.2 * t) + 0.01 * temperature])
        doc = {"task": "exact_gp", "seed": 0,
               "data": {"path": str(tmp_path / "data.csv"), "inputs": inputs},
               "model": {"kernel": kernel, "mean": {"form": "linear_fit"}, "noise_var": 0.1},
               "optimizer": {"particles": 2, "iterations": 1}}
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the linear_fit mean cannot be identified")
        assert f"input columns {named} are constant or collinear" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", ["csv", "generator"])
    @pytest.mark.parametrize("columns", [{"inputs": "xy"}, {"target": ["y"]}, {"inputs": []}],
                             ids=["inputs-string", "target-list", "inputs-empty"])
    def test_column_names_of_the_wrong_type_exit_2_before_any_fit(
            self, tmp_path, monkeypatch, capsys, source, columns):
        from shmgp import gp
        from shmgp.model_io import write_csv

        fits = []
        fit_exact = gp.fit_exact
        monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1) or fit_exact(*a, **k))
        # a string used to be read as a list of one-letter column names
        t = np.arange(40.0)
        write_csv(tmp_path / "data.csv", ["time", "x", "y"], [t, np.cos(t), np.sin(t)])
        data = ({"path": str(tmp_path / "data.csv")} if source == "csv"
                else dict(FAST_CONFIG["data"], inputs=None))
        doc = dict(FAST_CONFIG, data={k: v for k, v in {**data, **columns}.items()
                                      if v is not None})
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert "data.inputs takes a list of column names" in capsys.readouterr().err
        assert not fits
        assert not out.exists()

    @pytest.mark.parametrize("kernel", [
        {"family": "squared_exponential", "signal_scale": 1.0, "lengthscales": 1.0, "ard": True},
        {"family": "matern32", "optimize": True, "ard": True},
        {"family": "sdof", "optimize": True, "ard": True},
    ], ids=["fixed", "matern32", "sdof"])
    def test_ard_that_would_change_nothing_exits_2_before_any_fit(
            self, tmp_path, monkeypatch, capsys, kernel):
        from shmgp import gp
        from shmgp.model_io import write_csv

        fits = []
        fit_exact = gp.fit_exact
        monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1) or fit_exact(*a, **k))
        t = np.arange(40.0)
        write_csv(tmp_path / "data.csv", ["time", "x", "y"], [t, np.cos(t), np.sin(t)])
        doc = {"task": "exact_gp", "seed": 0,
               "data": {"path": str(tmp_path / "data.csv"), "inputs": ["time"]},
               "model": {"kernel": kernel, "noise_var": 1e-4}, "optimizer": SWARM}
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 2
        assert "'ard'" in capsys.readouterr().err
        assert not fits
        assert not out.exists()

    def test_numerical_failure_exits_4(self, tmp_path):
        # duplicated noise-free observation channel makes the innovation
        # covariance singular
        doc = {
            "task": "latent_force", "seed": 0,
            "data": {"generator": "mdof_chain",
                     "params": {"masses": [1.0], "dampings": [0.4], "stiffnesses": [5.0],
                                "dt": 0.05, "force_dof": 0,
                                "observed": [["displacement", 0], ["displacement", 0]],
                                "noise_std": 0.0, "seed": 1,
                                "force": {"n_samples": 40, "seed": 2}}},
            "model": {"nu": 1.5, "sigma": 1.0, "lengthscale": 1.0, "noise_var": 0.0},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["fit", str(cfg), "-o", str(tmp_path / "out")]) == 4


SCORES = ["nmse_percent", "log_marginal_likelihood", "coverage_percent", "wall_ms",
          "nmse_variance_convention"]
SWARM = {"particles": 2, "iterations": 1}


class TestRunRecord:
    """The metrics.json keys, in order, and the predictions.csv header of each task."""

    @pytest.mark.parametrize("doc, extras, header", [
        pytest.param(FAST_CONFIG, ["task", "n_train", "n_test"], ["time", "y"], id="exact_gp"),
        pytest.param(FAST_TUNED, ["task", "n_train", "n_test", "hyperparameters"],
                     ["time", "y"], id="exact_gp-tuned"),
        pytest.param(FAST_NARX, ["task", "evaluation", "level"], ["time", "y"], id="narx"),
        pytest.param(dict(_with(FAST_NARX, "model",
                                kernel={"family": "squared_exponential", "optimize": True}),
                          optimizer=SWARM),
                     ["task", "evaluation", "level", "hyperparameters"], ["time", "y"],
                     id="narx-tuned"),
        pytest.param(FIELD, ["task", "basis_size"], ["index", "y"], id="reduced_rank"),
        pytest.param(FAST_FORCE, ["task", "hyperparameters"], ["time", "force"],
                     id="latent_force"),
        pytest.param(dict(FAST_FORCE, optimizer=SWARM), ["task", "hyperparameters"],
                     ["time", "force"], id="latent_force-tuned"),
    ])
    def test_metrics_keys_and_predictions_header(self, tmp_path, capsys, doc, extras, header):
        out = tmp_path / "out"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert list(metrics) == SCORES + extras
        assert list(json.loads(capsys.readouterr().out)) == SCORES + extras
        index, prefix = header
        assert read_csv(out / "predictions.csv")[0] == [
            index, f"{prefix}_true", f"{prefix}_mean", f"{prefix}_var"]

    @staticmethod
    def _fit_and_predict_csv(tmp_path, first, task, model):
        """Fit ``task`` on the first half of a 40-row ``first,x,y`` CSV and run
        shmgp predict on the second half: (fit's, predict's) predictions.csv."""
        from shmgp.model_io import write_csv

        rng = np.random.default_rng(6)
        x = rng.uniform(-2.0, 2.0, 40)
        columns = [np.arange(40.0), x, np.sin(x) + 0.1 * rng.standard_normal(40)]
        write_csv(tmp_path / "data.csv", [first, "x", "y"], columns)
        write_csv(tmp_path / "test.csv", [first, "x", "y"], [c[20:] for c in columns])
        doc = {"task": task, "seed": 0, "data": {"path": str(tmp_path / "data.csv")},
               "split": {"type": "head_fraction", "fraction": 0.5}, "model": model}
        run = tmp_path / "run"
        assert main(["fit", str(_write_config(tmp_path, doc)), "-o", str(run)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(["predict", str(run), str(tmp_path / "test.csv"), "-o", str(pred)]) == 0
        return (run / "predictions.csv").read_bytes(), pred.read_bytes()

    def test_csv_fit_predicts_as_shmgp_predict_does(self, tmp_path, capsys):
        # the index column keeps the CSV's first name, index, in both files
        model = {"kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                            "lengthscales": 1.0}, "noise_var": 0.01}
        fit, pred = self._fit_and_predict_csv(tmp_path, "index", "exact_gp", model)
        assert pred == fit

    def test_reduced_rank_csv_fit_predicts_as_shmgp_predict_does(self, tmp_path, capsys):
        # the index column is the CSV's first column, time, by name and value
        model = {"domain": {"half_widths": [2.5], "boundary": "dirichlet", "basis_counts": [16]},
                 "kernel": {"family": "squared_exponential", "signal_scale": 1.0,
                            "lengthscales": 1.0}, "noise_var": 0.01}
        fit, pred = self._fit_and_predict_csv(tmp_path, "time", "reduced_rank", model)
        assert fit.startswith(b"time,y_true,y_mean,y_var\n20.0,")
        assert pred == fit

    def test_generated_field_predicts_as_the_fit_did(self, tmp_path, capsys):
        # the saved model names the columns shmgp generate writes for the field
        field = dict(FIELD, data={"generator": "bounded_field",
                                  "params": {"seed": 2, "train_grid": 4}})
        run = tmp_path / "run"
        assert main(["fit", str(_write_config(tmp_path, field)), "-o", str(run)]) == 0
        data = tmp_path / "data"
        assert main(["generate", str(_write_config(tmp_path, field["data"], "gen.json")),
                     "-o", str(data)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(["predict", str(run), str(data / "test.csv"), "-o", str(pred)]) == 0
        # the index column keeps the table's name, index, as the fit's file does
        assert pred.read_bytes() == (run / "predictions.csv").read_bytes()

    def test_field_exact_gp_scores_the_reduced_rank_test_points(self, tmp_path, capsys):
        # the unconstrained baseline of reduced_rank_field, on the field's own tables
        runs = {}
        for name in ("field_exact_gp", "reduced_rank_field"):
            runs[name] = tmp_path / name
            assert main(["fit", str(CONFIGS / f"{name}.json"), "-o", str(runs[name])]) == 0
        assert json.loads((runs["field_exact_gp"] / "metrics.json").read_text())["n_test"] == 441
        header, gp_table = read_csv(runs["field_exact_gp"] / "predictions.csv")
        assert header == ["index", "y_true", "y_mean", "y_var"]
        rr_table = read_csv(runs["reduced_rank_field"] / "predictions.csv")[1]
        np.testing.assert_array_equal(gp_table[:, :2], rr_table[:, :2])
        data = tmp_path / "data"
        assert main(["generate", str(_write_config(tmp_path, FIELD_GP["data"], "gen.json")),
                     "-o", str(data)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(["predict", str(runs["field_exact_gp"]), str(data / "test.csv"),
                     "-o", str(pred)]) == 0
        assert pred.read_bytes() == (runs["field_exact_gp"] / "predictions.csv").read_bytes()


class TestPredictAndEval:
    def test_full_cycle(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, FAST_CONFIG)
        run_dir = tmp_path / "run"
        assert main(["fit", str(cfg), "-o", str(run_dir)]) == 0
        capsys.readouterr()

        spec = _write_config(tmp_path, {"generator": "trend",
                                        "params": {"seed": 9, "n_samples": 60}}, "gen.json")
        data_dir = tmp_path / "newdata"
        assert main(["generate", str(spec), "-o", str(data_dir)]) == 0
        capsys.readouterr()

        pred_csv = tmp_path / "pred.csv"
        assert main(["predict", str(run_dir), str(data_dir / "data.csv"),
                     "-o", str(pred_csv)]) == 0
        capsys.readouterr()
        header, data = read_csv(pred_csv)
        assert header == ["time", "y_true", "y_mean", "y_var"]
        assert data.shape[0] == 60

        assert main(["eval", str(pred_csv), str(data_dir / "data.csv")]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert scored["nmse_percent"] >= 0.0
        direct = read_csv(pred_csv)[1]
        from shmgp.metrics import nmse

        assert scored["nmse_percent"] == pytest.approx(nmse(data[:, 1], direct[:, 2]))

    def test_eval_length_mismatch_exits_3(self, tmp_path):
        from shmgp.model_io import write_csv

        write_csv(tmp_path / "a.csv", ["time", "y_mean"], [np.arange(3.0), np.ones(3)])
        write_csv(tmp_path / "b.csv", ["time", "y"], [np.arange(4.0), np.ones(4)])
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 3

    @pytest.mark.parametrize("text", ["", "time,temperature\n", "time,temperature\n0.0,x\n",
                                      "time,temperature\n0.0,1.0\n1.0\n"])
    def test_malformed_data_file_exits_3(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        assert main(["fit", str(_write_config(tmp_path, FAST_CONFIG)), "-o", str(run_dir)]) == 0
        capsys.readouterr()
        (tmp_path / "new.csv").write_text(text)
        assert main(["predict", str(run_dir), str(tmp_path / "new.csv")]) == 3

    def test_missing_model_dir_exits_3(self, tmp_path):
        from shmgp.model_io import write_csv

        write_csv(tmp_path / "d.csv", ["time", "y"], [np.arange(3.0), np.ones(3)])
        assert main(["predict", str(tmp_path / "novel"), str(tmp_path / "d.csv")]) == 3


class TestCorruptModel:
    @pytest.fixture
    def fitted(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["fit", str(_write_config(tmp_path, FAST_CONFIG)), "-o", str(run_dir)]) == 0
        capsys.readouterr()
        return run_dir

    def _predict(self, run_dir):
        from shmgp.model_io import write_csv

        data = run_dir / "new.csv"
        write_csv(data, ["time", "temperature"], [np.arange(4.0), np.linspace(5.0, 8.0, 4)])
        return main(["predict", str(run_dir), str(data), "-o", str(run_dir / "new_pred.csv")])

    @pytest.mark.parametrize("kernel", [
        {"family": "squared_exponential", "signal_scale": 3.0},
        {"family": "gaussian", "signal_scale": 3.0, "lengthscales": [2.0]},
    ])
    def test_bad_saved_kernel_exits_3(self, fitted, kernel):
        doc = json.loads((fitted / "model.json").read_text())
        doc["kernel"] = kernel
        (fitted / "model.json").write_text(json.dumps(doc))
        assert self._predict(fitted) == 3

    @pytest.mark.parametrize("value", ["x", [0.1, 0.2]], ids=["string", "list"])
    def test_saved_value_that_is_not_one_number_exits_3_naming_its_key(
            self, fitted, capsys, value):
        doc = json.loads((fitted / "model.json").read_text())
        doc["kernel"] = {"family": "sdof", "zeta": value, "omega_n": 2.0, "sigma2": 1.0}
        (fitted / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._predict(fitted) == 3
        err = capsys.readouterr().err
        assert "zeta takes one finite number" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, value", [("noise_var", "x"), ("jitter", [1]), ("lml", None),
                                            ("noise_var", True)])
    def test_saved_gp_value_that_is_not_one_number_exits_3_naming_its_key(
            self, fitted, capsys, key, value):
        doc = json.loads((fitted / "model.json").read_text())
        doc[key] = value
        (fitted / "model.json").write_text(json.dumps(doc))
        assert self._predict(fitted) == 3
        err = capsys.readouterr().err
        assert f"{key} takes one finite number" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["exact_gp", "reduced_rank"])
    @pytest.mark.parametrize("columns", [None, -1, True, "temperature", [], ["temperature", 1]],
                             ids=["null", "negative", "true", "string", "empty", "number"])
    def test_saved_input_columns_that_are_not_names_exit_3_naming_the_key(
            self, fitted, tmp_path, capsys, kind, columns):
        if kind == "reduced_rank":
            fitted = tmp_path / "field"
            assert main(["fit", str(_write_config(tmp_path, FIELD)), "-o", str(fitted)]) == 0
        doc = json.loads((fitted / "model.json").read_text())
        doc["input_columns"] = columns
        (fitted / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._predict(fitted) == 3
        err = capsys.readouterr().err
        assert "input_columns takes a list of column names" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("mean", [
        {"form": "linear", "intercept": 1.0},  # missing slope
        {"form": "linear", "intercept": 1.0, "slope": [0.5], "scale": 2.0},  # extra key
        {"form": "zero", "intercept": 1.0},  # extra key
        {"form": "morison", "drag": 1.0},  # missing inertia
        {"form": "bogus"},
        {},
        {"form": "linear", "intercept": "x", "slope": [0.5]},  # not a number
    ])
    def test_bad_saved_mean_exits_3(self, fitted, mean):
        doc = json.loads((fitted / "model.json").read_text())
        doc["mean"] = mean
        (fitted / "model.json").write_text(json.dumps(doc))
        assert self._predict(fitted) == 3

    @pytest.mark.parametrize("name, change", [
        ("alpha", None),
        ("alpha", lambda a: a[:-1]),
        ("chol", lambda a: a[:, :-1]),
        ("X", lambda a: np.column_stack([a, a])),
    ])
    def test_missing_or_misshapen_array_exits_3(self, fitted, name, change):
        with np.load(fitted / "model.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        if change is None:
            del arrays[name]
        else:
            arrays[name] = change(arrays[name])
        np.savez(fitted / "model.npz", **arrays)
        assert self._predict(fitted) == 3

    @pytest.mark.parametrize("name", ["alpha", "chol", "X"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_exits_3(self, fitted, name, value):
        # a NaN in alpha used to exit 0 and write NaN predictions
        with np.load(fitted / "model.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays[name].flat[0] = value
        np.savez(fitted / "model.npz", **arrays)
        assert self._predict(fitted) == 3

    @pytest.mark.parametrize("name", ["weight_mean", "weight_cov"])
    def test_non_finite_reduced_rank_array_exits_3(self, tmp_path, name):
        from shmgp.gp import Dataset
        from shmgp.kernels import SquaredExponential
        from shmgp.model_io import save_reduced_rank, write_csv
        from shmgp.reduced_rank import DomainSpec, fit_reduced

        X = np.linspace(-0.9, 0.9, 15).reshape(-1, 1)
        model = fit_reduced(Dataset(X, np.sin(3.0 * X[:, 0])), DomainSpec([1.0], basis_counts=8),
                            SquaredExponential(1.0, 0.4), 0.01)
        model_dir = tmp_path / "model"
        save_reduced_rank(model_dir, model, ["x"], "y")
        data = tmp_path / "new.csv"
        write_csv(data, ["x", "y"], [np.linspace(-0.5, 0.5, 4), np.zeros(4)])
        predict = ["predict", str(model_dir), str(data), "-o", str(tmp_path / "pred.csv")]
        assert main(predict) == 0
        with np.load(model_dir / "model.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays[name].flat[-1] = np.nan
        np.savez(model_dir / "model.npz", **arrays)
        assert main(predict) == 3

    @pytest.mark.parametrize("payload", [b"", b"PK\x03\x04truncated"])
    def test_unreadable_archive_exits_3(self, fitted, payload):
        (fitted / "model.npz").write_bytes(payload)
        assert self._predict(fitted) == 3

    def test_intact_model_predicts(self, fitted):
        assert self._predict(fitted) == 0


class TestPredictNarx:
    @pytest.fixture
    def saved_model(self, tmp_path, fit_narx):
        from shmgp.kernels import SquaredExponential
        from shmgp.model_io import save_narx
        from shmgp.narx import NarxConfig, BlackBox, SequenceData

        rng = np.random.default_rng(0)
        n = 50
        U = np.sin(0.4 * np.arange(n)) + 0.05 * rng.standard_normal(n)
        Ud = np.gradient(U, 0.1)
        yv = U * np.abs(U) + 0.3 * Ud
        seq = SequenceData(u=np.column_stack([U, Ud]), y=yv, dt=0.1)
        model = fit_narx(seq, NarxConfig(2, 2, BlackBox()),
                         SquaredExponential(1.0, 1.0), noise_var=1e-4)
        model_dir = tmp_path / "model"
        save_narx(model_dir, model, ["U", "Udot"], "y")
        return model_dir, (np.arange(n) * 0.1, U, Ud, yv)

    def test_one_step_ahead_from_csv(self, tmp_path, saved_model, capsys):
        from shmgp.model_io import write_csv

        model_dir, (t, U, Ud, yv) = saved_model
        write_csv(tmp_path / "seq.csv", ["time", "U", "Udot", "y"], [t, U, Ud, yv])
        out = tmp_path / "osa.csv"
        assert main(["predict", str(model_dir), str(tmp_path / "seq.csv"),
                     "-o", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["time", "y_mean", "y_var"]
        assert data.shape[0] == len(t) - 2

    @pytest.mark.parametrize("mode", [
        {"name": "bogus", "drag": 1.0, "inertia": 0.5},
        {"name": "blackbox", "drag": 1.0},  # extra key
        {"name": "residual_morison", "drag": 1.0},  # missing inertia
        {"name": "augmented_morison", "drag": 1.0, "inertia": 0.5, "mass": 1.0},
        {"drag": 1.0, "inertia": 0.5},  # no name
    ])
    def test_bad_saved_mode_exits_3(self, tmp_path, saved_model, mode):
        from shmgp.model_io import write_csv

        model_dir, (t, U, Ud, yv) = saved_model
        doc = json.loads((model_dir / "model.json").read_text())
        doc["narx"]["mode"] = mode
        (model_dir / "model.json").write_text(json.dumps(doc))
        write_csv(tmp_path / "seq.csv", ["time", "U", "Udot", "y"], [t, U, Ud, yv])
        assert main(["predict", str(model_dir), str(tmp_path / "seq.csv"),
                     "-o", str(tmp_path / "osa.csv")]) == 3
        assert not (tmp_path / "osa.csv").exists()

    @pytest.mark.parametrize("drag", ["x", [1.0, 2.0]], ids=["string", "list"])
    def test_saved_coefficient_that_is_not_one_number_exits_3_naming_it(
            self, tmp_path, saved_model, capsys, drag):
        from shmgp.model_io import write_csv

        model_dir, (t, U, Ud, yv) = saved_model
        doc = json.loads((model_dir / "model.json").read_text())
        doc["narx"]["mode"] = {"name": "residual_morison", "drag": drag, "inertia": 0.5}
        (model_dir / "model.json").write_text(json.dumps(doc))
        write_csv(tmp_path / "seq.csv", ["time", "U", "Udot", "y"], [t, U, Ud, yv])
        assert main(["predict", str(model_dir), str(tmp_path / "seq.csv")]) == 3
        err = capsys.readouterr().err
        assert "drag takes one finite number" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n_channels, message", [
        ("x", "n_channels takes a positive integer"), (0, "n_channels takes a positive integer"),
        (3, "n_channels takes one per input column, got 3")], ids=["string", "zero", "three"])
    def test_saved_channel_count_that_is_not_the_input_count_exits_3_naming_it(
            self, tmp_path, saved_model, capsys, n_channels, message):
        from shmgp.model_io import write_csv

        model_dir, (t, U, Ud, yv) = saved_model
        doc = json.loads((model_dir / "model.json").read_text())
        doc["narx"]["n_channels"] = n_channels
        (model_dir / "model.json").write_text(json.dumps(doc))
        write_csv(tmp_path / "seq.csv", ["time", "U", "Udot", "y"], [t, U, Ud, yv])
        assert main(["predict", str(model_dir), str(tmp_path / "seq.csv")]) == 3
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    def test_nonuniform_time_exits_3(self, tmp_path, saved_model):
        from shmgp.model_io import write_csv

        model_dir, (t, U, Ud, yv) = saved_model
        t = t.copy()
        t[10] += 0.04  # breaks uniform sampling
        write_csv(tmp_path / "seq.csv", ["time", "U", "Udot", "y"], [t, U, Ud, yv])
        assert main(["predict", str(model_dir), str(tmp_path / "seq.csv")]) == 3


class TestEarlierModelDirectory:
    """Earlier versions also saved the training outputs ``y`` and residuals
    ``residual`` in model.npz, between X and chol.  Loading reads only X,
    chol and alpha, so such a directory predicts the same bytes."""

    @pytest.mark.parametrize("kind", ["exact_gp", "narx"])
    def test_saved_outputs_and_residuals_change_no_prediction_byte(
            self, tmp_path, capsys, fit_narx, kind):
        from shmgp import gp
        from shmgp.kernels import SquaredExponential
        from shmgp.means import LinearMean
        from shmgp.model_io import save_exact_gp, save_narx, write_csv
        from shmgp.narx import NarxConfig, ResidualMean, SequenceData, training_data
        from shmgp.physics import MorisonMean

        rng = np.random.default_rng(4)
        t = np.arange(40) * 0.1
        U = np.sin(0.4 * np.arange(40)) + 0.05 * rng.standard_normal(40)
        Ud = np.gradient(U, 0.1)
        yv = U * np.abs(U) + 0.3 * Ud
        model_dir = tmp_path / "model"
        if kind == "exact_gp":
            data = gp.Dataset(np.column_stack([U, Ud]), yv)
            mean = LinearMean(0.1, [1.0, 0.2])
            save_exact_gp(model_dir, gp.fit_exact(data, SquaredExponential(1.0, 1.0), mean=mean,
                                                   noise_var=1e-3), ["U", "Udot"], "y")
        else:
            seq = SequenceData(u=np.column_stack([U, Ud]), y=yv, dt=0.1)
            cfg = NarxConfig(2, 2, ResidualMean(MorisonMean(1.0, 0.3)))
            data, mean = training_data(seq, cfg)
            save_narx(model_dir, fit_narx(seq, cfg, SquaredExponential(1.0, 1.0), noise_var=1e-3),
                      ["U", "Udot"], "y")
        write_csv(tmp_path / "seq.csv", ["time", "U", "Udot", "y"], [t, U, Ud, yv])
        predict = ["predict", str(model_dir), str(tmp_path / "seq.csv"), "-o"]
        assert main([*predict, str(tmp_path / "now.csv")]) == 0

        with np.load(model_dir / "model.npz") as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert list(arrays) == ["X", "chol", "alpha"]
        np.savez(model_dir / "model.npz", X=arrays["X"], y=data.outputs,
                 residual=data.outputs - mean(data.inputs), chol=arrays["chol"],
                 alpha=arrays["alpha"])
        assert main([*predict, str(tmp_path / "earlier.csv")]) == 0
        assert (tmp_path / "earlier.csv").read_bytes() == (tmp_path / "now.csv").read_bytes()


class TestLatentForceCommand:
    def test_rejects_other_tasks(self, tmp_path):
        cfg = _write_config(tmp_path, FAST_CONFIG)
        assert main(["latent-force", str(cfg), "-o", str(tmp_path / "x")]) == 2

    def test_runs_force_estimation(self, tmp_path, capsys):
        doc = {
            "task": "latent_force", "seed": 0,
            "data": {"generator": "mdof_chain",
                     "params": {"masses": [1.0], "dampings": [0.5], "stiffnesses": [8.0],
                                "dt": 0.05, "force_dof": 0,
                                "observed": [["displacement", 0]],
                                "noise_std": 0.001, "seed": 3, "substeps": 2,
                                "force": {"n_samples": 150, "seed": 4, "band": [0.5, 2.0]}}},
            "model": {"nu": 1.5, "sigma": 2.0, "lengthscale": 0.6, "noise_var": 1e-06},
        }
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "lf"
        assert main(["latent-force", str(cfg), "-o", str(out)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["nmse_percent"] < 50.0
        header, _ = read_csv(out / "predictions.csv")
        assert header == ["time", "force_true", "force_mean", "force_var"]


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "shmgp.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial adds about 9 MB of resident memory and 0.16 s to start-up
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, shmgp.cli; print('scipy.spatial' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
