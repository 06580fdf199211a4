"""Config-driven experiment execution.

``run_experiment`` takes an :class:`~shmgp.config.ExperimentConfig` (or a
path to one), builds or loads the data, fits the configured model, scores
predictions and writes three artifacts into the output directory:

* ``predictions.csv`` -- index/time, truth, posterior mean, variance
* ``metrics.json``    -- nmse_percent, log_marginal_likelihood,
                         coverage_percent, wall_ms
* ``config.json``     -- the resolved configuration actually run

plus the fitted model (``model.json`` / ``model.npz``) where the task
produces one.  All computation happens before any file is touched, and every
file is written atomically, so failures never leave partial outputs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from . import gp, model_io
from .config import ExperimentConfig
from .errors import ConfigError, DataError
from .generators import (
    band_limited_force,
    generate_bounded_field,
    generate_trend_series,
    generate_wave_loading,
    simulate_mdof_chain,
    simulate_sdof,
)
from .gp import Dataset
from .kernels import FAMILIES, Kernel
from .means import MeanFunction
from .metrics import MetricsReport, nmse
from .narx import (
    NarxConfig,
    NarxMode,
    NarxModel,
    SequenceData,
    build_lag_matrix,
    coverage_metric,
    predict_osa,
    simulate_free_run,
    training_data,
)
from .pso import PsoConfig
from .reduced_rank import DomainSpec, fit_reduced, predict_reduced
from .statespace import StructuralModel, estimate_force
from .tuning import default_bounds, gls_linear_mean, tune_exact_gp

OUTPUT_ROOT_ENV = "SHMGP_OUTPUT_ROOT"
DEFAULT_FAMILY = "squared_exponential"  # when model.kernel names no family


def resolve_output_dir(configured, override=None, default_name="experiment"):
    """Output directory: override > configured output_dir > $SHMGP_OUTPUT_ROOT/<name>."""
    if override is not None:
        return Path(override)
    if configured:
        return Path(configured)
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    return Path(root) / default_name


def run_experiment(config, output_dir=None) -> MetricsReport:
    """Execute one experiment and write its artifacts.

    ``config`` may be an ExperimentConfig or a path to a JSON file.  Returns
    the metrics report; raises ConfigError / DataError / NumericalError for
    the three failure classes the CLI maps to exit codes.
    """
    default_name = "experiment"
    if not isinstance(config, ExperimentConfig):
        default_name = Path(config).stem
        config = ExperimentConfig.from_json(config)
    out = resolve_output_dir(config.output_dir, output_dir, default_name)

    runner = {
        "exact_gp": _run_exact_gp,
        "narx": _run_narx,
        "reduced_rank": _run_reduced_rank,
        "latent_force": _run_latent_force,
    }[config.task]

    start = time.perf_counter()
    report, artifacts = runner(config)
    report.wall_ms = 1000.0 * (time.perf_counter() - start)

    out.mkdir(parents=True, exist_ok=True)
    header, columns = artifacts["predictions"]
    model_io.write_csv(out / "predictions.csv", header, columns)
    model_io.atomic_write_text(
        out / "metrics.json", json.dumps(report.to_json_dict(), indent=2) + "\n"
    )
    model_io.atomic_write_text(
        out / "config.json", json.dumps(config.to_dict(), indent=2) + "\n"
    )
    if "save_model" in artifacts:
        artifacts["save_model"](out)
    return report


# ---------------------------------------------------------------------------
# data loading


def _generated_frame(data_cfg: dict) -> dict:
    """Run a generator spec into named columns (+ side information).  A fault
    in the spec is a ConfigError; a simulation that diverges is a DataError."""
    name = data_cfg.get("generator")
    try:
        return _generate(name, dict(data_cfg.get("params", {})))
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"data.params of generator {name!r}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _generate(name, params: dict) -> dict:
    if name == "trend":
        ds = generate_trend_series(**params)
        return {
            "columns": {
                "time": ds.timestamps,
                "temperature": ds.inputs[:, 0],
                "sin_daily": ds.inputs[:, 1],
                "cos_daily": ds.inputs[:, 2],
                "y": ds.outputs,
            },
            "inputs": ["temperature", "sin_daily", "cos_daily"],
            "target": "y",
        }
    if name == "sdof_oscillator":
        seq = simulate_sdof(**params)
        t = np.arange(len(seq)) * seq.dt
        return {
            "columns": {"time": t, "force": seq.u[:, 0], "y": seq.y},
            "inputs": ["time"],
            "target": "y",
            "dt": seq.dt,
        }
    if name == "wave":
        rec = generate_wave_loading(**params)
        t = np.arange(len(rec.seq)) * rec.seq.dt
        return {
            "columns": {"time": t, "U": rec.seq.u[:, 0], "Udot": rec.seq.u[:, 1],
                        "y": rec.seq.y},
            "inputs": ["U", "Udot"],
            "target": "y",
            "record": rec,
        }
    if name == "bounded_field":
        train, test = generate_bounded_field(**params)
        return {"train": train, "test": test}
    if name == "mdof_chain":
        force = band_limited_force(dt=params["dt"], **params.pop("force"))
        return {"sim": simulate_mdof_chain(force=force, **params)}
    raise ConfigError(f"unknown generator {name!r}")


def _load_tabular(data_cfg: dict):
    """Dataset from a generator or CSV file; returns (dataset, input names, target)."""
    if "generator" in data_cfg:
        frame = _generated_frame(data_cfg)
        if "columns" not in frame:
            raise ConfigError("generator does not produce tabular data for this task")
        cols = frame["columns"]
        inputs = data_cfg.get("inputs", frame["inputs"])
        target = data_cfg.get("target", frame["target"])
        X = np.column_stack([cols[c] for c in inputs])
        ds = Dataset(X, cols[target], timestamps=cols.get("time"))
        return ds, inputs, target
    if "path" in data_cfg:
        header, data = model_io.read_csv(data_cfg["path"])
        inputs = data_cfg.get("inputs")
        target = data_cfg.get("target", "y")
        if inputs is None:
            inputs = [h for h in header[1:] if h != target]
        try:
            X = np.column_stack([data[:, header.index(c)] for c in inputs])
            y = data[:, header.index(target)]
        except ValueError as exc:
            raise DataError(f"column missing from {data_cfg['path']}: {exc}") from exc
        t = data[:, 0] if header else None
        return Dataset(X, y, timestamps=t), inputs, target
    raise ConfigError("data section needs either 'generator' or 'path'")


def _split(dataset: Dataset, split_cfg: dict | None):
    split_cfg = split_cfg or {"type": "head_fraction", "fraction": 0.5}
    kind = split_cfg.get("type")
    n = len(dataset)
    if kind == "head_fraction":
        k = int(n * float(split_cfg.get("fraction", 0.5)))
        if not 1 <= k < n:
            raise ConfigError("head_fraction split leaves an empty train or test set")
        train_idx = np.arange(k)
        test_idx = np.arange(k, n)
    elif kind == "stride":
        stride = int(split_cfg.get("stride", 8))
        if stride < 2:
            raise ConfigError("stride split needs stride >= 2")
        mask = np.zeros(n, dtype=bool)
        mask[::stride] = True
        train_idx = np.flatnonzero(mask)
        test_idx = np.flatnonzero(~mask)
    else:
        raise ConfigError(f"unknown split type {kind!r}")

    def take(idx):
        t = dataset.timestamps[idx] if dataset.timestamps is not None else None
        return Dataset(dataset.inputs[idx], dataset.outputs[idx], timestamps=t)

    return take(train_idx), take(test_idx), train_idx, test_idx


def _pso_settings(optimizer_cfg: dict | None, seed: int) -> dict:
    cfg = dict(optimizer_cfg or {})
    cfg.pop("bounds", None)
    cfg.setdefault("seed", seed)
    try:  # the swarm's own checks of its settings, before any fit
        PsoConfig(bounds=((0.0, 1.0),), **cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    return cfg


def _named_bounds(optimizer_cfg: dict | None, tuned) -> dict:
    bounds = dict((optimizer_cfg or {}).get("bounds", {}))
    unknown = set(bounds) - set(tuned)
    if unknown:
        raise ConfigError(f"optimizer.bounds names {sorted(unknown)} that this model does "
                          f"not tune; expected some of {sorted(tuned)}")
    return {k: tuple(v) for k, v in bounds.items()}


# ---------------------------------------------------------------------------
# task runners


def _config_entry(group, where: str, name: str, entry: dict):
    """The kernel family, mean form or NARX mode (``group``) given by config
    ``entry``, tagged ``name`` unless it names one; a bad entry is a ConfigError."""
    try:
        return group.from_dict({group.tag: name, **entry})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fit_gp_model(config: ExperimentConfig, train: Dataset, mean, dt=None, profile_mean=False):
    model_cfg = config.model
    kernel_cfg = dict(model_cfg.get("kernel", {}))
    optimize = kernel_cfg.pop("optimize", False)
    ard = kernel_cfg.pop("ard", False)
    noise_var = model_cfg.get("noise_var", 0.0)

    if optimize:
        family = kernel_cfg.pop("family", DEFAULT_FAMILY)
        if family not in FAMILIES or kernel_cfg:
            raise ConfigError(f"model.kernel to optimize takes a family out of {sorted(FAMILIES)} "
                              f"and 'ard' only, got {model_cfg['kernel']}")
        result = tune_exact_gp(
            train,
            family,
            mean=mean,
            profile_linear_mean=profile_mean,
            ard=ard,
            noise_var=None if noise_var in ("optimize", None) else float(noise_var),
            bounds=_named_bounds(config.optimizer, default_bounds(family, train, ard, dt)),
            dt=dt,
            **_pso_settings(config.optimizer, config.seed),
        )
        return result.model, result.params
    kernel = _config_entry(Kernel, "model.kernel", DEFAULT_FAMILY, kernel_cfg)
    # an optimizer section next to a fixed kernel is unused, but held to the same checks
    _named_bounds(config.optimizer, default_bounds(kernel.family, train, ard, dt))
    _pso_settings(config.optimizer, config.seed)
    if noise_var in ("optimize", None):
        raise ConfigError("noise_var can only be optimised together with the kernel")
    if profile_mean:
        mean = gls_linear_mean(train, kernel, float(noise_var))
    model = gp.fit_exact(train, kernel, mean=mean, noise_var=float(noise_var))
    return model, None


def _build_mean(model_cfg: dict, X: np.ndarray):
    """Mean function over inputs X from config; 'linear_fit' asks for
    GLS-profiled coefficients.  A mean that cannot act on X is a ConfigError."""
    mean_cfg = model_cfg.get("mean", {})
    if mean_cfg == {"form": "linear_fit"}:
        return None, True
    mean = _config_entry(MeanFunction, "model.mean", "zero", mean_cfg)
    try:
        mean(X)
    except ValueError as exc:
        raise ConfigError(f"model.mean does not fit data.inputs: {exc}") from exc
    return mean, False


def _run_exact_gp(config: ExperimentConfig):
    dataset, input_cols, target = _load_tabular(config.data)
    train, test, _, test_idx = _split(dataset, config.split)
    mean, profile_mean = _build_mean(config.model, train.inputs)
    dt = None
    if dataset.timestamps is not None and len(dataset) > 1:
        dt = float(np.median(np.diff(dataset.timestamps)))
    model, params = _fit_gp_model(config, train, mean, dt=dt, profile_mean=profile_mean)

    pred = gp.predict(model, test.inputs)
    report = MetricsReport(
        nmse_percent=nmse(test.outputs, pred.mean),
        log_marginal_likelihood=model.lml,
        coverage_percent=coverage_metric(train, test),
        squared_errors=(test.outputs - pred.mean) ** 2,
        extras={"task": "exact_gp", "n_train": len(train), "n_test": len(test)},
    )
    if params:
        report.extras["hyperparameters"] = params
    index = test.timestamps if test.timestamps is not None else test_idx.astype(float)
    artifacts = {
        "predictions": (
            ["time", "y_true", "y_mean", "y_var"],
            [index, test.outputs, pred.mean, pred.var],
        ),
        "save_model": lambda out: model_io.save_exact_gp(out, model, input_cols, target),
    }
    return report, artifacts


def _run_narx(config: ExperimentConfig):
    if "mean" in config.model:
        raise ConfigError("model.mean does not apply to the narx task; "
                          "model.mode sets the prior mean")
    data_cfg = config.data
    if data_cfg.get("generator") != "wave":
        raise ConfigError("narx task currently ingests the 'wave' generator")
    frame = _generated_frame(data_cfg)
    rec = frame["record"]
    seq = rec.seq
    level = int(data_cfg.get("level", 100))
    if level not in rec.train_windows:
        raise ConfigError(f"coverage level {level} not in {sorted(rec.train_windows)}")
    w = rec.train_windows[level]
    train_seq = SequenceData(u=seq.u[w], y=seq.y[w], dt=seq.dt)
    tw = rec.test_window
    test_seq = SequenceData(u=seq.u[tw], y=seq.y[tw], dt=seq.dt)

    model_cfg = config.model
    lags = model_cfg.get("lags", [4, 4])
    # model.morison holds the drag/inertia coefficients, which only Morison modes take
    mode = _config_entry(NarxMode, "model.mode/model.morison", model_cfg.get("mode", "blackbox"),
                         model_cfg.get("morison", {}))
    cfg = NarxConfig(exog_lags=int(lags[0]), auto_lags=int(lags[1]), mode=mode)

    train, mean = training_data(train_seq, cfg)
    gp_model, params = _fit_gp_model(config, train, mean, dt=seq.dt)
    model = NarxModel(gp=gp_model, config=cfg, n_channels=seq.u.shape[1])

    evaluation = model_cfg.get("evaluation", "free_run")
    X_test, test_targets = build_lag_matrix(test_seq, cfg)
    if evaluation == "osa":
        mean_pred, var_pred = predict_osa(model, test_seq)
    elif evaluation == "free_run":
        # start the run at first_index so measured seeds exist and the
        # trajectory lines up one-to-one with the lag-matrix targets
        p = cfg.first_index
        mean_pred = simulate_free_run(
            model, test_seq.u[p - cfg.exog_lags :], y_init=test_seq.y[p - cfg.auto_lags : p]
        )
        var_pred = np.full_like(mean_pred, np.nan)
    else:
        raise ConfigError(f"unknown evaluation {evaluation!r}")

    report = MetricsReport(
        nmse_percent=nmse(test_targets, mean_pred),
        log_marginal_likelihood=gp_model.lml,
        coverage_percent=coverage_metric(train, Dataset(X_test, test_targets)),
        squared_errors=(test_targets - mean_pred) ** 2,
        extras={"task": "narx", "evaluation": evaluation, "level": level},
    )
    if params:
        report.extras["hyperparameters"] = params
    index = np.arange(cfg.first_index, len(test_seq)).astype(float) * seq.dt
    artifacts = {
        "predictions": (
            ["time", "y_true", "y_mean", "y_var"],
            [index, test_targets, mean_pred, var_pred],
        ),
        "save_model": lambda out: model_io.save_narx(
            out, model, frame["inputs"], frame["target"]
        ),
    }
    return report, artifacts


def _run_reduced_rank(config: ExperimentConfig):
    data_cfg = config.data
    if data_cfg.get("generator") == "bounded_field":
        frame = _generated_frame(data_cfg)
        train, test = frame["train"], frame["test"]
        input_cols, target = ["x0", "x1"], "y"
    else:
        dataset, input_cols, target = _load_tabular(data_cfg)
        train, test, _, _ = _split(dataset, config.split)

    model_cfg = config.model
    domain_cfg = model_cfg.get("domain")
    if not domain_cfg:
        raise ConfigError("reduced_rank task needs a model.domain section")
    domain = DomainSpec(
        half_widths=domain_cfg["half_widths"],
        boundary=domain_cfg.get("boundary", "dirichlet"),
        basis_counts=domain_cfg.get("basis_counts", 32),
        max_total=domain_cfg.get("max_total"),
    )
    kernel = _config_entry(Kernel, "model.kernel", DEFAULT_FAMILY, model_cfg.get("kernel", {}))
    noise_var = float(model_cfg.get("noise_var", 1e-4))
    model = fit_reduced(train, domain, kernel, noise_var)
    mean_pred, var_pred = predict_reduced(model, test.inputs)

    report = MetricsReport(
        nmse_percent=nmse(test.outputs, mean_pred),
        coverage_percent=coverage_metric(train, test),
        squared_errors=(test.outputs - mean_pred) ** 2,
        extras={"task": "reduced_rank", "basis_size": model.basis.size},
    )
    index = np.arange(len(test), dtype=float)
    artifacts = {
        "predictions": (
            ["index", "y_true", "y_mean", "y_var"],
            [index, test.outputs, mean_pred, var_pred],
        ),
        "save_model": lambda out: model_io.save_reduced_rank(out, model, input_cols, target),
    }
    return report, artifacts


def _run_latent_force(config: ExperimentConfig):
    data_cfg = config.data
    if data_cfg.get("generator") != "mdof_chain":
        raise ConfigError("latent_force task ingests the 'mdof_chain' generator")
    model_cfg = config.model
    unknown = set(model_cfg) - {"nu", "sigma", "lengthscale", "noise_var"}
    if unknown:
        raise ConfigError(f"unknown model keys for the latent_force task: {sorted(unknown)}")
    matern = {c.nu: c for c in FAMILIES.values() if hasattr(c, "nu")}
    try:
        nu = float(model_cfg.get("nu", 1.5))
        if nu not in matern:
            raise ValueError(f"nu {nu!r} names no Matern family; expected one of {sorted(matern)}")
        prior = matern[nu](float(model_cfg.get("sigma", 1.0)),
                           float(model_cfg.get("lengthscale", 1.0)))
        noise_var = np.asarray(model_cfg.get("noise_var", 1e-4), dtype=float)
        channels = len(data_cfg.get("params", {}).get("observed", StructuralModel.observed))
        if (noise_var.shape not in ((), (1,), (channels,))
                or not np.all(np.isfinite(noise_var) & (noise_var >= 0.0))):
            raise ValueError(f"noise_var takes one finite, non-negative value or one per observed "
                             f"channel ({channels}), got {noise_var.tolist()}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    optimizer = None
    if config.optimizer is not None:
        # rows in estimate_force's order: sigma, lengthscale, then noise_var if tuned
        bounds = {"sigma": (1e-2, 1e2), "lengthscale": (1e-2, 1e2), **_named_bounds(
            config.optimizer, ("sigma", "lengthscale", "noise_var"))}
        optimizer = PsoConfig(bounds=tuple(bounds.values()),
                              **_pso_settings(config.optimizer, config.seed))
    sim = _generated_frame(data_cfg)["sim"]
    result = estimate_force(
        sim.structure,
        sim.observations,
        dt=sim.dt,
        prior=prior,
        noise_var=noise_var,
        optimizer=optimizer,
    )

    report = MetricsReport(
        nmse_percent=nmse(sim.force, result.force_mean),
        log_marginal_likelihood=result.log_likelihood,
        squared_errors=(sim.force - result.force_mean) ** 2,
        extras={"task": "latent_force", "hyperparameters": result.hyperparameters},
    )
    artifacts = {
        "predictions": (
            ["time", "force_true", "force_mean", "force_var"],
            [sim.time, sim.force, result.force_mean, result.force_var],
        ),
    }
    return report, artifacts
