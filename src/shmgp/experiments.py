"""Config-driven experiment execution.

``run_experiment`` takes an :class:`~shmgp.config.ExperimentConfig` (or a
path to one), builds or loads the data, fits the configured model, scores
predictions and writes three artifacts into the output directory:

* ``predictions.csv`` -- the index column (the data table's first column
                         for exact_gp and reduced_rank, else ``time``), then
                         truth, posterior mean and variance as ``y_*``
                         (``force_*`` for latent_force)
* ``metrics.json``    -- nmse_percent, log_marginal_likelihood,
                         coverage_percent, wall_ms, nmse_variance_convention,
                         task, the task's own extras and, when tuned,
                         hyperparameters
* ``config.json``     -- the resolved configuration actually run

plus the fitted model (``model.json`` / ``model.npz``) where the task
produces one.  All computation happens before any file is touched, and every
file is written atomically, so failures never leave partial outputs.

Each table a run writes has one home: ``_generate`` names the columns of the
CSV tables each generator makes (``shmgp generate`` writes them as they are),
and ``_run_record`` lays out every task's predictions and metrics.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

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
from .pso import PsoConfig, override_box
from .reduced_rank import DomainSpec, fit_reduced, predict_reduced
from .registry import Positive, number, numbers, reads
from .statespace import FORCE_BOUNDS, FORCE_TUNED, StructuralModel, estimate_force
from .tuning import default_bounds, gls_linear_mean, tune_exact_gp, tuned_family

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

    runner, sections = {  # the task's runner and the optional sections it reads
        "exact_gp": (_run_exact_gp, ("split", "optimizer")),
        "narx": (_run_narx, ("optimizer",)),
        "reduced_rank": (_run_reduced_rank, ("split",)),
        "latent_force": (_run_latent_force, ("optimizer",)),
    }[config.task]
    for name in ("split", "optimizer"):
        if name not in sections and getattr(config, name) is not None:
            raise ConfigError(f"{name}: a {config.task} config takes no {name} section")

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
    if artifacts["save_model"] is not None:
        artifacts["save_model"](out)
    return report


# ---------------------------------------------------------------------------
# reading config sections

EMPTY = MappingProxyType({})  # an absent section that is read as an empty object


def _checked(where: str, make, section, **fixed):
    """``make(**fixed, **section)``: config ``section``, named ``where``, read by the
    type or function whose keyword parameters are its keys and defaults.  A
    section that is not an object, or that ``make`` rejects, is a ConfigError."""
    try:
        return make(**fixed, **section)
    except (TypeError, ValueError) as exc:  # without the name of the function called
        raise ConfigError(f"{where}: " + re.sub(r"^[\w.<>]+\(\) ", "", str(exc))) from exc


def _config_entry(group, where: str, name: str, entry):
    """The kernel family, mean form or NARX mode (``group``) given by config
    ``entry``, tagged ``name`` unless it names one."""
    return _checked(where, lambda **keys: group.from_dict({group.tag: name, **keys}), entry)


def _noise_var(value) -> float:
    if not number("noise_var", value) >= 0.0:
        raise ValueError(f"noise_var takes a non-negative number, got {value!r}")
    return float(value)


@reads
def _kernel(optimize: bool = False, **entry):
    """model.kernel as (kernel, ard); a kernel to optimize is its family's class."""
    entry = {"family": DEFAULT_FAMILY, **entry}
    if not optimize:
        return Kernel.from_dict(entry), False
    return tuned_family(**entry), entry.get("ard", False)


def _gp_prior(kernel=EMPTY, noise_var=0.0):
    """(kernel, ard, noise_var) of an exact GP; noise to optimize is None."""
    kernel, ard = _checked("model.kernel", _kernel, kernel)
    if noise_var not in ("optimize", None):
        return kernel, ard, _noise_var(noise_var)
    if isinstance(kernel, Kernel):
        raise ValueError("noise_var can only be optimised together with the kernel")
    return kernel, ard, None


def _exact_gp_model(mean=EMPTY, **prior):
    """The exact_gp model section: (GP prior, mean, whether GLS profiles a line as the mean)."""
    profile = mean == {"form": "linear_fit"}
    return (_gp_prior(**prior),
            None if profile else _config_entry(MeanFunction, "model.mean", "zero", mean), profile)


def _narx_model(lags=None, mode="blackbox", morison=EMPTY, evaluation="free_run", **prior):
    """The narx model section: (NarxConfig, evaluation, GP prior).  model.morison
    holds the drag/inertia coefficients, which only Morison modes take."""
    if not isinstance(evaluation, str) or evaluation not in EVALUATIONS:
        raise ValueError(f"unknown evaluation {evaluation!r}; expected one of "
                         f"{sorted(EVALUATIONS)}")
    if lags is not None and (not isinstance(lags, list) or len(lags) != 2):
        raise ValueError(f"lags takes [exogenous, autoregressive] lag counts, got {lags!r}")
    mode = _config_entry(NarxMode, "model.mode/model.morison", mode, morison)
    return NarxConfig(*(lags or ()), mode=mode), evaluation, _gp_prior(**prior)


def _reduced_rank_model(domain, kernel=EMPTY, noise_var=1e-4):
    """The reduced_rank model section: (DomainSpec, Kernel, noise_var)."""
    return (_checked("model.domain", DomainSpec, domain),
            _config_entry(Kernel, "model.kernel", DEFAULT_FAMILY, kernel),
            _noise_var(noise_var))


@reads
def _force_model(observed, nu: float = 1.5, sigma: Positive = 1.0, lengthscale: Positive = 1.0,
                 noise_var=1e-4):
    """The latent_force model section: the Matern force prior of smoothness
    ``nu`` and the noise variance, one value or one per ``observed`` channel."""
    matern = {c.nu: c for c in FAMILIES.values() if hasattr(c, "nu")}
    if nu not in matern:
        raise ValueError(f"nu {nu} names no Matern family; expected one of {sorted(matern)}")
    prior = matern[nu](sigma, lengthscale)
    noise_var = (numbers if np.ndim(noise_var) else number)("noise_var", noise_var)
    if np.size(noise_var) not in (1, len(observed)) or np.any(noise_var < 0.0):
        raise ValueError(f"noise_var takes one finite, non-negative value or one per observed "
                         f"channel ({len(observed)}), got {noise_var.tolist()}")
    return prior, noise_var


def _optimizer(config: ExperimentConfig, box: dict, names=None) -> tuple[dict, dict]:
    """The optimizer section as (bounds by name, swarm settings); the bounds
    must override ``box``, out of ``names``, as :func:`override_box` allows,
    and the swarm checks its settings."""

    def read(bounds=EMPTY, seed=config.seed, **swarm):
        override_box(box, bounds, names)
        PsoConfig(bounds=((0.0, 1.0),), seed=seed, **swarm)
        return dict(bounds), {"seed": seed, **swarm}

    return _checked("optimizer", read, config.optimizer or EMPTY)


@reads
def _head_fraction(n: int, fraction: float = 0.5) -> np.ndarray:
    """Train on the first ``fraction`` of the rows, test on the rest."""
    k = int(n * fraction)
    if not 1 <= k < n:
        raise ValueError("head_fraction split leaves an empty train or test set")
    return np.arange(n) < k


@reads
def _stride(n: int, stride: int = 8) -> np.ndarray:
    """Train on every ``stride``-th row from the first, test on the rest."""
    if stride < 2:
        raise ValueError("stride split needs stride >= 2")
    return np.arange(n) % stride == 0


SPLITS = {"head_fraction": _head_fraction, "stride": _stride}  # type -> training-row mask


# ---------------------------------------------------------------------------
# data loading


def _generator_spec(generator, params=EMPTY) -> dict:
    """A data section that runs ``generator`` with keyword arguments ``params``."""
    if not isinstance(params, Mapping):
        raise ValueError(f"params takes an object of generator arguments, got {params!r}")
    return {"generator": generator, "params": dict(params)}


def _csv_file(path) -> dict:
    """A data section that reads the CSV file at ``path``, time first."""
    return {"path": path}


def _data(config: ExperimentConfig, **task_keys) -> dict:
    """config.data: its source, a CSV file ``path`` or a generator spec, read
    by that source's reader, and the keys the task takes (``task_keys``, name
    -> default), all in one dictionary.  Any other key is a ConfigError."""
    reader = _csv_file if "path" in config.data else _generator_spec

    def read(**section):
        keys = {name: section.pop(name, default) for name, default in task_keys.items()}
        return {**reader(**section), **keys}

    return _checked("data", read, config.data)


def _generated_frame(data: dict) -> dict:
    """Run a generator spec into its frame (see ``_generate``).  A fault in the
    spec is a ConfigError; a simulation that diverges is a DataError."""
    name = data["generator"]
    try:
        return _generate(name, dict(data["params"]))
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"data.params of generator {name!r}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _table(*named) -> tuple[list, list]:
    """The (header, columns) of a CSV table from (name, column) pairs, in order;
    a name may repeat."""
    return [name for name, _ in named], [column for _, column in named]


def _generate(name, params: dict) -> dict:
    """The frame of generator ``name``: under ``tables``, each CSV table that
    ``shmgp generate`` writes, as file stem -> (header, columns); the model's
    default ``inputs`` and ``target`` columns where it has them; and the
    objects tasks read: the wave ``record`` and the chain ``sim``."""
    if name == "trend":
        ds = generate_trend_series(**params)
        inputs = ["temperature", "sin_daily", "cos_daily"]
        return {"tables": {"data": _table(("time", ds.timestamps), *zip(inputs, ds.inputs.T),
                                          ("y", ds.outputs))},
                "inputs": inputs, "target": "y"}
    if name == "sdof_oscillator":
        seq = simulate_sdof(**params)
        return {"tables": {"data": _table(("time", np.arange(len(seq)) * seq.dt),
                                          ("force", seq.u[:, 0]), ("y", seq.y))},
                "inputs": ["time"], "target": "y"}
    if name == "wave":
        rec = generate_wave_loading(**params)
        inputs = ["U", "Udot"]
        return {"tables": {"data": _table(("time", np.arange(len(rec.seq)) * rec.seq.dt),
                                          *zip(inputs, rec.seq.u.T), ("y", rec.seq.y))},
                "inputs": inputs, "target": "y", "record": rec}
    if name == "bounded_field":
        train, test = generate_bounded_field(**params)
        inputs = ["x0", "x1"]
        return {"tables": {stem: _table(("index", np.arange(len(ds), dtype=float)),
                                        *zip(inputs, ds.inputs.T), ("y", ds.outputs))
                           for stem, ds in (("train", train), ("test", test))},
                "inputs": inputs, "target": "y"}
    if name == "mdof_chain":
        force = params.pop("force")
        if not isinstance(force, dict):
            raise ValueError(f"force takes an object of band_limited_force parameters, "
                             f"got {force!r}")
        force = band_limited_force(dt=params["dt"], **force)
        sim = simulate_mdof_chain(force=force, **params)
        observed = [(f"{kind}_{dof}", column)
                    for (kind, dof), column in zip(sim.structure.observed, sim.observations.T)]
        return {"tables": {"data": _table(("time", sim.time), *observed,
                                          ("force_true", sim.force))},
                "sim": sim}
    raise ConfigError(f"unknown generator {name!r}")


def _load_tabular(config: ExperimentConfig):
    """The training and test sets of a tabular task, with the columns
    data.inputs (a list of names) and data.target (one name) of a generator's
    tables or a CSV file; returns (train, test, input names, target, name of
    the first column, which holds the timestamps).  One ``data`` table, or the
    file, is split by config.split; a generator's ``train`` and ``test`` tables
    are its own split, so a split section next to them is a ConfigError.  A
    column a generator does not make, or a name of another type, is a
    ConfigError; a column a CSV file lacks is a DataError."""
    data = _data(config, inputs=None, target=None)
    inputs, target = data["inputs"], data["target"]
    if not (isinstance(inputs, (list, type(None))) and isinstance(target, (str, type(None)))
            and all(isinstance(c, str) for c in inputs or ()) and inputs != []):
        raise ConfigError(f"data.inputs takes a list of column names, at least one, and "
                          f"data.target one name, got {inputs!r} and {target!r}")
    if "generator" in data:
        frame = _generated_frame(data)
        if "target" not in frame:
            raise ConfigError("generator does not produce tabular data for this task")
        header = next(iter(frame["tables"].values()))[0]  # the field's two tables share it
        tables = {stem: np.column_stack(columns) for stem, (_, columns) in frame["tables"].items()}
        inputs = frame["inputs"] if inputs is None else inputs
        target = frame["target"] if target is None else target
    else:
        header, table = model_io.read_csv(data["path"])
        tables = {"data": table}
        target = "y" if target is None else target
        if inputs is None:
            inputs = [h for h in header[1:] if h != target]
    try:
        sets = {stem: Dataset(np.column_stack([table[:, header.index(c)] for c in inputs]),
                              table[:, header.index(target)], timestamps=table[:, 0])
                for stem, table in tables.items()}
    except ValueError as exc:
        if "generator" in data:
            raise ConfigError(f"data.inputs and data.target name columns out of "
                              f"{sorted(header)}: {type(exc).__name__}: {exc}") from exc
        raise DataError(f"column missing from {data['path']}: {exc}") from exc
    if "data" in sets:
        sets["train"], sets["test"] = _split(sets["data"], config.split)
    elif config.split is not None:
        raise ConfigError(f"split: generator {data['generator']!r} makes its own split")
    return sets["train"], sets["test"], inputs, target, header[0]


def _split(dataset: Dataset, split_cfg: dict | None):
    def train_mask(type="head_fraction", **keys):
        if not isinstance(type, str) or type not in SPLITS:
            raise ValueError(f"unknown split type {type!r}; expected one of {sorted(SPLITS)}")
        return SPLITS[type](len(dataset), **keys)

    mask = _checked("split", train_mask, split_cfg or EMPTY)
    return tuple(Dataset(dataset.inputs[rows], dataset.outputs[rows],
                         timestamps=dataset.timestamps[rows]) for rows in (mask, ~mask))


# ---------------------------------------------------------------------------
# task runners


def _run_record(index, prefix: str, truth, mean, var, extras: dict, params=None,
                save_model=None, **scores):
    """A run's (MetricsReport, artifacts).  predictions.csv holds ``index`` (name,
    values), then ``prefix``_true, _mean and _var; the report holds the nMSE of
    ``mean`` against ``truth``, the other ``scores`` and ``extras``, with the
    tuned ``params``, if any, last as ``hyperparameters``.  ``save_model(out)``
    writes the fitted model; it is None where the task has none."""
    if params:
        extras = {**extras, "hyperparameters": params}
    report = MetricsReport(nmse_percent=nmse(truth, mean), squared_errors=(truth - mean) ** 2,
                           extras=extras, **scores)
    header = [index[0], *(f"{prefix}_{part}" for part in ("true", "mean", "var"))]
    return report, {"predictions": (header, [index[1], truth, mean, var]),
                    "save_model": save_model}


def _fit_gp_model(config: ExperimentConfig, train: Dataset, prior, mean, dt=None,
                  profile_mean=False):
    kernel, ard, noise_var = prior
    # an optimizer section next to a fixed kernel is unused, but held to the same checks
    bounds, swarm = _optimizer(config, default_bounds(kernel.family, train, ard, dt, noise_var))
    if isinstance(kernel, Kernel):
        if profile_mean:
            mean = gls_linear_mean(train, kernel, noise_var)
        return gp.fit_exact(train, kernel, mean=mean, noise_var=noise_var), None
    result = tune_exact_gp(train, kernel.family, mean=mean, profile_linear_mean=profile_mean,
                           ard=ard, noise_var=noise_var, bounds=bounds, dt=dt, **swarm)
    return result.model, result.params


def _run_exact_gp(config: ExperimentConfig):
    prior, mean, profile_mean = _checked("model", _exact_gp_model, config.model)
    train, test, input_cols, target, index_col = _load_tabular(config)
    if mean is not None:
        try:
            mean(train.inputs)
        except ValueError as exc:
            raise ConfigError(f"model.mean does not fit data.inputs: {exc}") from exc
    # the median step of the kernel's (first) input over every row, not only the training rows
    dt = float(np.median(np.diff(np.sort(np.concatenate([train.inputs[:, 0], test.inputs[:, 0]])))))
    model, params = _fit_gp_model(config, train, prior, mean, dt=dt, profile_mean=profile_mean)

    pred = gp.predict(model, test.inputs)
    return _run_record(
        (index_col, test.timestamps), "y", test.outputs, pred.mean, pred.var,
        {"task": "exact_gp", "n_train": len(train), "n_test": len(test)}, params,
        lambda out: model_io.save_exact_gp(out, model, input_cols, target),
        log_marginal_likelihood=model.lml, coverage_percent=coverage_metric(train, test))


def _free_run(model: NarxModel, seq: SequenceData):
    """Free run from first_index on, so measured seeds exist and the
    trajectory lines up one-to-one with the lag-matrix targets."""
    cfg = model.config
    p = cfg.first_index
    mean = simulate_free_run(model, seq.u[p - cfg.exog_lags :], y_init=seq.y[p - cfg.auto_lags : p])
    return mean, np.full_like(mean, np.nan)


EVALUATIONS = {"osa": predict_osa, "free_run": _free_run}  # -> (mean, variance) over test_seq


def _run_narx(config: ExperimentConfig):
    cfg, evaluation, prior = _checked("model", _narx_model, config.model)
    data = _data(config, level=100)
    if data.get("generator") != "wave":
        raise ConfigError("narx task currently ingests the 'wave' generator")
    frame = _generated_frame(data)
    rec = frame["record"]
    seq = rec.seq
    level = data["level"]
    if not isinstance(level, int) or level not in rec.train_windows:
        raise ConfigError(f"data.level takes a coverage level out of "
                          f"{sorted(rec.train_windows)}, got {level!r}")
    train_seq, test_seq = (SequenceData(u=seq.u[w], y=seq.y[w], dt=seq.dt)
                           for w in (rec.train_windows[level], rec.test_window))

    train, mean = training_data(train_seq, cfg)
    gp_model, params = _fit_gp_model(config, train, prior, mean, dt=seq.dt)
    model = NarxModel(gp=gp_model, config=cfg, n_channels=seq.u.shape[1])
    X_test, test_targets = build_lag_matrix(test_seq, cfg)
    mean_pred, var_pred = EVALUATIONS[evaluation](model, test_seq)
    index = np.arange(cfg.first_index, len(test_seq)).astype(float) * seq.dt
    return _run_record(
        ("time", index), "y", test_targets, mean_pred, var_pred,
        {"task": "narx", "evaluation": evaluation, "level": level}, params,
        lambda out: model_io.save_narx(out, model, frame["inputs"], frame["target"]),
        log_marginal_likelihood=gp_model.lml,
        coverage_percent=coverage_metric(train, Dataset(X_test, test_targets)))


def _run_reduced_rank(config: ExperimentConfig):
    domain, kernel, noise_var = _checked("model", _reduced_rank_model, config.model)
    train, test, input_cols, target, index_col = _load_tabular(config)
    if domain.dim != train.inputs.shape[1]:
        raise ConfigError(f"model.domain is {domain.dim}-D but data.inputs have dimension "
                          f"{train.inputs.shape[1]}")
    model = fit_reduced(train, domain, kernel, noise_var)
    mean_pred, var_pred = predict_reduced(model, test.inputs)
    return _run_record(
        (index_col, test.timestamps), "y", test.outputs, mean_pred, var_pred,
        {"task": "reduced_rank", "basis_size": model.basis.size},
        save_model=lambda out: model_io.save_reduced_rank(out, model, input_cols, target),
        coverage_percent=coverage_metric(train, test))


def _run_latent_force(config: ExperimentConfig):
    data = _data(config)
    if data.get("generator") != "mdof_chain":
        raise ConfigError("latent_force task ingests the 'mdof_chain' generator")
    observed = data["params"].get("observed", StructuralModel.observed)
    if not isinstance(observed, (list, tuple)):  # the model section counts its channels
        raise ConfigError(f"data.params: observed takes [kind, dof] pairs, got {observed!r}")
    prior, noise_var = _checked("model", _force_model, config.model, observed=observed)
    bounds, swarm = (_optimizer(config, FORCE_BOUNDS, FORCE_TUNED) if config.optimizer is not None
                     else (None, {}))
    sim = _generated_frame(data)["sim"]
    result = estimate_force(sim.structure, sim.observations, dt=sim.dt, prior=prior,
                            noise_var=noise_var, bounds=bounds, **swarm)
    return _run_record(
        ("time", sim.time), "force", sim.force, result.force_mean, result.force_var,
        {"task": "latent_force"}, result.hyperparameters,
        log_marginal_likelihood=result.log_likelihood)
