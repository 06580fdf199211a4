"""Command-line entry point.

Subcommands:

* ``generate <spec.json> -o <dir>``   -- run a data generator, write CSV
* ``fit <config.json> [-o dir]``      -- run an experiment end to end
* ``predict <model-dir> <data.csv>``  -- predictions from a saved model
* ``eval <pred.csv> <truth.csv>``     -- score a prediction file
* ``latent-force <config.json>``      -- force estimation experiment

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure; each failure prints a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gp, model_io, narx, reduced_rank
from .config import ExperimentConfig
from .errors import ConfigError, DataError, NumericalError
from .experiments import (
    _checked,
    _generated_frame,
    _generator_spec,
    resolve_output_dir,
    run_experiment,
)
from .metrics import nmse

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def cmd_generate(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read generator spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {args.spec}: {exc}") from exc
    spec = _checked("generator spec", _generator_spec, spec)
    frame = _generated_frame(spec)
    out = resolve_output_dir(None, args.output, f"{spec['generator']}-data")
    out.mkdir(parents=True, exist_ok=True)

    for stem, (header, columns) in frame["tables"].items():
        model_io.write_csv(out / f"{stem}.csv", header, columns)
    model_io.atomic_write_text(out / "generator.json", json.dumps(spec, indent=2) + "\n")
    print(str(out))
    return 0


def cmd_fit(args) -> int:
    """``fit``, and ``latent-force``, which runs only latent_force configs."""
    if args.command == "latent-force":
        task = ExperimentConfig.from_json(args.config).task
        if task != "latent_force":
            raise ConfigError(f"latent-force subcommand requires task 'latent_force', got {task!r}")
    report = run_experiment(args.config, output_dir=args.output)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def cmd_predict(args) -> int:
    doc, model = model_io.load_model(args.model_dir)
    header, data = model_io.read_csv(args.data)

    def column(name):
        if name not in header:
            raise DataError(f"column {name!r} missing from {args.data}")
        return data[:, header.index(name)]

    kind, target = doc["type"], doc.get("target")
    inputs = np.column_stack([column(c) for c in doc["input_columns"]])
    index = data[:, 0]
    if kind == "exact_gp":
        pred = gp.predict(model, inputs)
        mean, var = pred.mean, pred.var
    elif kind == "reduced_rank":
        mean, var = reduced_rank.predict_reduced(model, inputs)
    else:  # narx: one-step-ahead over a sequence file
        dt = float(np.median(np.diff(index))) if len(index) > 1 else 1.0
        if len(index) > 1 and np.abs(np.diff(index) - dt).max() > 1e-6 * abs(dt):
            raise DataError(f"{args.data}: lagged models need uniformly sampled time")
        mean, var = narx.predict_osa(model, narx.SequenceData(u=inputs, y=column(target), dt=dt))
        index = index[model.config.first_index :]

    header_out, columns = [header[0], "y_mean", "y_var"], [index, mean, var]
    if kind != "narx" and target in header:
        header_out = [header[0], "y_true", "y_mean", "y_var"]
        columns = [index, column(target), mean, var]

    out = Path(args.output) if args.output else Path(args.model_dir) / "predictions.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    model_io.write_csv(out, header_out, columns)
    print(str(out))
    return 0


def cmd_eval(args) -> int:
    pred_header, pred = model_io.read_csv(args.predictions)
    truth_header, truth = model_io.read_csv(args.truth)
    if args.pred_column not in pred_header:
        raise DataError(f"column {args.pred_column!r} not in {args.predictions}")
    if args.truth_column not in truth_header:
        raise DataError(f"column {args.truth_column!r} not in {args.truth}")
    f = pred[:, pred_header.index(args.pred_column)]
    y = truth[:, truth_header.index(args.truth_column)]
    if f.shape[0] != y.shape[0]:
        raise DataError(
            f"row counts differ: {args.predictions} has {f.shape[0]}, {args.truth} has {y.shape[0]}"
        )
    print(json.dumps({"nmse_percent": nmse(y, f)}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmgp",
        description="Physics-informed GP regression toolkit: generators, fitting, scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run a synthetic data generator")
    p.add_argument("spec", help="generator spec JSON")
    p.add_argument("-o", "--output", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="run an experiment from a config file")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("-o", "--output", help="output directory override")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("model_dir", help="directory holding model.json/model.npz")
    p.add_argument("data", help="input data CSV")
    p.add_argument("-o", "--output", help="output CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against truth")
    p.add_argument("predictions", help="predictions CSV")
    p.add_argument("truth", help="truth CSV")
    p.add_argument("--pred-column", default="y_mean")
    p.add_argument("--truth-column", default="y")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("latent-force", help="run a latent force experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("-o", "--output", help="output directory override")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
