"""Fitted-model persistence and CSV interchange.

Models are saved as a JSON description (kernel family, mean form, layout)
next to an .npz of the arrays prediction reads; loading picks only those, so
an .npz with more (earlier versions saved y and residual) still loads.  All
files are written to a temporary name and renamed into place, so a crash
never leaves partial artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
import zipfile
from pathlib import Path

import numpy as np

from .errors import DataError
from .gp import TrainedGp
from .kernels import Kernel
from .means import MeanFunction
from .narx import NarxConfig, NarxMode, NarxModel
from .reduced_rank import DomainSpec, ReducedRankGp, eigenpairs, spectral_weights
from .registry import count, number

MODEL_JSON = "model.json"
MODEL_NPZ = "model.npz"
# arrays saved per model kind, with symbolic shapes checked on load
GP_ARRAYS = {"X": ("n", "d"), "chol": ("n", "n"), "alpha": ("n",)}
REDUCED_RANK_ARRAYS = {"weight_mean": ("M",), "weight_cov": ("M", "M")}


# rows of a CSV formatted at a time, so that the text of one chunk, not of
# the whole table, is held in memory
CSV_CHUNK_ROWS = 2048


def _tmp_path(path: Path) -> Path:
    """The temporary sibling a file is written to before it is renamed."""
    return path.with_name(path.name + f".tmp-{os.getpid()}")


def atomic_write_text(path: Path, text: str) -> None:
    tmp = _tmp_path(path)
    tmp.write_text(text)
    os.replace(tmp, path)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = _tmp_path(path)
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The columns under ``header``, one ``repr`` a value, written to the
    temporary sibling ``CSV_CHUNK_ROWS`` rows at a time and renamed into
    place."""
    path = Path(path)
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    tmp = _tmp_path(path)
    with open(tmp, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start : start + CSV_CHUNK_ROWS].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in chunk]))
    os.replace(tmp, path)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header plus float matrix from a comma-separated file.

    A file that is empty, has no rows below its header, holds a value that is
    not a number or has rows of another width than the header raises
    DataError.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path} is empty")
            with warnings.catch_warnings():
                # a file without rows is reported below, as DataError
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc
    header = [h.strip() for h in header]
    if data.shape[0] == 0:
        raise DataError(f"{path} has no rows below its header")
    if data.shape[1] != len(header):
        raise DataError(f"{path}: column count does not match header")
    return header, data


def save_exact_gp(directory, model: TrainedGp, input_columns: list[str], target: str) -> None:
    _save(directory, "exact_gp", model, input_columns, target, GP_ARRAYS, **_gp_fields(model))


def save_narx(directory, model: NarxModel, input_columns: list[str], target: str) -> None:
    cfg = model.config
    narx = {"exog_lags": cfg.exog_lags, "auto_lags": cfg.auto_lags, "mode": cfg.mode.to_dict(),
            "n_channels": model.n_channels}
    _save(directory, "narx", model.gp, input_columns, target, GP_ARRAYS,
          **_gp_fields(model.gp), narx=narx)


def save_reduced_rank(directory, model: ReducedRankGp, input_columns: list[str], target: str) -> None:
    domain = model.basis.domain
    _save(directory, "reduced_rank", model, input_columns, target, REDUCED_RANK_ARRAYS, domain={
        "half_widths": domain.half_widths.tolist(),
        "boundary": domain.boundary,
        "basis_counts": domain.basis_counts.tolist(),
        "max_total": domain.max_total,
    })


def _gp_fields(model: TrainedGp) -> dict:
    return {"mean": model.mean.to_dict(), "jitter": model.jitter, "lml": model.lml}


def _save(directory, kind: str, model, input_columns, target: str, arrays: dict, **fields):
    """Write model.npz (the model's attributes named in ``arrays``), then
    model.json: type, kernel, noise, ``fields``, input columns and target."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"type": kind, "kernel": model.kernel.to_dict(), "noise_var": model.noise_var,
           **fields, "input_columns": list(input_columns), "target": target}
    buf = io.BytesIO()
    np.savez(buf, **{name: getattr(model, name) for name in arrays})
    atomic_write_bytes(directory / MODEL_NPZ, buf.getvalue())
    atomic_write_text(directory / MODEL_JSON, json.dumps(doc, indent=2) + "\n")


def _checked(arrays: dict, shapes: dict, sizes: dict) -> dict:
    """The named arrays, each checked to be finite and to have the shape given
    by its symbolic dims; ``sizes`` holds known dims, and a dim seen first
    fixes the rest."""
    for name, dims in shapes.items():
        if name not in arrays:
            raise DataError(f"{MODEL_NPZ} lacks array {name!r}")
        shape = arrays[name].shape
        if len(shape) != len(dims) or any(
            sizes.setdefault(dim, size) != size for dim, size in zip(dims, shape)
        ):
            raise DataError(f"array {name!r} in {MODEL_NPZ} has shape {shape}, expected {dims}")
        if not np.all(np.isfinite(arrays[name])):
            raise DataError(f"array {name!r} in {MODEL_NPZ} has non-finite entries")
    return {name: arrays[name] for name in shapes}


def load_model(directory):
    """Rebuild a saved model; returns (doc, model) with model matching doc['type'].

    A missing or malformed entry, a non-finite array entry, or an array shape
    that disagrees with the others or with model.json, raises DataError.
    """
    directory = Path(directory)
    try:
        doc = json.loads((directory / MODEL_JSON).read_text())
        with np.load(directory / MODEL_NPZ) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot load model from {directory}: {exc}") from exc
    try:
        return doc, _build_model(doc, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"corrupt model in {directory}: {exc!r}") from exc


def _build_model(doc: dict, arrays: dict):
    kind, columns = doc["type"], doc["input_columns"]
    if not (isinstance(columns, list) and columns and all(isinstance(c, str) for c in columns)):
        raise ValueError(f"input_columns takes a list of column names, got {columns!r}")
    kernel = Kernel.from_dict(doc["kernel"])
    if kind in ("exact_gp", "narx"):
        sizes = {"d": len(columns)} if kind == "exact_gp" else {}
        gp_model = TrainedGp(
            kernel=kernel,
            mean=MeanFunction.from_dict(doc["mean"]),
            noise_var=number("noise_var", doc["noise_var"]),
            jitter=number("jitter", doc["jitter"]),
            lml=number("lml", doc["lml"]),
            **_checked(arrays, GP_ARRAYS, sizes),
        )
        if kind == "exact_gp":
            return gp_model
        spec = doc["narx"]
        cfg = NarxConfig(exog_lags=spec["exog_lags"], auto_lags=spec["auto_lags"],
                         mode=NarxMode.from_dict(spec["mode"]))
        count("n_channels", spec["n_channels"], least=1)
        if spec["n_channels"] != len(columns):
            raise ValueError(f"n_channels takes one per input column, got {spec['n_channels']}")
        return NarxModel(gp=gp_model, config=cfg, n_channels=spec["n_channels"])
    if kind == "reduced_rank":
        basis = spectral_weights(eigenpairs(DomainSpec(**doc["domain"])), kernel)
        return ReducedRankGp(
            basis=basis,
            kernel=kernel,
            noise_var=number("noise_var", doc["noise_var"]),
            **_checked(arrays, REDUCED_RANK_ARRAYS, {"M": basis.size}),
        )
    raise DataError(f"unknown model type {kind!r}")
