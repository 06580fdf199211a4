"""Fitted-model persistence and CSV interchange.

Models are saved as a JSON description (kernel family, mean form, layout)
next to an .npz holding the arrays.  All files are written to a temporary
name and renamed into place, so a crash never leaves partial artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .errors import DataError
from .gp import TrainedGp
from .kernels import kernel_from_dict
from .means import MeanFunction
from .narx import NarxConfig, NarxMode, NarxModel
from .reduced_rank import DomainSpec, ReducedRankGp, eigenpairs, spectral_weights

MODEL_JSON = "model.json"
MODEL_NPZ = "model.npz"
# arrays saved per model kind, with symbolic shapes checked on load
GP_ARRAYS = {"X": ("n", "d"), "y": ("n",), "residual": ("n",), "chol": ("n", "n"), "alpha": ("n",)}
REDUCED_RANK_ARRAYS = {"weight_mean": ("M",), "weight_cov": ("M", "M")}


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header plus float matrix from a comma-separated file."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path} is empty")
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = [h.strip() for h in header]
    try:
        data = np.array([[float(v) for v in row] for row in rows if row], dtype=float)
    except ValueError as exc:
        raise DataError(f"non-numeric value in {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
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
    """The named arrays, each checked to have the shape given by its symbolic
    dims; ``sizes`` holds known dims, and a dim seen first fixes the rest."""
    for name, dims in shapes.items():
        if name not in arrays:
            raise DataError(f"{MODEL_NPZ} lacks array {name!r}")
        shape = arrays[name].shape
        if len(shape) != len(dims) or any(
            sizes.setdefault(dim, size) != size for dim, size in zip(dims, shape)
        ):
            raise DataError(f"array {name!r} in {MODEL_NPZ} has shape {shape}, expected {dims}")
    return {name: arrays[name] for name in shapes}


def load_model(directory):
    """Rebuild a saved model; returns (doc, model) with model matching doc['type'].

    A missing or malformed entry, or an array shape that disagrees with the
    others or with model.json, raises DataError.
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
    kind = doc["type"]
    kernel = kernel_from_dict(doc["kernel"])
    if kind in ("exact_gp", "narx"):
        sizes = {"d": len(doc["input_columns"])} if kind == "exact_gp" else {}
        gp_model = TrainedGp(
            kernel=kernel,
            mean=MeanFunction.from_dict(doc["mean"]),
            noise_var=doc["noise_var"],
            jitter=doc["jitter"],
            lml=doc["lml"],
            **_checked(arrays, GP_ARRAYS, sizes),
        )
        if kind == "exact_gp":
            return gp_model
        spec = doc["narx"]
        cfg = NarxConfig(exog_lags=spec["exog_lags"], auto_lags=spec["auto_lags"],
                         mode=NarxMode.from_dict(spec["mode"]))
        return NarxModel(gp=gp_model, config=cfg, n_channels=spec["n_channels"])
    if kind == "reduced_rank":
        basis = spectral_weights(eigenpairs(DomainSpec(**doc["domain"])), kernel)
        return ReducedRankGp(
            basis=basis,
            kernel=kernel,
            noise_var=doc["noise_var"],
            **_checked(arrays, REDUCED_RANK_ARRAYS, {"M": basis.size}),
        )
    raise DataError(f"unknown model type {kind!r}")
