"""Experiment configuration: a thin typed wrapper over JSON documents."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .registry import read_fields

TASKS = ("exact_gp", "narx", "reduced_rank", "latent_force")


@dataclass
class ExperimentConfig:
    """One experiment: task, data source, model settings, optional optimizer.

    Sub-sections stay as plain dictionaries (they are task-specific and
    validated by the task runners), which keeps serialisation lossless:
    a config survives to_dict/from_dict bit for bit.
    """

    task: str
    data: dict
    model: dict = field(default_factory=dict)
    split: dict | None = None
    optimizer: dict | None = None
    output_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if not isinstance(self.data, dict):
            raise ConfigError("'data' section must be an object")
        if not isinstance(self.model, dict):
            raise ConfigError("'model' section must be an object")
        read_fields(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return asdict(self)
