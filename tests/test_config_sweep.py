"""Every value of every shipped config and saved model, replaced in turn by a
value of the wrong kind, ends with a documented exit code and no traceback.

A config leaf is a scalar, or a list whose entries are all scalars (then
each entry is a leaf too).  Each is replaced by each of ``SUBSTITUTES``;
``shmgp fit`` (or ``generate``, for the ``generate_*`` specs) must exit 0,
or exit 2 with a one-line message that names the nearest string key above
the leaf.  Every swarm is shortened to 2 particles and 1 iteration, except
where the case replaces one of those two settings, so that an accepted
value runs a short fit; each fault the sweep looks for shows at the first
read or draw.  The model half replaces each leaf of the ``model.json`` that
four shipped configs save; ``shmgp predict`` must exit 0 or 3.
"""

import copy
import json
import shutil
from pathlib import Path

import pytest

from shmgp.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SUBSTITUTES = {"string": "x", "list": [1.0, 2.0], "null": None, "object": {}, "negative": -1,
               "true": True}

SHORT_SWARM = {"particles": 2, "iterations": 1}


def _leaves(value, path=()):
    """Paths of the leaves of a JSON document, in document order."""
    if isinstance(value, dict):
        for key, entry in value.items():
            yield from _leaves(entry, path + (key,))
        return
    if isinstance(value, list):
        if all(not isinstance(entry, (dict, list)) for entry in value):
            yield path
        for i, entry in enumerate(value):
            yield from _leaves(entry, path + (i,))
        return
    yield path


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return doc


def _key(path) -> str:
    """The nearest string key on ``path``, from the leaf up."""
    return next(key for key in reversed(path) if isinstance(key, str))


def _label(path) -> str:
    return ".".join(map(str, path))


def _config_cases():
    for config in sorted(CONFIGS.glob("*.json")):
        doc = json.loads(config.read_text())
        for path in _leaves(doc):
            for name in SUBSTITUTES:
                yield pytest.param(config.stem, path, name,
                                   id=f"{config.stem}-{_label(path)}-{name}")


@pytest.mark.parametrize("config, path, substitute", _config_cases())
def test_a_config_value_of_the_wrong_kind_exits_0_or_2_naming_its_key(
        tmp_path, capsys, config, path, substitute):
    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    if isinstance(doc.get("optimizer"), dict):
        doc["optimizer"].update(SHORT_SWARM)
    doc = _replaced(doc, path, SUBSTITUTES[substitute])
    command = "generate" if config.startswith("generate_") else "fit"
    source = tmp_path / "config.json"
    source.write_text(json.dumps(doc))
    code = main([command, str(source), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err
        assert _key(path) in err, err


# shipped configs whose fit saves a model -> the generator spec and table
# of the data that model predicts (None: the config's own data section)
SAVED = {
    "sdof_kernel_gp": (None, "data.csv"),
    "trend_linear_mean": (None, "data.csv"),
    "wave_narx_residual": ("generate_wave", "data.csv"),
    "reduced_rank_field": (None, "test.csv"),
}


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """Shipped config name -> (model directory, table it predicts), each fit
    with a short swarm."""
    root = tmp_path_factory.mktemp("saved")
    models = {}
    for name, (spec, table) in SAVED.items():
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        if "optimizer" in doc:
            doc["optimizer"].update(SHORT_SWARM)
        config = root / f"{name}.json"
        config.write_text(json.dumps(doc))
        assert main(["fit", str(config), "-o", str(root / name)]) == 0
        if spec is None:
            spec = root / f"{name}-spec.json"
            spec.write_text(json.dumps({"generator": doc["data"]["generator"],
                                        "params": doc["data"]["params"]}))
        else:
            spec = CONFIGS / f"{spec}.json"
        assert main(["generate", str(spec), "-o", str(root / f"{name}-data")]) == 0
        models[name] = root / name, root / f"{name}-data" / table
    return models


@pytest.mark.parametrize("substitute", SUBSTITUTES)
@pytest.mark.parametrize("name", SAVED)
def test_a_saved_model_value_of_the_wrong_kind_exits_0_or_3(
        tmp_path, capsys, saved_models, name, substitute):
    directory, table = saved_models[name]
    doc = json.loads((directory / "model.json").read_text())
    failed = []
    for path in _leaves(doc):
        model = tmp_path / _label(path)
        model.mkdir()
        shutil.copy(directory / "model.npz", model)
        (model / "model.json").write_text(json.dumps(_replaced(doc, path,
                                                               SUBSTITUTES[substitute])))
        try:
            code = main(["predict", str(model), str(table),
                         "-o", str(model / "predictions.csv")])
        except Exception as exc:  # noqa: BLE001 -- each leaf that raises is listed
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 3):
            failed.append((_label(path), code, err))
    assert not failed
