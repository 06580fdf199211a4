"""Save/load round trip of every model type, and of the CSV tables, as
hypothesis properties.

A loaded model must predict bit for bit what the saved one did, and saving
it again must write the same model.json; a table read back holds the bits
that were written.
"""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shmgp import gp, model_io
from shmgp.errors import DataError
from shmgp.kernels import SquaredExponential
from shmgp.means import LinearMean, ZeroMean
from shmgp.model_io import (
    MODEL_JSON,
    load_model,
    read_csv,
    save_exact_gp,
    save_narx,
    save_reduced_rank,
    write_csv,
)
from shmgp.narx import (
    BlackBox,
    InputAugmentation,
    NarxConfig,
    ResidualMean,
    SequenceData,
    predict_osa,
)
from shmgp.physics import MorisonMean
from shmgp.reduced_rank import DomainSpec, fit_reduced, predict_reduced

ROUND_TRIP = settings(max_examples=15, deadline=None, database=None)

seeds = st.integers(0, 2**32 - 1)
positive = st.floats(0.2, 5.0)
noise = st.floats(1e-3, 1.0)
morison = st.builds(MorisonMean, drag=st.floats(-3.0, 3.0), inertia=st.floats(-3.0, 3.0))
modes = st.one_of(st.just(BlackBox()), st.builds(ResidualMean, morison),
                  st.builds(InputAugmentation, morison))


def _means(d):
    linear = st.builds(LinearMean, st.floats(-10.0, 10.0),
                       st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    forms = [st.just(ZeroMean()), linear]
    if d >= 2:  # the Morison mean reads the first two input columns
        forms.append(morison)
    return st.one_of(forms)


def _resaved_doc(tmp_path, save, loaded, *args):
    save(tmp_path / "again", loaded, *args)
    return (tmp_path / "again" / MODEL_JSON).read_text()


@st.composite
def exact_gp_cases(draw):
    d = draw(st.integers(1, 3))
    return d, draw(_means(d)), draw(positive), draw(positive), draw(noise), draw(seeds)


@ROUND_TRIP
@given(case=exact_gp_cases())
def test_exact_gp_round_trip(tmp_path_factory, case):
    d, mean, scale, ell, noise_var, seed = case
    tmp_path = tmp_path_factory.mktemp("exact")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(12, d))
    y = np.sin(2.0 * X[:, 0]) + 0.1 * rng.standard_normal(12)
    model = gp.fit_exact(gp.Dataset(X, y), SquaredExponential(scale, ell), mean=mean,
                         noise_var=noise_var)
    columns = [f"x{k}" for k in range(d)]
    save_exact_gp(tmp_path, model, columns, "y")
    doc, loaded = load_model(tmp_path)
    assert doc["mean"] == mean.to_dict() == loaded.mean.to_dict()
    Xs = rng.uniform(-1.5, 1.5, size=(5, d))
    a, b = gp.predict(model, Xs), gp.predict(loaded, Xs)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.var, b.var)
    assert _resaved_doc(tmp_path, save_exact_gp, loaded, columns, "y") == (
        tmp_path / MODEL_JSON).read_text()


@ROUND_TRIP
@given(mode=modes, lags=st.tuples(st.integers(0, 2), st.integers(1, 2)), scale=positive,
       ell=positive, noise_var=noise, seed=seeds)
def test_narx_round_trip(tmp_path_factory, mode, lags, scale, ell, noise_var, seed, fit_narx):
    tmp_path = tmp_path_factory.mktemp("narx")
    rng = np.random.default_rng(seed)
    U = np.sin(0.4 * np.arange(30)) + 0.1 * rng.standard_normal(30)
    Ud = np.gradient(U, 0.1)
    seq = SequenceData(u=np.column_stack([U, Ud]), y=U * np.abs(U) + 0.3 * Ud, dt=0.1)
    model = fit_narx(seq, NarxConfig(*lags, mode), SquaredExponential(scale, ell),
                     noise_var=noise_var)
    save_narx(tmp_path, model, ["U", "Udot"], "y")
    doc, loaded = load_model(tmp_path)
    assert doc["narx"]["mode"] == mode.to_dict()
    assert loaded.config == model.config and loaded.n_channels == 2
    a, b = predict_osa(model, seq), predict_osa(loaded, seq)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert _resaved_doc(tmp_path, save_narx, loaded, ["U", "Udot"], "y") == (
        tmp_path / MODEL_JSON).read_text()


@ROUND_TRIP
@given(half_width=st.floats(1.2, 3.0), basis=st.integers(4, 30), boundary=st.sampled_from(
    ["dirichlet", "neumann"]), scale=positive, ell=st.floats(0.2, 1.0), noise_var=noise,
    seed=seeds)
def test_reduced_rank_round_trip(tmp_path_factory, half_width, basis, boundary, scale, ell,
                                 noise_var, seed):
    tmp_path = tmp_path_factory.mktemp("reduced")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(20, 1))
    y = np.sin(3.0 * X[:, 0])
    domain = DomainSpec([half_width], boundary=boundary, basis_counts=basis)
    model = fit_reduced(gp.Dataset(X, y), domain, SquaredExponential(scale, ell), noise_var)
    save_reduced_rank(tmp_path, model, ["x"], "y")
    _, loaded = load_model(tmp_path)
    Xs = np.linspace(-1.0, 1.0, 7).reshape(-1, 1)
    a, b = predict_reduced(model, Xs), predict_reduced(loaded, Xs)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert _resaved_doc(tmp_path, save_reduced_rank, loaded, ["x"], "y") == (
        tmp_path / MODEL_JSON).read_text()


def _per_value_bytes(header, columns):
    # oracle: every value through float() then repr(), one row at a time
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    return ("\n".join([",".join(header)]
                      + [",".join(repr(float(v)) for v in row) for row in rows]) + "\n").encode()


def test_csv_writer_writes_the_bytes_of_the_per_value_writer(tmp_path):
    rng = np.random.default_rng(2)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e308, 0.1, 1 / 3, -1e-5, 123456789.0, 2.0**53 + 1]
    columns = [np.array(special), rng.standard_normal(len(special)),
               np.arange(len(special)), np.float32(0.1) * np.ones(len(special))]
    header = ["a", "b", "c", "d"]
    write_csv(tmp_path / "out.csv", header, columns)
    assert (tmp_path / "out.csv").read_bytes() == _per_value_bytes(header, columns)


@pytest.mark.parametrize("columns", [
    [np.array([1.5, -0.0, np.nan])],  # one column
    [np.empty(0), np.empty(0)],  # no rows
    [np.empty(0)],
    [np.array([2.0]), np.array([-3e-300])],  # one row
])
def test_csv_writer_edge_shapes_match_the_per_value_writer(tmp_path, columns):
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "out.csv", header, columns)
    assert (tmp_path / "out.csv").read_bytes() == _per_value_bytes(header, columns)


@pytest.mark.parametrize("n_rows", [7, 8, 9, 25])
def test_csv_writer_writes_row_chunks_with_the_per_value_bytes(tmp_path, monkeypatch, n_rows):
    # chunks of 4 rows: the last one row short, whole, one row long, and many
    monkeypatch.setattr(model_io, "CSV_CHUNK_ROWS", 4)
    rng = np.random.default_rng(4)
    columns = [np.arange(float(n_rows)), rng.standard_normal(n_rows) * 1e-300]
    write_csv(tmp_path / "out.csv", ["t", "y"], columns)
    assert (tmp_path / "out.csv").read_bytes() == _per_value_bytes(["t", "y"], columns)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_csv_reader_reads_the_bits_of_the_per_value_reader(tmp_path):
    # oracle: csv.reader and float() on every value
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                             rng.uniform(-1.0, 1.0, 200), np.arange(200.0)])
    lines = ["t,u,v"] + [",".join(f"{v:.17g}" if k % 2 else repr(float(v)) for v in row)
                         for k, row in enumerate(table)]
    (tmp_path / "in.csv").write_text("\r\n".join(lines) + "\r\n")
    with open(tmp_path / "in.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    oracle = np.array([[float(v) for v in row] for row in rows[1:]])
    header, data = read_csv(tmp_path / "in.csv")
    assert header == ["t", "u", "v"]
    np.testing.assert_array_equal(data, oracle)
    assert data.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("text", [
    "",  # empty
    "t,y\n",  # header only
    "t\n\n",  # header and a blank line
    "t,y\n0.0,1.0\n1.0,abc\n",  # non-numeric
    "t,y\n0.0,1.0\n1.0,\n",  # empty field
    "t,y\n0.0,1.0\n1.0\n",  # short row
    "t,y\n0.0,1.0\n1.0,2.0,3.0\n",  # long row
    "t,y\n0.0,1.0,2.0\n1.0,2.0,3.0\n",  # wider than the header
    "t,y\n#0.0,1.0\n",  # no comment syntax
])
def test_csv_reader_rejects_malformed_files(tmp_path, text):
    (tmp_path / "bad.csv").write_text(text)
    with pytest.raises(DataError):
        read_csv(tmp_path / "bad.csv")


def test_csv_reader_reads_one_row_and_one_column(tmp_path):
    (tmp_path / "one.csv").write_text("y\n2.5\n")
    assert read_csv(tmp_path / "one.csv")[1].shape == (1, 1)
    (tmp_path / "row.csv").write_text("t, y\n1.0,2.0\n\n")
    header, data = read_csv(tmp_path / "row.csv")
    assert header == ["t", "y"] and data.tolist() == [[1.0, 2.0]]


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True),
             min_size=width, max_size=width),
    st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                      min_size=width, max_size=width), min_size=1, max_size=30))))
@example(table=(["t", "y"], [[-0.0, np.inf], [-np.inf, 5e-324], [np.nan, -2.5e-310]]))
def test_csv_round_trip_keeps_every_bit(tmp_path_factory, table):
    header, rows = table
    rows = np.array(rows, dtype=float)
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, header, list(rows.T))
    read_header, data = read_csv(path)
    assert read_header == header
    assert data.shape == rows.shape
    nan = np.isnan(rows)
    np.testing.assert_array_equal(np.isnan(data), nan)
    assert data[~nan].tobytes() == rows[~nan].tobytes()  # -0.0 and subnormals included
