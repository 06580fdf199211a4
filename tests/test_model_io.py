"""Save/load round trip of every model type, as hypothesis properties.

A loaded model must predict bit for bit what the saved one did, and saving
it again must write the same model.json.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shmgp import gp
from shmgp.kernels import SquaredExponential
from shmgp.means import LinearMean, ZeroMean
from shmgp.model_io import MODEL_JSON, load_model, save_exact_gp, save_narx, save_reduced_rank
from shmgp.narx import (
    BlackBox,
    InputAugmentation,
    NarxConfig,
    ResidualMean,
    SequenceData,
    fit_narx,
    predict_osa,
)
from shmgp.physics import MorisonMean, MorisonParams
from shmgp.reduced_rank import DomainSpec, fit_reduced, predict_reduced

ROUND_TRIP = settings(max_examples=15, deadline=None, database=None)

seeds = st.integers(0, 2**32 - 1)
positive = st.floats(0.2, 5.0)
noise = st.floats(1e-3, 1.0)
morison = st.builds(MorisonParams, drag=st.floats(-3.0, 3.0), inertia=st.floats(-3.0, 3.0))
modes = st.one_of(st.just(BlackBox()), st.builds(ResidualMean, morison),
                  st.builds(InputAugmentation, morison))


def _means(d):
    linear = st.builds(LinearMean, st.floats(-10.0, 10.0),
                       st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    forms = [st.just(ZeroMean()), linear]
    if d >= 2:  # the Morison mean reads the first two input columns
        forms.append(st.builds(MorisonMean, morison))
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
def test_narx_round_trip(tmp_path_factory, mode, lags, scale, ell, noise_var, seed):
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
