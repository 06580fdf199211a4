"""Hyperparameter search wrappers: bounds, profiled means, fixed noise."""

import contextlib

import numpy as np
import pytest

from shmgp import blas, gp, pso, tuning
from shmgp.errors import NumericalError
from shmgp.gp import Dataset, fit_exact
from shmgp.kernels import FAMILIES, Matern32, SquaredDiffStack, SquaredExponential, build_gram
from shmgp.means import LinearMean
from shmgp.pso import log10_box
from shmgp.tuning import default_bounds, gls_linear_mean, tune_exact_gp


def _dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 1))
    y = np.sin(2 * X[:, 0]) + 0.05 * rng.standard_normal(n)
    return Dataset(X, y)


def test_default_bounds_sdof_uses_nyquist():
    data = Dataset(np.arange(10).reshape(-1, 1) * 0.5, np.sin(np.arange(10.0)))
    bounds = default_bounds("sdof", data, dt=0.5)
    assert bounds["omega_n"][1] == pytest.approx(np.pi / 0.5)
    assert bounds["zeta"] == (1e-3, 0.5)


def test_fixed_noise_respected():
    result = tune_exact_gp(_dataset(), "matern32", noise_var=0.02,
                           particles=8, iterations=15, seed=0)
    assert result.model.noise_var == 0.02
    assert result.params["noise_var"] == 0.02
    assert isinstance(result.model.kernel, Matern32)


def test_optimised_model_beats_arbitrary_start():
    data = _dataset()
    result = tune_exact_gp(data, "squared_exponential", noise_var=None,
                           particles=12, iterations=30, seed=1)
    arbitrary = fit_exact(data, SquaredExponential(10.0, 10.0), noise_var=1.0)
    assert result.model.lml > arbitrary.lml
    assert np.isfinite(result.pso.trace).all()


def test_iterations_default_to_100():
    # the tuner's own default; the other swarm settings take PsoConfig's
    result = tune_exact_gp(_dataset(n=12), "squared_exponential", noise_var=0.01, particles=2)
    assert len(result.pso.trace) == 100


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        tune_exact_gp(_dataset(), "cubic_spline", particles=4, iterations=4)


def test_gls_mean_ignores_kernel_correlated_deviation():
    # an off-centre smooth bump rides on a line; GLS under a kernel that
    # models the bump recovers the underlying slope much better than OLS,
    # which tilts toward the bump
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0.0, 10.0, 120)).reshape(-1, 1)
    slope, intercept = -0.8, 2.0
    bump = 1.5 * np.exp(-0.5 * ((X[:, 0] - 8.5) / 0.7) ** 2)
    y = intercept + slope * X[:, 0] + bump + 0.02 * rng.standard_normal(120)

    kernel = SquaredExponential(signal_scale=1.5, lengthscales=0.7)
    gls = gls_linear_mean(Dataset(X, y), kernel, noise_var=0.02**2)
    A = np.column_stack([np.ones(120), X])
    ols = np.linalg.lstsq(A, y, rcond=None)[0]
    assert abs(gls.slope[0] - slope) < 0.5 * abs(ols[1] - slope)
    assert gls.slope[0] == pytest.approx(slope, abs=0.05)


@pytest.mark.parametrize("family, ard, profile", [
    ("squared_exponential", True, False), ("squared_exponential", True, True),
    ("matern12", False, False), ("matern32", False, True), ("sdof", False, False),
])
def test_tuned_model_is_the_plain_fit_at_the_tuned_values(monkeypatch, family, ard, profile):
    """The swarm's fits read the tune's difference stack; the model returned
    is refit from the inputs, so it is fit_exact's at the tuned values on one
    BLAS thread, bit for bit."""
    rng = np.random.default_rng(8)
    t = np.arange(40) * 0.1
    X = t[:, None] if family == "sdof" else np.column_stack([t, rng.uniform(-1, 1, 40)])
    data = Dataset(X, np.sin(3 * t) + 0.3 * X[:, -1] + 0.05 * rng.standard_normal(40))
    stacks = []
    fit = gp.fit_exact
    monkeypatch.setattr(gp, "fit_exact", lambda *a, stack=None, **k:
                        stacks.append(stack) or fit(*a, stack=stack, **k))
    result = tune_exact_gp(data, family, profile_linear_mean=profile, ard=ard,
                           particles=4, iterations=3, seed=2)
    # every swarm evaluation but none of the final refit used one stack
    assert stacks[-1] is None and len(stacks) == 4 * (3 + 1) + 1
    assert len({id(s) for s in stacks[:-1]}) == 1
    assert stacks[0] is not None  # every family reads squared distances

    # the reported kernel values are the constructor's arguments in order,
    # ARD lengthscales one by one
    values = [v for k, v in result.params.items() if k != "noise_var" and "mean" not in k]
    kernel = FAMILIES[family](*([values[0], values[1:]] if ard else values))
    noise = result.params["noise_var"]
    with blas.single_thread():
        mean = gls_linear_mean(data, kernel, noise) if profile else None
        plain = fit(data, kernel, mean=mean, noise_var=noise)
    for field in ("chol", "alpha"):
        np.testing.assert_array_equal(getattr(result.model, field), getattr(plain, field))
    assert result.model.lml == plain.lml and result.model.jitter == plain.jitter


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mean", ["zero", "fixed", "gls"])
def test_swarm_objective_is_the_fit_without_a_workspace(monkeypatch, mean, d, seed):
    """The swarm's fits share one workspace: Gram and factor buffers, and the
    fixed mean's residual or the GLS design made once.  Every objective value
    is -lml of fit_exact on the same stack without it, bit for bit, and the
    refit's factor is clean."""
    rng = np.random.default_rng(10)
    t = np.arange(60) * 0.1
    X = t[:, None] if d == 1 else np.column_stack([t, rng.uniform(-1, 1, 60)])
    data = Dataset(X, 1.0 + np.sin(3 * t) + 0.3 * X[:, -1] + 0.05 * rng.standard_normal(60))
    fixed = LinearMean(0.4, [0.2] * d) if mean == "fixed" else None
    decode, stack = pso.decoder(default_bounds("squared_exponential", data)), SquaredDiffStack(X)

    def plain(position):
        args = decode(position)
        noise = float(args.pop("noise_var"))
        kernel = SquaredExponential(*args.values())
        prior = gls_linear_mean(data, kernel, noise, stack) if mean == "gls" else fixed
        try:
            return -fit_exact(data, kernel, mean=prior, noise_var=noise, stack=stack).lml
        except (NumericalError, ValueError):
            return np.inf

    pairs, workspaces = [], []
    swarm, fit = tuning.pso_minimize, gp.fit_exact
    monkeypatch.setattr(tuning, "pso_minimize", lambda objective, cfg: swarm(
        lambda p: pairs.append((objective(p), plain(p))) or pairs[-1][0], cfg))
    monkeypatch.setattr(gp, "fit_exact", lambda *a, workspace=None, **k:
                        workspaces.append(workspace) or fit(*a, workspace=workspace, **k))
    result = tune_exact_gp(data, "squared_exponential", mean=fixed,
                           profile_linear_mean=mean == "gls", particles=6, iterations=4, seed=seed)
    values = np.array(pairs)
    assert len(values) == 6 * (4 + 1) and np.isfinite(values).mean() > 0.5
    assert values[:, 0].tobytes() == values[:, 1].tobytes()
    # one workspace for every swarm fit, holding what the mean keeps fixed; none for the refit
    work = workspaces[0]
    assert all(w is work for w in workspaces[:-1]) and workspaces[-1] is None
    assert (work.design is None) == (mean != "gls") and (work.residual is None) == (mean == "gls")
    L = result.model.chol
    assert L.flags.f_contiguous and not np.triu(L, 1).any()


def test_fixed_mean_not_finite_at_the_inputs_stops_the_tune_before_the_swarm(monkeypatch):
    """The workspace tests the fixed mean's residual once, before any fit; a
    swarm used to score every position inf and end with no finite evaluation."""
    fits = []
    monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="prior mean is not finite"):
        tune_exact_gp(_dataset(), "squared_exponential", mean=LinearMean(1e308, [1e308]),
                      particles=2, iterations=1)
    assert not fits


def test_tune_fits_on_one_blas_thread(monkeypatch, two_threads):
    """Every fit of the tune, the GLS profile's Gram build included, runs on
    one BLAS thread; the caller's count is back once the tune returns."""
    seen = []

    def spy(fn):
        return lambda *a, **k: seen.append([get() for get, _ in blas._openblas()]) or fn(*a, **k)

    monkeypatch.setattr(gp, "fit_exact", spy(gp.fit_exact))
    monkeypatch.setattr(tuning, "build_gram", spy(tuning.build_gram))
    tune_exact_gp(_dataset(n=40), "squared_exponential", profile_linear_mean=True,
                  particles=3, iterations=2, seed=0)
    assert len(seen) == 2 * (3 * (2 + 1) + 1)  # a GLS profile and a fit per evaluation
    assert all(counts == [1] * two_threads for counts in seen)
    assert [get() for get, _ in blas._openblas()] == [2] * two_threads


def _subnormal_gram_tune(monkeypatch, flush):
    """An SE-ARD tune at d = 3 whose small lengthscales put Gram entries below
    the smallest normal float, with the flush scope kept or made a no-op: its
    swarm result and the number of subnormal entries of each Gram build, the
    refit's last.  The entries are told by their bits (a zero exponent and a
    non-zero fraction), since flushed arithmetic would read them as zero."""
    built = []

    def spy(*args, **kwargs):
        K = real(*args, **kwargs)
        bits = np.ascontiguousarray(K).view(np.uint64)
        built.append(int(np.count_nonzero((bits >> 52 & 0x7FF == 0) & (bits << 12 != 0))))
        return K

    real = gp.build_gram
    monkeypatch.setattr(gp, "build_gram", spy)
    if not flush:
        monkeypatch.setattr(pso, "flush_subnormals", contextlib.nullcontext)
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(40, 3))
    data = Dataset(X, np.sin(X).sum(axis=1) + 0.05 * rng.standard_normal(40))
    result = tune_exact_gp(data, "squared_exponential", ard=True, particles=6, iterations=5,
                           seed=0)
    monkeypatch.undo()
    return result.pso, built


def test_flushed_swarm_gives_the_bits_of_default_arithmetic(monkeypatch):
    plain, plain_built = _subnormal_gram_tune(monkeypatch, flush=False)
    flushed, flushed_built = _subnormal_gram_tune(monkeypatch, flush=True)
    assert sum(n > 0 for n in plain_built[:-1]) >= 20  # of the swarm's 36 Gram builds
    np.testing.assert_array_equal(flushed.trace, plain.trace)
    np.testing.assert_array_equal(flushed.best_params, plain.best_params)
    assert flushed.best_value == plain.best_value
    if blas._fenv() is not None:  # the flush was on in the swarm, and off for the refit
        assert not any(flushed_built[:-1]) and flushed_built[-1] == plain_built[-1] > 0


@pytest.mark.parametrize("family", ["matern12", "matern32", "sdof"])
def test_ard_of_a_family_with_one_lengthscale_rejected(monkeypatch, family):
    fits = []
    monkeypatch.setattr(gp, "fit_exact", lambda *a, **k: fits.append(1))
    t = np.arange(40) * 0.1
    with pytest.raises(ValueError, match="'ard'"):
        tune_exact_gp(Dataset(t[:, None], np.sin(3 * t)), family, ard=True, noise_var=0.01,
                      particles=4, iterations=2, seed=0)
    assert not fits


def test_ard_bounds_reach_their_dimensions():
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 3.0, size=(30, 2))
    data = Dataset(X, np.sin(2 * X[:, 0]) + 0.1 * X[:, 1])
    result = tune_exact_gp(data, "squared_exponential", ard=True, noise_var=0.01,
                           bounds={"lengthscales": [[0.1, 0.2], [5.0, 6.0]]},
                           particles=6, iterations=5, seed=0)
    assert 0.1 <= result.params["lengthscale_0"] <= 0.2
    assert 5.0 <= result.params["lengthscale_1"] <= 6.0


@pytest.mark.parametrize("ard", [False, True])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_default_box_lists_the_tuning_names_in_order(family, ard):
    """A tune's params are named after the rows of its box, in order: a list
    of pairs under "<name>s" gives "<name>_0", "<name>_1", ...; noise_var is
    last.  ard is open only to a family with lengthscales."""
    d = 1 if family == "sdof" else 3
    X = np.linspace(0.0, 4.0, 17)[:, None] * np.arange(1, d + 1)
    data = Dataset(X, np.sin(X[:, 0]))
    if ard and "lengthscales" not in FAMILIES[family].keys:
        with pytest.raises(ValueError, match="'ard'"):
            tune_exact_gp(data, family, ard=ard, particles=2, iterations=1, seed=0)
        return
    box = default_bounds(family, data, ard=ard)
    rows = []
    for key, value in box.items():
        if np.ndim(value) == 2:
            rows += [f"{key[:-1]}_{k}" for k in range(len(value))]
        else:
            rows.append(key)
    assert rows[-1] == "noise_var" and len(rows) == len(log10_box(box))
    result = tune_exact_gp(data, family, ard=ard, particles=2, iterations=1, seed=0)
    assert list(result.params) == rows


@pytest.mark.parametrize("bounds", [{"lengthscal": (0.1, 1.0)}, {"lengthscales": [(0.1, 1.0)]}],
                         ids=["misspelt", "ard-box-of-an-isotropic-kernel"])
def test_unknown_bound_name_rejected(bounds):
    with pytest.raises(ValueError, match="bounds names"):
        tune_exact_gp(_dataset(), "squared_exponential", bounds=bounds, particles=2, iterations=1)


def test_a_bound_on_a_fixed_noise_rejected():
    # a fixed noise variance is no row of the box, so no bound can name it
    assert "noise_var" not in default_bounds("squared_exponential", _dataset(), noise_var=0.01)
    with pytest.raises(ValueError, match=r"bounds names \['noise_var'\]"):
        tune_exact_gp(_dataset(), "squared_exponential", noise_var=0.01,
                      bounds={"noise_var": (1e-3, 0.1)}, particles=2, iterations=1)


@pytest.mark.parametrize("bounds, name", [
    ({"noise_var": (0.0, 1.0)}, "noise_var"),
    ({"lengthscales": [(0.1, 1.0), (0.1, 1.0)]}, "lengthscales"),  # two pairs, one input
], ids=["zero-lower", "ard-pair-count"])
def test_a_bad_bound_names_itself(bounds, name):
    with pytest.raises(ValueError, match=rf"bounds\.{name} takes"):
        tune_exact_gp(_dataset(), "squared_exponential", ard=True, bounds=bounds,
                      particles=2, iterations=1)
