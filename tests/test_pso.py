"""Particle-swarm minimiser: convergence, bounds, determinism."""

import numpy as np
import pytest

from shmgp.errors import NumericalError
from shmgp.pso import PsoConfig, decoder, log10_box, override_box, pso_minimize


def sphere(x):
    return float(np.sum(x**2))


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def test_sphere_converges():
    cfg = PsoConfig(bounds=[(-5, 5)] * 3, particles=30, iterations=200, seed=0)
    result = pso_minimize(sphere, cfg)
    assert result.best_value <= 1e-4


def test_rosenbrock_converges():
    # optimum at (1, 1) with value 0
    cfg = PsoConfig(bounds=[(-2, 2)] * 2, particles=30, iterations=500, seed=1)
    result = pso_minimize(rosenbrock, cfg)
    assert result.best_value <= 1e-2


def test_trace_monotone_nonincreasing():
    cfg = PsoConfig(bounds=[(-5, 5)] * 4, particles=10, iterations=60, seed=2)
    result = pso_minimize(sphere, cfg)
    assert np.all(np.diff(result.trace) <= 0.0)


def test_every_evaluation_inside_box():
    lo, hi = -1.5, 2.5
    seen = []

    def recording(x):
        seen.append(x.copy())
        return sphere(x)

    cfg = PsoConfig(bounds=[(lo, hi)] * 2, particles=8, iterations=30, seed=3)
    result = pso_minimize(recording, cfg)
    seen = np.array(seen)
    assert np.all(seen >= lo) and np.all(seen <= hi)
    assert np.all(result.best_params >= lo) and np.all(result.best_params <= hi)


def test_deterministic_for_fixed_seed():
    cfg = PsoConfig(bounds=[(-3, 3)] * 3, particles=12, iterations=40, seed=7)
    a = pso_minimize(sphere, cfg)
    b = pso_minimize(sphere, cfg)
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.best_params, b.best_params)


def test_different_seed_changes_trace():
    cfg_a = PsoConfig(bounds=[(-3, 3)] * 3, particles=12, iterations=40, seed=7)
    cfg_b = PsoConfig(bounds=[(-3, 3)] * 3, particles=12, iterations=40, seed=8)
    assert not np.array_equal(pso_minimize(sphere, cfg_a).trace, pso_minimize(sphere, cfg_b).trace)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        PsoConfig(bounds=[(1.0, 1.0)])
    with pytest.raises(ValueError):
        PsoConfig(bounds=[(2.0, -2.0)])
    with pytest.raises(ValueError):
        PsoConfig(bounds=[])


@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("seed", [1]), ("seed", {}), ("seed", -1), ("seed", True), ("seed", 1.5),
    ("particles", 0), ("particles", 2.5), ("iterations", "x"), ("iterations", False),
])
def test_counts_are_integers(key, value):
    with pytest.raises(ValueError, match=rf"^{key} takes a (non-negative|positive) integer, got "):
        PsoConfig(bounds=[(-1, 1)], **{key: value})


def test_nonfinite_objective_treated_as_infinity():
    def patchy(x):
        return np.nan if x[0] > 0 else sphere(x)

    cfg = PsoConfig(bounds=[(-4, 4)], particles=12, iterations=50, seed=4)
    result = pso_minimize(patchy, cfg)
    assert np.isfinite(result.best_value)
    assert result.best_params[0] <= 0.0


def test_all_infeasible_swarm_raises():
    cfg = PsoConfig(bounds=[(-4, 4)] * 2, particles=5, iterations=3, seed=0)
    with pytest.raises(NumericalError, match="finite"):
        pso_minimize(lambda x: np.nan, cfg)


def test_one_finite_evaluation_is_enough():
    cfg = PsoConfig(bounds=[(-4, 4)], particles=5, iterations=3, seed=0)
    calls = []

    def first_only(x):
        calls.append(x)
        return 1.0 if len(calls) == 1 else np.inf

    result = pso_minimize(first_only, cfg)
    assert result.best_value == 1.0
    np.testing.assert_array_equal(result.best_params, calls[0])


def test_log10_box_rows_follow_the_keys_and_their_pairs():
    box = {"b": (1e-2, 1e2), "a": [(1.0, 10.0), (1e-3, 1e3)], "c": [0.1, 1.0]}
    assert log10_box(box) == ((-2.0, 2.0), (0.0, 1.0), (-3.0, 3.0), (-1.0, 0.0))


@pytest.mark.parametrize("pair", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0),
                                  (1.0, np.inf), (np.nan, 1.0), (1.0,), (1.0, 2.0, 3.0),
                                  "1, 10", [[1.0, 2.0], [3.0]]],
                         ids=["zero", "negative", "reversed", "equal", "infinite", "nan",
                              "one-value", "three-values", "string", "ragged"])
def test_log10_box_error_names_the_bound(pair):
    with pytest.raises(ValueError, match=r"bounds\.lengthscale takes"):
        log10_box({"sigma": (0.1, 1.0), "lengthscale": pair})


def test_override_box_keeps_the_box_order_and_checks_each_bound():
    box, names = {"a": (1.0, 2.0), "b": [(1.0, 2.0), (3.0, 4.0)]}, ("a", "b", "c")
    new = override_box(box, {"c": (5.0, 6.0), "a": (0.5, 1.0)}, names)
    assert new == {"a": (0.5, 1.0), "b": box["b"], "c": (5.0, 6.0)} and list(new) == list(names)
    assert override_box(box, None) == box
    with pytest.raises(ValueError, match=r"bounds names \['c'\]"):
        override_box(box, {"c": (5.0, 6.0)})
    with pytest.raises(ValueError, match=r"bounds\.b takes an array of shape \(2, 2\)"):
        override_box(box, {"b": (1.0, 2.0)})
    with pytest.raises(ValueError, match=r"bounds\.c takes an array of shape \(2,\)"):
        override_box(box, {"c": [(1.0, 2.0)]}, names)
    with pytest.raises(ValueError, match=r"bounds\.a takes finite"):
        override_box(box, {"a": (2.0, 1.0)})


@pytest.mark.parametrize("box", [
    {"sigma": (1e-2, 1e2), "lengthscale": [0.3, 7.0]},
    {"signal_scale": (0.05, 3.0), "lengthscales": [(1e-2, 1.0), (0.2, 40.0), (3e-3, 2.0)]},
    {"lengthscales": [[0.1, 0.2]], "noise_var": [1e-9, 0.1]},  # JSON lists as pairs
], ids=["pairs", "list-of-pairs", "json-lists"])
def test_decoder_gives_each_name_its_natural_values(box):
    rows = np.array(log10_box(box))
    decode = decoder(box)
    for side in (0, 1):
        values = decode(rows[:, side])
        assert list(values) == list(box)
        for name, value in values.items():
            natural = np.asarray(box[name], dtype=float)[..., side]
            assert isinstance(value, np.float64 if natural.ndim == 0 else np.ndarray)
            np.testing.assert_allclose(value, natural, rtol=1e-15, atol=0.0)
    # one 10 ** over the whole position: each value has its row's bits
    position = rows.mean(axis=1)
    flat = np.concatenate([np.atleast_1d(v) for v in decode(position).values()])
    np.testing.assert_array_equal(flat, 10.0**position)
