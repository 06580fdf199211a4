"""Covariance function contracts: closed forms, symmetry, Gram consistency,
and the facts each kernel family owns."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shmgp import kernels
from shmgp.kernels import (
    FAMILIES,
    GRAM_BLOCK_ENTRIES,
    GRAM_BLOCK_ROWS,
    Kernel,
    Matern12,
    Matern32,
    SquaredDiffStack,
    SquaredExponential,
    build_gram,
    kernel_eval,
)
from shmgp.physics import SdofKernel, sdof_kernel_eval, spectral_density
from shmgp.pso import decoder, log10_box

SPECS = [
    SquaredExponential(signal_scale=1.3, lengthscales=0.7),
    Matern12(signal_scale=0.8, lengthscale=1.5),
    Matern32(signal_scale=2.0, lengthscale=0.4),
]


def test_companion_is_the_drift_of_a_second_order_system():
    # x'' + C x' + K x = 0 in the state [x; x']
    K = np.array([[2.0, -1.0], [-1.0, 3.0]])
    C = np.array([[0.2, 0.1], [0.1, 0.3]])
    np.testing.assert_array_equal(kernels.companion(K, C),
                                  np.block([[np.zeros((2, 2)), np.eye(2)], [-K, -C]]))
    for s in np.linalg.eigvals(kernels.companion([[8.0]], [[0.6]])):
        assert abs(s**2 + 0.6 * s + 8.0) == pytest.approx(0.0, abs=1e-12)
    # the Matern-3/2 drift keeps the bits of its literal form
    lam = np.sqrt(3.0) / 0.7
    np.testing.assert_array_equal(Matern32(1.2, 0.7).state_space()[0],
                                  [[0.0, 1.0], [-(lam**2), -2.0 * lam]])


def test_se_unit_at_zero_lag():
    spec = SquaredExponential(signal_scale=1.0, lengthscales=1.0)
    assert kernel_eval(spec, [0.0], [0.0]) == 1.0


def test_matern12_hand_value():
    # k = sigma^2 exp(-|tau|/l): sigma=1, l=2, tau=2 -> exp(-1)
    spec = Matern12(signal_scale=1.0, lengthscale=2.0)
    assert kernel_eval(spec, 0.0, 2.0) == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_matern32_hand_value():
    spec = Matern32(signal_scale=1.0, lengthscale=1.0)
    r = np.sqrt(3.0) * 0.5
    assert kernel_eval(spec, 0.0, 0.5) == pytest.approx((1 + r) * np.exp(-r), rel=1e-14)


@pytest.mark.parametrize("spec", SPECS)
def test_argument_swap_symmetry(spec):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, xp = rng.normal(size=1), rng.normal(size=1)
        assert kernel_eval(spec, x, xp) == kernel_eval(spec, xp, x)


def test_sdof_argument_swap_symmetry():
    spec = SdofKernel(zeta=0.1, omega_n=5.0, sigma2=1.0)
    assert kernel_eval(spec, 0.3, 1.7) == kernel_eval(spec, 1.7, 0.3)


@pytest.mark.parametrize("spec", SPECS)
def test_gram_matches_entrywise_loop(spec):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 1))
    K = build_gram(spec, X)
    loop = np.array([[kernel_eval(spec, X[i], X[j]) for j in range(5)] for i in range(5)])
    np.testing.assert_allclose(K, loop, rtol=1e-13)
    np.testing.assert_array_equal(K, K.T)


def _block_rows(d, m):
    """Rows of a Gram block whose (d, rows, m) difference stack fits the budget,
    at most GRAM_BLOCK_ROWS."""
    return min(GRAM_BLOCK_ROWS, max(1, GRAM_BLOCK_ENTRIES // (d * m)))


def _square_edge(d):
    """Largest n whose whole n x n Gram matrix at dimension d is one block."""
    return min(GRAM_BLOCK_ROWS, math.isqrt(GRAM_BLOCK_ENTRIES // d))


E1, E3 = _square_edge(1), _square_edge(3)
R14 = _block_rows(14, 336)  # rows per block of a NARX cross Gram against 336 training rows


@pytest.mark.parametrize("n, m, d", [
    (1, None, 1), (47, None, 3), (48, None, 3), (49, None, 3),
    (336, None, 14),  # the NARX tuning size
    (49, 7, 3), (2, 101, 2),  # cross Gram matrices
    (E3 - 1, None, 3), (E3, None, 3), (E3 + 1, None, 3),  # one block, then two
    (146, None, 3), (147, None, 3), (148, None, 3),  # three blocks, the last ragged
    (R14 - 1, 336, 14), (R14 + 1, 336, 14),
])
@pytest.mark.parametrize("spec", SPECS + [None])  # None: one lengthscale per dimension
def test_blocked_gram_matches_entrywise_loop(spec, n, m, d):
    """Row blocks of the Gram build: sizes on each side of a block boundary."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, d))
    X2 = X if m is None else rng.normal(size=(m, d))
    spec = spec or SquaredExponential(0.9, np.linspace(0.5, 3.0, d))
    K = build_gram(spec, X) if m is None else build_gram(spec, X, X2)
    # a loop over every entry takes seconds at 336 rows; there, check the rows
    # on each side of the block boundaries
    B = _block_rows(d, X2.shape[0])
    rows = range(n) if n < 100 else sorted({0, B - 1, B, B + 1, 2 * B, n - 1} & set(range(n)))
    loop = np.array([[kernel_eval(spec, X[i], x2) for x2 in X2] for i in rows])
    np.testing.assert_allclose(K[list(rows)], loop, rtol=1e-13)
    if m is None:
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(K, build_gram(spec, X, X.copy()))


def _per_dimension_gram(spec, X, X2):
    """The family's map of the scaled squared distances, summed one input
    dimension at a time over the whole matrix: the reference the blocked
    build must match."""
    ell = spec.sqdist_scale
    Z, Z2 = (X / ell).T, (X2 / ell).T
    sq = np.square(np.subtract.outer(Z[0], Z2[0]))
    for k in range(1, Z.shape[0]):
        sq += np.square(np.subtract.outer(Z[k], Z2[k]))
    spec.sqdist_map(sq)
    return sq


ORACLE_SPECS = {
    "se": lambda d: SquaredExponential(1.3, 0.7),
    "se_ard": lambda d: SquaredExponential(0.9, np.linspace(0.5, 3.0, d)),
    "matern12": lambda d: Matern12(0.8, 1.5),
    "matern32": lambda d: Matern32(2.0, 0.4),
}
SDOF = SdofKernel(zeta=0.053, omega_n=9.59, sigma2=1.82)
SHIPPED_GRID = (np.arange(1200) * 0.025)[::8]  # sdof_kernel_gp's training times


@pytest.mark.parametrize("n, m, d", [
    (1, None, 1), (E1 - 1, None, 1), (E1 + 1, None, 1), (255, None, 1), (257, None, 1),
    (E3 - 1, None, 3), (E3, None, 3), (E3 + 1, None, 3), (E3 + 1, 5, 3),
    (146, None, 3), (147, None, 3), (148, None, 3), (148, 5, 3),
    (336, None, 14), (1, 336, 14), (R14, 336, 14), (R14 + 1, 336, 14),
    (100, None, 20), (7, 60, 20),
    (1, None, 8), (5, 1, 14), (5, 1, 20),
])
@pytest.mark.parametrize("family", sorted(ORACLE_SPECS))
def test_gram_matches_per_dimension_loop(family, n, m, d):
    """Bit for bit, whatever the block layout and the mirrored triangle."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, d))
    X2 = X if m is None else rng.normal(size=(m, d))
    spec = ORACLE_SPECS[family](d)
    K = build_gram(spec, X) if m is None else build_gram(spec, X, X2)
    np.testing.assert_array_equal(K, _per_dimension_gram(spec, X, X2))


@pytest.mark.parametrize("shape", [(14, 1, 336), (14, 13, 336), (3, 64, 126), (2, 5, 1),
                                   (20, 1, 2), (20, 2, 1), (2, 64, 25)])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_dimension_sum_matches_dimension_loop(shape, strided):
    """build_gram sums a fresh block's squared differences over dimensions in
    one ``np.add.reduce``: for more than one entry numpy adds them in
    dimension order, as a loop over dimensions does, whatever the output's
    strides."""
    diffs = np.square(np.random.default_rng(12).normal(size=shape))
    loop = diffs[0].copy()
    for k in range(1, shape[0]):
        loop += diffs[k]
    out = np.empty((shape[1], 3 * shape[2]))[:, 1::3] if strided else np.empty(shape[1:])
    np.add.reduce(diffs, axis=0, out=out)
    np.testing.assert_array_equal(out, loop)


@pytest.mark.parametrize("d", [8, 14, 20])
@pytest.mark.parametrize("family", sorted(ORACLE_SPECS))
def test_point_pair_gram_matches_per_dimension_loop(family, d):
    """1 x 1 Gram matrices, the kernel_eval path, over many point pairs: a
    (d, 1, 1) stack summed pairwise rather than in order differs on some."""
    X, X2 = np.random.default_rng(11).normal(size=(2, 30, d))
    spec = ORACLE_SPECS[family](d)
    K = [build_gram(spec, x[None], x2[None]) for x, x2 in zip(X, X2)]
    np.testing.assert_array_equal(K, [_per_dimension_gram(spec, x[None], x2[None])
                                      for x, x2 in zip(X, X2)])


@pytest.mark.parametrize("family", sorted(ORACLE_SPECS))
def test_kernel_eval_equals_gram_entry(family):
    """A point pair gives the bits of its Gram entry, on and off the diagonal
    block, at the NARX input dimension."""
    d = 14
    n = _square_edge(d) + 12  # two blocks, so the lower left is mirrored
    X = np.random.default_rng(9).normal(size=(n, d))
    spec = ORACLE_SPECS[family](d)
    K = build_gram(spec, X)
    B = _block_rows(d, n)
    for i in (0, B - 1, B, n - 1):
        for j in range(n):
            assert kernel_eval(spec, X[i], X[j]) == K[i, j]


@pytest.mark.parametrize("n, d", [
    (1, 1), (E1 - 1, 1), (E1, 1), (E1 + 1, 1), (255, 1), (256, 1), (257, 1),
    (2, 3), (E3 - 1, 3), (E3, 3), (E3 + 1, 3),  # one block, then two
    (146, 3), (147, 3), (148, 3),
    (336, 14),  # the NARX tuning size
    (_square_edge(14) + 12, 14), (80, 14), (100, 20),
])
@pytest.mark.parametrize("family", sorted(ORACLE_SPECS))
def test_stack_gram_matches_plain_gram(family, n, d):
    """A tune's square Gram matrices from the difference stack: BLAS sums the
    dimensions, so within roundoff of the plain build, and exactly symmetric."""
    X = np.random.default_rng(13).normal(size=(n, d))
    spec = ORACLE_SPECS[family](d)
    K = build_gram(spec, SquaredDiffStack(X))
    np.testing.assert_allclose(K, build_gram(spec, X), rtol=1e-13)
    np.testing.assert_array_equal(K, K.T)


def test_stack_holds_the_upper_triangle_by_row_block():
    n, d = 150, 3
    X = np.random.default_rng(2).normal(size=(n, d))
    stack = SquaredDiffStack(X)
    assert [(s, e) for s, e, _ in stack.blocks] == _square_layout(n, d)
    for start, stop, block in stack.blocks:
        assert block.flags.c_contiguous and block.shape == (d, (stop - start) * (n - start))
        expected = np.square(X[start:stop, None, :] - X[None, start:, :])
        np.testing.assert_array_equal(block.reshape(d, stop - start, n - start),
                                      np.moveaxis(expected, 2, 0))


def _kept_bytes(stack):
    """Bytes a stack holds: its cached blocks or, at d = 1, its row indices
    and their distinct values."""
    if stack.index is not None:
        return stack.index.nbytes + stack.values.nbytes
    return sum(block.nbytes for *_, block in stack.blocks)


def _square_layout(n, d):
    rows = _block_rows(d, n)
    return [(s, min(s + rows, n)) for s in range(0, n, rows)]


@pytest.mark.parametrize("kept", [0, 1, 2, 3])
def test_stack_keeps_the_leading_blocks_that_fit(monkeypatch, kept):
    """A budget one double short of the next block keeps exactly the blocks
    before it, though a later, narrower block would fit the rest; the Gram
    build computes the missing rows afresh.  A 1-D stack keeps whole rows of
    indices into its distinct squared lags, both sides of the diagonal, so a
    row i is budgeted at n indices and at most n - i distinct values."""
    n = 150
    for d in (1, 3):
        X = np.random.default_rng(6).normal(size=(n, d))
        layout = _square_layout(n, d)
        assert len(layout) == 3
        sizes = [8 * (e - s) * (d * (n - s) if d > 1 else 2 * n - s) for s, e in layout]
        budget = sum(sizes[:kept]) + (sizes[kept] - 8 if kept < len(sizes) else 0)
        monkeypatch.setattr(kernels, "STACK_BYTES", budget)
        stack = SquaredDiffStack(X)
        rows = ([0] + [e for _, e in layout])[kept]
        assert stack.rows == rows
        if d == 1:
            assert not stack.blocks
            assert (stack.index is None) if not kept else stack.index.shape == (rows, n)
        else:
            assert [(s, e) for s, e, _ in stack.blocks] == layout[:kept]
        assert _kept_bytes(stack) <= budget
        specs = [ORACLE_SPECS[family](d) for family in sorted(ORACLE_SPECS)]
        for spec in specs + [SDOF] * (d == 1):
            K = build_gram(spec, stack)
            np.testing.assert_array_equal(K, K.T)
            if kept and spec is not SDOF:
                np.testing.assert_allclose(K, build_gram(spec, X), rtol=1e-13)
            else:
                np.testing.assert_array_equal(K, build_gram(spec, X))


def test_stack_holds_the_narx_inputs_whole():
    n, d = 336, 14
    stack = SquaredDiffStack(np.random.default_rng(8).normal(size=(n, d)))
    assert [(s, e) for s, e, _ in stack.blocks] == _square_layout(n, d)
    assert sum(block.nbytes for *_, block in stack.blocks) <= kernels.STACK_BYTES


def _unsorted_times():
    """Times out of order, with repeats and lags below 1e-150, whose squares
    underflow."""
    rng = np.random.default_rng(12)
    t = rng.uniform(0.0, 4.0, 60)
    return rng.permutation(np.concatenate([t, t[:5], [0.0, 1e-300, 1e-160, 3e-155, -2e-152]]))


@pytest.mark.parametrize("t", [SHIPPED_GRID, _unsorted_times()], ids=["grid", "unsorted"])
def test_sdof_gram_entries_are_the_oscillator_at_each_lag(t):
    """The oscillator reads the squared lag and takes its root, which gives
    back |t_i - t_j| exactly, so every route keeps sdof_kernel_eval's bits."""
    expected = sdof_kernel_eval(SDOF, np.subtract.outer(t, t))
    X = t[:, None]
    np.testing.assert_array_equal(build_gram(SDOF, X), expected)
    np.testing.assert_array_equal(build_gram(SDOF, SquaredDiffStack(X)), expected)
    np.testing.assert_array_equal(build_gram(SDOF, X[:7], X), expected[:7])


@given(st.floats(min_value=2.0**-511, max_value=2.0**511), st.booleans())
@example(2.0**-511, True).via("smallest magnitude whose square is normal")
@example(np.nextafter(2.0**512, 0.0), False).via("largest whose square is finite")
def test_root_of_a_rounded_square_is_the_magnitude(magnitude, negative):
    x = np.float64(-magnitude if negative else magnitude)
    assert np.sqrt(x * x) == abs(x)


def test_one_dimensional_stack_keeps_each_squared_lag_once():
    """The shipped grid's 11,325 upper entries hold 479 distinct squared lags:
    the stack keeps those once, sorted, and an index for every entry of every
    row, symmetric as the lags are, so one gather gives the whole matrix."""
    n = len(SHIPPED_GRID)
    stack = SquaredDiffStack(SHIPPED_GRID)
    values = stack.values[0]
    lags = np.square(np.subtract.outer(SHIPPED_GRID, SHIPPED_GRID))
    assert lags[np.triu_indices(n)].size == 11325 and values.size == 479
    np.testing.assert_array_equal(values, np.unique(lags[np.triu_indices(n)]))
    assert stack.rows == n and not stack.blocks
    assert stack.index.shape == (n, n) and stack.index.dtype == np.intp
    np.testing.assert_array_equal(stack.index, stack.index.T)
    np.testing.assert_array_equal(values[stack.index], lags)
    K = build_gram(SDOF, stack)
    np.testing.assert_array_equal(K, sdof_kernel_eval(SDOF, np.subtract.outer(SHIPPED_GRID,
                                                                              SHIPPED_GRID)))
    np.testing.assert_array_equal(K, K.T)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_one_dimensional_stack_gathers_its_leading_rows(monkeypatch, blocks):
    """With only the first rows cached, those rows come from one gather and
    the rest from the plain blocks, mirrored from the complete rows above:
    entries in or facing the cached rows are the whole stack's, the fresh
    square is the plain build's, and the matrix is exactly symmetric."""
    t = np.random.default_rng(15).uniform(0.0, 6.0, 150)
    whole = SquaredDiffStack(t)
    rows = 64 * blocks
    # a row i costs n = 150 indices and at most n - i values; 64 rows a block
    budget = sum(8 * 64 * (300 - start) for start in range(0, rows, 64))
    monkeypatch.setattr(kernels, "STACK_BYTES", budget)
    stack = SquaredDiffStack(t)
    assert stack.rows == rows
    for spec in [ORACLE_SPECS[family](1) for family in sorted(ORACLE_SPECS)] + [SDOF]:
        K, K_whole, K_plain = build_gram(spec, stack), build_gram(spec, whole), build_gram(spec, t)
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(K[:rows], K_whole[:rows])
        np.testing.assert_array_equal(K[:, :rows], K_whole[:, :rows])
        np.testing.assert_array_equal(K[rows:, rows:], K_plain[rows:, rows:])
        if spec is SDOF:
            np.testing.assert_array_equal(K, K_plain)


@pytest.mark.parametrize("budget", [155_000, 200_000])
def test_one_dimensional_stack_keeps_its_values_within_the_budget(monkeypatch, budget):
    """Times that share no lags have a distinct squared lag for nearly every
    entry, so the values cost nearly as much as the indices: both count."""
    t = np.cumsum(np.random.default_rng(14).uniform(0.5, 1.5, 150))
    monkeypatch.setattr(kernels, "STACK_BYTES", budget)
    stack = SquaredDiffStack(t)
    assert stack.rows == 64 and _kept_bytes(stack) <= budget
    np.testing.assert_array_equal(build_gram(SDOF, stack), build_gram(SDOF, t))


def test_one_dimensional_stack_scans_its_mapped_lags():
    """An overflowing kernel gives non-finite entries: the gathered rows are
    refused from their mapped distinct lags, as the plain build refuses them."""
    t = np.random.default_rng(16).uniform(0.0, 3.0, 40)
    spec = SquaredExponential(signal_scale=1e200, lengthscales=0.5)
    with np.errstate(all="ignore"):
        for X in (t, SquaredDiffStack(t)):
            with pytest.raises(ValueError, match="non-finite entries"):
                build_gram(spec, X)


def test_whole_one_dimensional_stack_returns_after_its_gather(monkeypatch):
    """A stack that covers every row is done after one gather: no fresh
    block is walked.  A map that yields NaN is still refused, as the plain
    build refuses it, from the mapped lags."""
    t = np.random.default_rng(19).uniform(0.0, 3.0, 150)
    stack = SquaredDiffStack(t)
    assert stack.rows == len(t)
    walked = []
    row_blocks = kernels._row_blocks
    monkeypatch.setattr(kernels, "_row_blocks", lambda *a: walked.append(a) or row_blocks(*a))
    np.testing.assert_array_equal(build_gram(SDOF, stack), build_gram(SDOF, t))
    assert len(walked) == 1  # the plain build's

    def nan_at_one_entry(self, S):
        sqdist_map(self, S)
        S.flat[np.argmax(S)] = np.nan

    sqdist_map = SquaredExponential.sqdist_map
    monkeypatch.setattr(SquaredExponential, "sqdist_map", nan_at_one_entry)
    spec = SquaredExponential(signal_scale=1.0, lengthscales=0.5)
    for X in (t, stack):
        with pytest.raises(ValueError, match="^kernel evaluation produced non-finite entries$"):
            build_gram(spec, X)


def test_stack_serves_only_square_squared_distance_grams():
    X = np.random.default_rng(4).normal(size=(6, 1))
    stack = SquaredDiffStack(X)
    with pytest.raises(ValueError):
        build_gram(SPECS[0], stack, X)
    with pytest.raises(ValueError):  # two lengthscales, one input dimension
        build_gram(SquaredExponential(1.0, [1.0, 2.0]), stack)


@pytest.mark.parametrize("case", ["whole_1d_stack", "partial_1d_stack", "stack_d3", "plain",
                                  "plain_cross"])
def test_gram_fills_the_given_buffer_with_the_fresh_build(monkeypatch, case):
    """``out`` comes back itself, every entry overwritten with the bits of a
    fresh build, whatever it held: on each path of the build."""
    rng = np.random.default_rng(17)
    X = rng.uniform(0.0, 6.0, (150, 3 if case == "stack_d3" else 1))
    if case == "partial_1d_stack":  # the first of three blocks cached, as above
        monkeypatch.setattr(kernels, "STACK_BYTES", 8 * 64 * 300)
    args = {"plain": (X,), "plain_cross": (X, X[:70] + 0.1)}.get(case) or (SquaredDiffStack(X),)
    if case == "partial_1d_stack":
        assert args[0].rows == 64
    for spec in [ORACLE_SPECS[family](X.shape[1]) for family in sorted(ORACLE_SPECS)] + (
            [SDOF] if X.shape[1] == 1 else []):
        fresh = build_gram(spec, *args)
        out = np.full(fresh.shape, np.nan)
        assert build_gram(spec, *args, out=out) is out
        np.testing.assert_array_equal(out, fresh)
        out[...] = rng.normal(size=out.shape)  # a buffer left dirty by the last build
        build_gram(spec, *args, out=out)
        np.testing.assert_array_equal(out, fresh)


@pytest.mark.parametrize("out", [np.empty((20, 21)), np.empty((21, 20)), np.empty(400),
                                 np.empty((20, 20), order="F"), np.empty((20, 40))[:, ::2],
                                 np.empty((20, 20), dtype=np.float32)],
                         ids=["wide", "tall", "flat", "fortran", "strided", "float32"])
@pytest.mark.parametrize("stacked", [False, True])
def test_gram_refuses_a_buffer_of_the_wrong_shape_or_order(out, stacked):
    X = np.random.default_rng(18).normal(size=(20, 1))
    with pytest.raises(ValueError, match="C-ordered float array of shape"):
        build_gram(SPECS[0], SquaredDiffStack(X) if stacked else X, out=out)


def test_gram_single_point_is_signal_variance():
    spec = SquaredExponential(signal_scale=2.0, lengthscales=1.0)
    K = build_gram(spec, [[0.4]], [[0.4]])
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(4.0)


def test_gram_identical_rows_all_signal_variance():
    spec = SquaredExponential(signal_scale=1.5, lengthscales=0.3)
    X = np.ones((3, 2)) * 0.7
    np.testing.assert_allclose(build_gram(spec, X), np.full((3, 3), 1.5**2), rtol=1e-15)


def test_gram_bit_stable():
    spec = SquaredExponential(signal_scale=1.1, lengthscales=[0.5, 2.0])
    X = np.random.default_rng(11).normal(size=(40, 2))
    assert np.array_equal(build_gram(spec, X), build_gram(spec, X))


def test_ard_lengthscales_used_per_dimension():
    spec = SquaredExponential(signal_scale=1.0, lengthscales=[1.0, 10.0])
    x, xp = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    expected = np.exp(-0.5 * (1.0 + 0.01))
    assert kernel_eval(spec, x, xp) == pytest.approx(expected, rel=1e-14)


def test_dimension_mismatch_raises():
    spec = SquaredExponential(signal_scale=1.0, lengthscales=[1.0, 2.0])
    with pytest.raises(ValueError):
        build_gram(spec, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        kernel_eval(spec, [0.0], [0.0, 1.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_nonpositive_hyperparameters_rejected(bad):
    with pytest.raises(ValueError):
        SquaredExponential(signal_scale=bad, lengthscales=1.0)
    with pytest.raises(ValueError):
        Matern32(signal_scale=1.0, lengthscale=bad)


# kernel keys of model.json as written before the families owned their JSON
# form; saved models must keep loading
SAVED_KEYS = {
    "squared_exponential": {"family", "signal_scale", "lengthscales"},
    "matern12": {"family", "signal_scale", "lengthscale"},
    "matern32": {"family", "signal_scale", "lengthscale"},
    "sdof": {"family", "zeta", "omega_n", "sigma2"},
}


def _tuned_example(family, d, ard):
    """A kernel built the way the tuner builds one: the family's default box
    decoded at its geometric middle, its entries the constructor's arguments."""
    cls = FAMILIES[family]
    X = np.linspace(0.0, 4.0, 17)[:, None] * np.arange(1, d + 1)
    box = cls.default_bounds(X, 2.0, ard, None)
    return X, cls(*decoder(box)(np.mean(log10_box(box), axis=1)).values())


def test_families_are_exactly_the_four():
    assert set(FAMILIES) == set(SAVED_KEYS)


@pytest.mark.parametrize("ard", [False, True])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_contract(family, ard):
    d = 1 if family == "sdof" else 3
    X, kernel = _tuned_example(family, d, ard)
    assert type(kernel) is FAMILIES[family]
    doc = json.loads(json.dumps(kernel.to_dict()))
    assert set(doc) == SAVED_KEYS[family] and doc["family"] == family
    again = Kernel.from_dict(doc)
    np.testing.assert_array_equal(build_gram(again, X), build_gram(kernel, X))
    for broken in ({**doc, "extra": 1.0}, {k: v for k, v in doc.items() if k != "family"},
                   {k: v for k, v in list(doc.items())[:-1]}):
        with pytest.raises(ValueError):
            Kernel.from_dict(broken)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_diag_is_the_kernel_at_zero_lag(family):
    """Bit for bit the Gram diagonal and the point-pair value, in every family."""
    X, kernel = _tuned_example(family, 1 if family == "sdof" else 3, False)
    k0 = kernel.diag(X)
    np.testing.assert_array_equal(k0, np.diag(build_gram(kernel, X)))
    np.testing.assert_array_equal(k0, [kernel_eval(kernel, x, x) for x in X])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_1d_density_is_the_d1_case(family):
    _, kernel = _tuned_example(family, 1, False)
    w = np.linspace(-5.0, 5.0, 11)
    if family == "sdof":
        with pytest.raises(ValueError):
            spectral_density(kernel, w)
        return
    np.testing.assert_array_equal(spectral_density(kernel, w),
                                  kernel.spectral_density((w**2)[:, None]))
    assert spectral_density(kernel, 1.5) == kernel.spectral_density(np.array([[2.25]]))[0]
