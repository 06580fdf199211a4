"""Physics priors: oscillator covariance, Morison force, spectral densities."""

import mpmath
import numpy as np
import pytest
from scipy import integrate

from shmgp.kernels import Matern12, Matern32, SquaredExponential, build_gram
from shmgp.means import LinearMean
from shmgp.physics import (
    MorisonMean,
    SdofKernel,
    morison_force,
    sdof_kernel_eval,
    spectral_density,
)


class TestSdofKernel:
    def test_zero_lag_closed_form(self):
        p = SdofKernel(zeta=0.2, omega_n=3.0, sigma2=2.5)
        assert sdof_kernel_eval(p, 0.0) == pytest.approx(2.5 / (4 * 0.2 * 27.0), rel=1e-14)

    def test_even_in_lag(self):
        p = SdofKernel(zeta=0.1, omega_n=2 * np.pi, sigma2=1.0)
        taus = np.linspace(0.0, 5.0, 41)
        np.testing.assert_allclose(
            sdof_kernel_eval(p, taus), sdof_kernel_eval(p, -taus), rtol=1e-14
        )

    def test_term_by_term_extended_precision(self):
        # independent evaluation of the covariance with 50-digit arithmetic
        p = SdofKernel(zeta=0.1, omega_n=2 * np.pi, sigma2=1.0)
        with mpmath.workdps(50):
            zeta, wn, s2, tau = map(mpmath.mpf, ("0.1", str(2 * np.pi), "1", "0.1"))
            wd = wn * mpmath.sqrt(1 - zeta**2)
            scale = s2 / (4 * zeta * wn**3)
            expected = float(
                scale
                * mpmath.e ** (-zeta * wn * tau)
                * (mpmath.cos(wd * tau) + zeta * wn / wd * mpmath.sin(wd * tau))
            )
        assert sdof_kernel_eval(p, 0.1) == pytest.approx(expected, rel=1e-13)

    def test_blocked_gram_has_the_bits_of_the_closed_form(self):
        # oracle: the closed form over the whole lag matrix at once, with
        # cos(w_d tau) on the signed lag
        def closed_form(p, tau):
            zwn, wd = p.zeta * p.omega_n, p.omega_d
            scale = p.sigma2 / (4.0 * zwn * p.omega_n**2)
            at = np.abs(tau)
            return scale * np.exp(-zwn * at) * (np.cos(wd * tau) + (zwn / wd) * np.sin(wd * at))

        rng = np.random.default_rng(8)
        for n, m in ((1, 1), (150, 70), (300, 1000), (65, 2)):
            p = SdofKernel(rng.uniform(0.01, 0.9), rng.uniform(0.5, 30.0),
                           10.0 ** rng.uniform(-2, 2))
            t = np.sort(rng.uniform(0.0, 40.0, n))[:, None]
            t2 = rng.uniform(-5.0, 45.0, (m, 1))
            K = build_gram(p, t)
            np.testing.assert_array_equal(K, closed_form(p, t - t.T))
            np.testing.assert_array_equal(K, K.T)
            np.testing.assert_array_equal(build_gram(p, t, t2), closed_form(p, t - t2.T))
            for tau in (0.0, -0.0, float(t[0, 0] - t2[0, 0]), -1.7):
                assert sdof_kernel_eval(p, tau) == float(closed_form(p, np.float64(tau)))

    @pytest.mark.parametrize("zeta", [0.0, 1.0, 1.2, -0.1])
    def test_damping_ratio_bounds(self, zeta):
        with pytest.raises(ValueError):
            SdofKernel(zeta=zeta, omega_n=1.0, sigma2=1.0)

    def test_positive_semidefinite_gram(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = SdofKernel(
                zeta=rng.uniform(0.02, 0.9),
                omega_n=rng.uniform(0.5, 20.0),
                sigma2=10.0 ** rng.uniform(-2, 2),
            )
            t = np.sort(rng.uniform(0.0, 20.0, 50)).reshape(-1, 1)
            K = build_gram(p, t)
            k0 = sdof_kernel_eval(p, 0.0)
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * k0

    def test_envelope_decay_bound(self):
        p = SdofKernel(zeta=0.15, omega_n=4.0, sigma2=3.0)
        k0 = sdof_kernel_eval(p, 0.0)
        zwn = p.zeta * p.omega_n
        taus = np.linspace(-12.0, 12.0, 501)
        bound = k0 * np.exp(-zwn * np.abs(taus)) * (1.0 + zwn / p.omega_d)
        assert np.all(np.abs(sdof_kernel_eval(p, taus)) <= bound + 1e-15)

    def test_uniform_spacing_gives_toeplitz_gram(self):
        p = SdofKernel(zeta=0.05, omega_n=7.0, sigma2=1.0)
        t = (np.arange(12) * 0.3).reshape(-1, 1)
        K = build_gram(p, t)
        for off in range(12):
            diag = np.diagonal(K, offset=off)
            np.testing.assert_allclose(diag, diag[0], rtol=1e-12)

    def test_rejects_multidimensional_inputs(self):
        spec = SdofKernel(zeta=0.1, omega_n=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            build_gram(spec, np.zeros((3, 2)))


class TestMorison:
    def test_zero_input(self):
        assert morison_force(MorisonMean(1.0, 2.0), 0.0, 0.0) == 0.0

    def test_odd_in_velocity(self):
        p = MorisonMean(drag=1.0, inertia=0.0)
        assert morison_force(p, -1.0, 0.0) == -1.0
        assert morison_force(p, 1.0, 0.0) == 1.0

    def test_hand_value(self):
        # 1 * 2|2| + 2 * 0.5 = 5
        assert morison_force(MorisonMean(1.0, 2.0), 2.0, 0.5) == pytest.approx(5.0)

    def test_linear_in_acceleration(self):
        p = MorisonMean(drag=0.7, inertia=1.3)
        base = morison_force(p, 0.0, 1.0)
        assert morison_force(p, 0.0, 4.0) == pytest.approx(4.0 * base)

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            MorisonMean(drag=np.inf, inertia=0.0)


@pytest.mark.parametrize("value", ["x", [1.0, 2.0], None], ids=["string", "list", "null"])
def test_a_field_that_takes_one_number_names_itself(value):
    args = {"zeta": 0.1, "omega_n": 2.0, "sigma2": 1.0}
    for key in args:
        with pytest.raises(ValueError, match=rf"^{key} takes one finite number, got "):
            SdofKernel(**{**args, key: value})
    for key in ("drag", "inertia"):
        with pytest.raises(ValueError, match=rf"^{key} takes one finite number, got "):
            MorisonMean(**{"drag": 1.0, "inertia": 0.5, key: value})


@pytest.mark.parametrize("value", ["x", [[1.0], [1.0, 2.0]], [1.0, None], {}],
                         ids=["string", "ragged", "null-entry", "object"])
def test_a_field_that_takes_a_list_names_itself(value):
    with pytest.raises(ValueError, match=r"^lengthscales takes one finite number or a list"):
        SquaredExponential(1.0, value)
    with pytest.raises(ValueError, match=r"^slope takes one finite number or a list"):
        LinearMean(0.0, value)


class TestLinearMean:
    def test_zero_coefficients(self):
        assert LinearMean(0.0, [0.0, 0.0])([3.0, -1.0])[0] == 0.0

    def test_hand_value(self):
        assert LinearMean(1.0, [2.0])([3.0])[0] == pytest.approx(7.0)

    def test_affinity(self):
        rng = np.random.default_rng(2)
        mean = LinearMean(0.4, rng.normal(size=3))
        x, xp = rng.normal(size=3), rng.normal(size=3)
        lhs = mean(0.5 * x + 0.5 * xp)[0]
        rhs = 0.5 * mean(x)[0] + 0.5 * mean(xp)[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearMean(0.0, [1.0, 2.0])([1.0])


class TestSpectralDensity:
    SPECS = [
        SquaredExponential(signal_scale=1.5, lengthscales=0.5),
        Matern12(signal_scale=1.1, lengthscale=10.0),
        Matern32(signal_scale=0.9, lengthscale=2.0),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_even_and_positive(self, spec):
        w = np.linspace(0.0, 30.0, 50)
        S = spectral_density(spec, w)
        assert np.all(S > 0.0)
        np.testing.assert_allclose(S, spectral_density(spec, -w), rtol=1e-14)

    def test_matern12_hand_value_at_zero(self):
        # lam = 1/l = 1: S(0) = 2 sigma^2 lam / lam^2 = 2
        assert spectral_density(Matern12(1.0, 1.0), 0.0) == pytest.approx(2.0)

    def test_se_hand_value_at_zero(self):
        spec = SquaredExponential(signal_scale=2.0, lengthscales=0.5)
        assert spectral_density(spec, 0.0) == pytest.approx(4.0 * np.sqrt(2 * np.pi) * 0.5)

    @pytest.mark.parametrize("spec", SPECS)
    def test_wiener_khinchin_roundtrip(self, spec):
        # (1/2pi) int_{-200}^{200} S(w) cos(w tau) dw recovers k(tau).
        # The Matern-1/2 tail decays like w^-2, so its lengthscale is chosen
        # large enough that the mass outside the window stays below 1e-3.
        ell = spec.lengthscales[0] if hasattr(spec, "lengthscales") else spec.lengthscale
        for tau in np.array([0.0, 0.1, 1.0, 3.0]) * ell:
            val, _ = integrate.quad(
                lambda w: spectral_density(spec, w), -200, 200,
                weight="cos", wvar=tau, limit=800,
            )
            val /= 2.0 * np.pi
            truth = build_gram(spec, [[0.0]], [[tau]])[0, 0]
            assert val == pytest.approx(truth, rel=1e-3)

    def test_integrates_to_zero_lag_variance(self):
        spec = Matern32(signal_scale=1.4, lengthscale=1.0)
        val, _ = integrate.quad(lambda w: spectral_density(spec, w), -200, 200, limit=400)
        assert val / (2 * np.pi) == pytest.approx(1.4**2, rel=1e-3)

    def test_unsupported_family_raises(self):
        spec = SdofKernel(zeta=0.1, omega_n=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            spectral_density(spec, 0.0)
