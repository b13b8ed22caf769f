"""Marcenko-Pastur law, Stieltjes transforms, and distribution actions."""

import math

import numpy as np
import pytest
from scipy import integrate

from coherlss import (
    DomainError,
    InvalidArgumentError,
    MPModel,
    NumericalFailureError,
    SpectralFunction,
    distribution_action,
    mp_density,
    mp_integral,
    mp_stieltjes,
    mp_stieltjes_tilde,
    p_stieltjes,
    p_tilde_stieltjes,
    spectral_function,
)
from coherlss import rmt


def _moment_oracle(c, k):
    # sum_r c^r / (r + 1) * C(k, r) * C(k - 1, r)
    return sum(
        c ** r / (r + 1) * math.comb(k, r) * math.comb(k - 1, r) for r in range(k)
    )


def _stieltjes_oracle(model, z):
    # direct quadrature of 1 / (lam - z) against the density
    lm, lp = model.lambda_minus, model.lambda_plus

    def re_part(lam):
        return ((lam - z.real) / abs(lam - z) ** 2) * mp_density(model, lam)

    def im_part(lam):
        return (z.imag / abs(lam - z) ** 2) * mp_density(model, lam)

    re, _ = integrate.quad(re_part, lm, lp, points=[lm, lp], limit=200)
    im, _ = integrate.quad(im_part, lm, lp, points=[lm, lp], limit=200)
    return complex(re, im)


def test_model_validation():
    MPModel(0.5)
    for c in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidArgumentError):
            MPModel(c)


def test_edges():
    m = MPModel(0.25)
    assert m.lambda_minus == pytest.approx(0.25)
    assert m.lambda_plus == pytest.approx(2.25)


def test_density_support_and_mass():
    for c in (0.1, 0.5, 0.9):
        m = MPModel(c)
        assert mp_density(m, m.lambda_minus - 1e-9) == 0.0
        assert mp_density(m, m.lambda_plus + 1e-9) == 0.0
        mass, err = integrate.quad(
            lambda x: mp_density(m, x),
            m.lambda_minus,
            m.lambda_plus,
            points=[m.lambda_minus, m.lambda_plus],
            limit=200,
        )
        assert abs(mass - 1.0) < 1e-8


def test_mp_integral_moments():
    for c in (0.2, 0.5, 0.8):
        m = MPModel(c)
        for k in (1, 2, 3, 4):
            f = SpectralFunction.polynomial([0.0] * k + [1.0])
            assert mp_integral(m, f) == pytest.approx(_moment_oracle(c, k), abs=1e-9)


def test_mp_integral_closed_forms():
    for c in (0.3, 0.5, 0.7):
        m = MPModel(c)
        assert mp_integral(m, spectral_function("square_centered")) == pytest.approx(c, abs=1e-9)
        log_val = (c - 1.0) / c * math.log(1.0 - c) - 1.0
        assert mp_integral(m, spectral_function("log")) == pytest.approx(log_val, abs=1e-9)
    m = MPModel(0.5)
    assert mp_integral(m, spectral_function("log")) == pytest.approx(math.log(2.0) - 1.0, abs=1e-9)


def test_stieltjes_against_quadrature():
    for c in (0.2, 0.5, 0.8):
        m = MPModel(c)
        for z in (0.5 + 0.3j, 1.0 + 1e-2j, -1.0 + 1.0j, 3.0 + 0.05j):
            assert abs(mp_stieltjes(m, z) - _stieltjes_oracle(m, z)) < 1e-6


def test_stieltjes_quadratic_and_dual_identities():
    rng = np.random.default_rng(31)
    for _ in range(50):
        c = float(rng.uniform(0.05, 0.95))
        z = complex(rng.uniform(-2, 4), rng.uniform(1e-3, 2.0))
        m = MPModel(c)
        t = mp_stieltjes(m, z)
        td = mp_stieltjes_tilde(m, z)
        assert t.imag > 0 and td.imag > 0
        assert abs(c * z * t * t + (z - 1 + c) * t + 1) < 1e-10 * (1 + abs(z))
        assert abs(t + 1.0 / (z * (1.0 + td))) < 1e-10
        assert abs(td + 1.0 / (z * (1.0 + c * t))) < 1e-10


def test_stieltjes_large_z_asymptote():
    m = MPModel(0.5)
    z = 1e6j
    assert abs(mp_stieltjes(m, z) + 1.0 / z) < 1e-11
    # p decays like -c w^3 ~ -c / z^3
    assert abs(p_stieltjes(m, 1e3j)) < 10 * 0.5 / 1e9
    assert abs(p_tilde_stieltjes(m, 1e3j)) < 10 / 1e6


def test_transforms_reject_lower_half_plane():
    m = MPModel(0.5)
    for fn in (mp_stieltjes, mp_stieltjes_tilde, p_stieltjes, p_tilde_stieltjes):
        with pytest.raises(InvalidArgumentError):
            fn(m, 1.0 - 0.1j)
        with pytest.raises(InvalidArgumentError):
            fn(m, 1.0 + 0.0j)


def test_action_annihilates_constants_and_identity():
    # p(z) = -c/z^3 + O(z^-4) at infinity, so <D, 1> = <D, lambda> = 0
    m = MPModel(0.5)
    one = SpectralFunction.polynomial([1.0])
    lam = SpectralFunction.polynomial([0.0, 1.0])
    for method in ("inversion", "contour"):
        assert abs(distribution_action("p", m, one, method=method)) < 1e-6
        assert abs(distribution_action("p", m, lam, method=method)) < 1e-6
        assert abs(distribution_action("p_tilde", m, one, method=method)) < 1e-6


def test_action_linearity():
    m = MPModel(0.4)
    f1 = SpectralFunction.polynomial([0.0, 0.0, 1.0])
    f2 = SpectralFunction.polynomial([0.0, 0.0, 0.0, 1.0])
    combo = SpectralFunction.polynomial([0.0, 0.0, 2.0, -3.0])
    a1 = distribution_action("p", m, f1)
    a2 = distribution_action("p", m, f2)
    ac = distribution_action("p", m, combo)
    assert ac == pytest.approx(2 * a1 - 3 * a2, abs=1e-7)


def test_action_zero_function():
    m = MPModel(0.5)
    zero = SpectralFunction.polynomial([0.0])
    assert distribution_action("p", m, zero) == pytest.approx(0.0, abs=1e-9)


def test_action_methods_agree():
    # agreement tightens as c moves away from 1; ~3e-5 is the c=0.7 floor
    for c in (0.3, 0.5, 0.7):
        m = MPModel(c)
        for name in ("square_centered", "log"):
            f = spectral_function(name)
            for transform in ("p", "p_tilde"):
                a = distribution_action(transform, m, f, method="contour")
                b = distribution_action(transform, m, f, method="inversion")
                assert a == pytest.approx(b, abs=1e-4)


def test_action_golden_values():
    # phi((lambda-1)^2) = c and phi_tilde((lambda-1)^2) = -2c across aspect ratios
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        m = MPModel(c)
        sq = spectral_function("square_centered")
        assert distribution_action("p", m, sq) == pytest.approx(c, abs=1e-3)
        assert distribution_action("p_tilde", m, sq) == pytest.approx(-2 * c, abs=1e-3)
    # log actions have an integrable singularity pushing toward the origin as
    # c -> 1, so pin them at moderate aspect ratios: phi(log) = -c/2,
    # phi_tilde(log) = -1
    for c in (0.25, 0.5, 0.7):
        m = MPModel(c)
        log_f = spectral_function("log")
        assert distribution_action("p", m, log_f) == pytest.approx(-c / 2, abs=1e-3)
        assert distribution_action("p_tilde", m, log_f) == pytest.approx(-1.0, abs=1e-3)


def test_non_analytic_function_routing():
    m = MPModel(0.5)
    f = SpectralFunction.from_callable(lambda x: np.abs(x - 1.0), analytic=False)
    val = distribution_action("p", m, f)  # auto must fall back to inversion
    assert np.isfinite(val)
    with pytest.raises(InvalidArgumentError):
        distribution_action("p", m, f, method="contour")


def test_action_argument_validation():
    m = MPModel(0.5)
    f = spectral_function("square_centered")
    with pytest.raises(InvalidArgumentError):
        distribution_action("q", m, f)
    with pytest.raises(InvalidArgumentError):
        distribution_action("p", m, f, method="magic")


def test_spectral_function_domains():
    log_f = spectral_function("log")
    assert log_f.positive_domain
    with pytest.raises(DomainError):
        log_f(np.array([-1.0, 2.0]))
    with pytest.raises(DomainError):
        log_f(0.0)
    sq = spectral_function("square_centered")
    assert sq(np.array([0.0, 2.0])) == pytest.approx([1.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        spectral_function("cubic")


def test_action_cache_consistency():
    m = MPModel(0.5)
    f = spectral_function("square_centered")
    first = distribution_action("p", m, f)
    second = distribution_action("p", m, f)
    assert first == second


def _sine(k):
    return SpectralFunction.from_callable(lambda x: np.sin(k * np.asarray(x)), label=f"sin({k}x)")


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_inversion_rejects_unconverged_quadrature():
    # 2000 radians per unit of lambda: quad's error estimate is about 0.1
    with pytest.raises(NumericalFailureError, match="quadrature"):
        distribution_action("p", MPModel(0.5), _sine(2000), method="inversion")


def test_inversion_rejects_unconverged_extrapolation():
    # oscillation on the scale of the heights y: the last two Richardson
    # extrapolants differ by about 8e-3
    with pytest.raises(NumericalFailureError, match="Richardson"):
        distribution_action("p", MPModel(0.5), _sine(600), method="inversion")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_branch_fallback_must_reach_upper_half_plane():
    # on the real axis outside the support both roots are real, so the sign
    # test fails and the fixed-point fallback stays real
    with pytest.raises(NumericalFailureError, match="fallback"):
        rmt._mp_branch(0.5, np.array([5.0 + 0.0j]))
    # a NaN argument used to come back as a NaN transform
    with pytest.raises(NumericalFailureError):
        mp_stieltjes(MPModel(0.5), complex(np.nan, 1.0))
