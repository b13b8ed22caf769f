"""Marcenko-Pastur law, Stieltjes transforms, and distribution actions."""

import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
import coherlss
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
    # a name is coerced as distribution_action coerces it
    assert mp_integral(m, "log") == mp_integral(m, spectral_function("log"))


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


@pytest.mark.parametrize("fn", [mp_stieltjes, mp_stieltjes_tilde, p_stieltjes, p_tilde_stieltjes])
def test_transforms_are_finite_or_fail_loudly(fn):
    # near 0 and far out intermediates over- or underflow: every value is
    # finite or NumericalFailureError, and no numpy warning escapes
    m = MPModel(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (5e-324j, 1e-310j, 1e-308j, 1.0 + 1e-310j, 1e170j, 1e300j):
            try:
                assert np.isfinite(fn(m, z))
            except NumericalFailureError:
                pass
        values = fn(m, np.array([1e-300j, 0.5 + 1e-310j, 1e170j]))
        assert np.all(np.isfinite(values))
        if fn is not mp_stieltjes:  # t(1e-310 i) = 2 + 8e-310 i is finite
            with pytest.raises(NumericalFailureError, match="not finite"):
                fn(m, 1e-310j)
            with pytest.raises(NumericalFailureError, match="not finite"):
                fn(m, np.array([1.0 + 1.0j, 1e-310j]))
    # the fixed-point fallback still gives t(z) = -1/z where b^2 overflows
    assert mp_stieltjes(m, 1e170j) == 1e-170j


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


def _bump(w):
    return SpectralFunction.from_callable(lambda x: np.exp(-((np.asarray(x) - 1.2) / w) ** 2) / w,
                                          label=f"bump({w})")


@pytest.mark.parametrize("w", [0.03, 0.01, 0.002, 1e-4, 3e-5])
def test_inversion_resolves_a_wide_bump(w):
    # a first pass of 3 intervals never samples the bump for w <= 0.01 and
    # its error estimate stays near 1e-33; the dense first pass meets it
    assert distribution_action("p", MPModel(0.5), _bump(w), method="inversion") == pytest.approx(
        -0.371, abs=1e-3)


@pytest.mark.parametrize("w", [0.03, 0.01, 0.002])
def test_mp_integral_resolves_a_narrow_bump(w):
    # the MP integral is the inversion action of t, so its dense first pass
    # meets the bump too; a sparse one returned about 0 for w <= 0.01
    model = MPModel(0.5)
    expected, _ = integrate.quad(lambda x: float(_bump(w)(x)) * mp_density(model, x),
                                 model.lambda_minus, model.lambda_plus, points=[1.2], limit=200)
    assert abs(mp_integral(model, _bump(w)) - expected) <= 1e-12
    assert abs(coherlss.lss.mp_integral_value(0.5, _bump(w)) - expected) <= 1e-12


@pytest.mark.parametrize("name", ["square_centered", "log"])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_first_pass_leaves_no_wide_gap(c, name, monkeypatch):
    # the non-analytic route's first pass samples theta in (0, pi) densely
    thetas = []
    boundary = rmt._boundary_integrand

    def recording(model, f, which):
        integrand = boundary(model, f, which)

        def fn(theta):
            thetas.append(np.array(theta))
            return integrand(theta)

        return fn

    monkeypatch.setattr(rmt, "_boundary_integrand", recording)
    monkeypatch.setattr(rmt, "_ACTION_CACHE", {})
    f = SpectralFunction.from_callable(spectral_function(name), positive_domain=name == "log",
                                       label=name)
    distribution_action("p", MPModel(c), f, method="inversion")
    nodes = np.sort(thetas[0])
    gaps = np.diff(np.concatenate([[0.0], nodes, [np.pi]]))
    assert nodes[0] > 0.0 and nodes[-1] < np.pi
    assert gaps.max() <= np.pi / 16384


def test_inversion_rejects_unconverged_quadrature():
    # 2000 radians per unit of lambda: about 900 periods over the support,
    # which the first pass resolves; the route matches quad in theta
    model = MPModel(0.5)
    value = distribution_action("p", model, _sine(2000), method="inversion")
    assert abs(value - _quad_theta(model, _sine(2000), "p", limit=1000)) <= 1e-13
    # ten times faster: the error estimate stays about 0.24 after the
    # refinement budget is spent
    with pytest.raises(NumericalFailureError, match="did not converge"):
        distribution_action("p", model, _sine(20000), method="inversion")


def test_inversion_resolves_sin_600x():
    # an oscillation with a period of about 1e-2 in x, which the
    # non-analytic route resolves
    model = MPModel(0.5)
    value = distribution_action("p", model, _sine(600), method="inversion")
    assert abs(value - _quad_theta(model, _sine(600), "p", limit=1000)) <= 1e-13


@pytest.mark.parametrize("which, exact", [("p", -0.4), ("p_tilde", -1.0)])
def test_log_action_holds_up_to_c_0_8(which, exact):
    # <D, log> is -c/2 for p and -1 for p_tilde; at c = 0.8 the contour
    # route is within 2e-5 and the inversion route within 1e-10
    model, f = MPModel(0.8), spectral_function("log")
    assert distribution_action(which, model, f, method="contour") == pytest.approx(exact, abs=2e-5)
    assert distribution_action(which, model, f, method="inversion") == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("which, exact", [("p", -0.45), ("p_tilde", -1.0)])
def test_log_action_at_c_0_9(which, exact):
    # log's singularity at 0 sits close to lambda_minus = 0.0026: the
    # boundary-value inversion resolves it, but the contour, which passes
    # a1 = lambda_minus / 2 = 0.0013, moves by about 4e-2 on half its nodes
    # while its value is off by about 1e-2, and must fail loudly
    model, f = MPModel(0.9), spectral_function("log")
    assert distribution_action(which, model, f, method="inversion") == pytest.approx(exact, abs=1e-10)
    with pytest.raises(NumericalFailureError, match="under-resolved"):
        distribution_action(which, model, f, method="contour")


def _cubic_actions(c, a):
    # <D, x^k> from the Laurent series of p = -c s^3 - 3c(1+c) s^4 - ...,
    # s = 1/z, and <D_tilde, x^k> = -k m_k from p_tilde = (z t)', with m_k
    # the MP moments
    return (a[2] * c + a[3] * 3.0 * c * (1.0 + c),
            -sum(k * a[k] * _moment_oracle(c, k) for k in (1, 2, 3)))


@pytest.mark.parametrize("c", [0.1, 0.5, 0.8, 0.9, 0.95])
def test_inversion_closed_forms(c):
    model = MPModel(c)
    cubic = (0.5, -1.5, 2.0, -0.75)
    cases = [(spectral_function("square_centered"), (c, -2.0 * c)),
             (spectral_function("log"), (-c / 2.0, -1.0)),
             (SpectralFunction.polynomial(cubic), _cubic_actions(c, cubic))]
    for f, exact in cases:
        for which, value in zip(rmt.TRANSFORM_NAMES, exact):
            assert abs(distribution_action(which, model, f, method="inversion") - value) <= 1e-11


def test_inversion_of_analytic_f_refines_or_raises():
    # a pole 1e-6 beyond lambda_plus on an f flagged analytic: bisection
    # from the one first interval reaches it and matches quad in theta
    model = MPModel(0.5)
    pole = model.lambda_plus + 1e-6
    f = SpectralFunction.from_callable(lambda x: 1.0 / (x - pole), analytic=True, label="pole")
    value = distribution_action("p", model, f, method="inversion")
    assert abs(value - _quad_theta(model, f, "p", limit=1000)) <= 1e-10 * (1.0 + abs(value))
    # an entire f that oscillates too fast: the error estimate stays about
    # 0.31 after the refinement budget is spent
    fast = SpectralFunction.from_callable(lambda x: np.sin(20000 * np.asarray(x)), analytic=True,
                                          label="sin(20000x)")
    with pytest.raises(NumericalFailureError, match="did not converge"):
        distribution_action("p", model, fast, method="inversion")


@pytest.mark.parametrize("which", rmt.TRANSFORM_NAMES)
@pytest.mark.parametrize("c", [0.05, 0.5, 0.95])
def test_boundary_integrand_is_smooth_at_the_edges(c, which):
    # Im p has inverse-square-root edges, and R sin(theta) cancels them
    model, f = MPModel(c), spectral_function("log")
    edges = np.array([0.0, np.pi])
    near = rmt._boundary_integrand(model, f, which)(np.array([1e-9, np.pi - 1e-9]))
    assert np.all(np.isfinite(near))
    assert np.all(np.abs(near - _theta_integrand(model, f, which)(edges)) <= 1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_branch_fallback_must_reach_upper_half_plane():
    # on the real axis outside the support both roots are real, so the sign
    # test fails and the fixed-point fallback stays real
    with pytest.raises(NumericalFailureError, match="fallback"):
        rmt._mp_branch(0.5, np.array([5.0 + 0.0j]))
    # a NaN argument used to come back as a NaN transform
    with pytest.raises(NumericalFailureError):
        mp_stieltjes(MPModel(0.5), complex(np.nan, 1.0))


def _theta_integrand(model, f, which):
    # the inversion integrand in theta, from identities of the boundary
    # value rather than from w: with u = z t, c u^2 + (z - 1 + c) u + z = 0
    # gives p_tilde = u' = -(1 + u) / (2 c u + z - 1 + c), whose denominator
    # is i R sin(theta) on the support, and p = -c w p_tilde
    c, lm, lp = model.c, model.lambda_minus, model.lambda_plus
    center, radius = 0.5 * (lp + lm), 0.5 * (lp - lm)

    def integrand(theta):
        x = center + radius * np.cos(theta)
        if which == "p_tilde":
            return f(x) * -np.cos(theta) / (math.sqrt(c) * np.pi)
        t = (1.0 - c - x + 1j * radius * np.sin(theta)) / (2.0 * c * x)
        return f(x) * c * np.real(t * (1.0 + x * t) / (1.0 + c * t)) / np.pi

    return integrand


def _quad_theta(model, f, which, limit=400):
    # quad on the scalar integrand over theta in [0, pi]
    integrand = _theta_integrand(model, f, which)
    v, _ = integrate.quad(lambda theta: float(integrand(theta)), 0.0, np.pi, limit=limit,
                          epsabs=1e-12, epsrel=1e-12)
    return v


_INVERSION_FUNCTIONS = st.one_of(
    st.sampled_from([spectral_function("square_centered"), spectral_function("log"),
                     SpectralFunction.from_callable(lambda x: np.abs(x - 1.0), label="|x-1|")]),
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(SpectralFunction.polynomial),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.95), _INVERSION_FUNCTIONS, st.sampled_from(rmt.TRANSFORM_NAMES))
def test_inversion_matches_quad(c, f, which):
    model = MPModel(c)
    value = distribution_action(which, model, f, method="inversion")
    expected = _quad_theta(model, f, which)
    assert abs(value - expected) <= 1e-10 * (1.0 + abs(expected))


def test_mp_integral_matches_quad():
    for c in (0.05, 0.2, 0.5, 0.8, 0.95):
        m = MPModel(c)
        lm, lp = m.lambda_minus, m.lambda_plus
        center, radius = 0.5 * (lp + lm), 0.5 * (lp - lm)
        scale = radius * radius / (2.0 * np.pi * c)
        for name in ("square_centered", "log"):
            f = spectral_function(name)

            def integrand(t):
                lam = center + radius * math.sin(t)
                return f(lam) * scale * math.cos(t) ** 2 / lam

            expected, _ = integrate.quad(integrand, -np.pi / 2.0, np.pi / 2.0,
                                         epsabs=1e-10, epsrel=1e-10, limit=200)
            assert abs(mp_integral(m, f) - expected) <= 1e-13


@pytest.mark.parametrize("fn, a, b", [
    (np.exp, 0.0, 1.0),
    (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 2.0),
    (lambda x: np.sin(40.0 * x), -1.0, 3.0),
    (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0),
])
def test_single_rule_matches_quadpack(fn, a, b):
    # with one interval allowed, quad returns QUADPACK's qk21 value and error
    # estimate on [a, b]; the integrator's first pass must reproduce both
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        expected, expected_err = integrate.quad(lambda x: float(fn(x)), a, b, limit=1)
    value, err = rmt._gauss_kronrod(fn, [a, b], 0.0, 0.0, 1)
    assert value == pytest.approx(expected, rel=1e-14, abs=1e-15)
    assert err == pytest.approx(expected_err, rel=1e-12)


def test_integrator_refines_to_its_tolerance():
    # the worst interval is always bisected: a sharp peak converges within
    # the interval limit, and an exhausted limit returns its error estimate
    value, err = rmt._gauss_kronrod(lambda x: 1.0 / (1e-6 + x * x), [-1.0, 1.0], 1e-10, 1e-10, 200)
    exact = 2.0 * math.atan(1e3) / 1e-3
    assert err <= 1e-10 * exact and abs(value - exact) <= 1e-9 * exact
    value, err = rmt._gauss_kronrod(lambda x: np.sin(2000.0 * x), [0.0, 3.0], 1e-10, 1e-10, 10)
    assert err > 1e-7


def test_non_finite_integrand_fails_loudly():
    with pytest.raises(NumericalFailureError, match="not finite"):
        rmt._gauss_kronrod(lambda x: np.where(x > 0.7, np.nan, x), [0.0, 1.0], 1e-10, 1e-10, 200)
    with pytest.raises(NumericalFailureError, match="not finite"):
        mp_integral(MPModel(0.5), SpectralFunction.from_callable(lambda x: np.where(x > 2.0, np.inf, x)))
    bad = SpectralFunction.from_callable(lambda x: np.where(np.abs(x - 1.0) < 0.2, np.nan, x), label="hole")
    with pytest.raises(NumericalFailureError, match="not finite"):
        distribution_action("p", MPModel(0.5), bad, method="inversion")


def test_library_does_not_import_scipy(tmp_path):
    # nor the thread pool's modules: a single-threaded run never starts a
    # pool, and a fresh interpreter should not pay for importing one
    code = ("import sys, coherlss.cli\n"
            f"assert coherlss.cli.run(['validate', '--quick', '--out-dir', {str(tmp_path)!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
            "pool = [m for m in ('concurrent.futures', 'logging', 'queue') if m in sys.modules]\n"
            "assert not pool, pool\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(coherlss.__file__).parents[1]))
    env.pop("COHERLSS_THREADS", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
