"""Model specs, exact spectra, and panel simulation."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

import coherlss
from coherlss import (
    InvalidArgumentError,
    ModelSpec,
    TimeSeriesPanel,
    autocovariance,
    simulate_panel,
    spectral_density,
    spectral_density_derivative,
)
from coherlss import signal
from coherlss.signal import _complex_normal


def _row_rng(seed, row):
    """The stream of one panel row: a fresh Philox keyed on (seed, row)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, row], dtype=np.uint64)))


def test_model_validation():
    with pytest.raises(InvalidArgumentError):
        ModelSpec("garch")
    with pytest.raises(InvalidArgumentError):
        ModelSpec.ar1(1.0)
    with pytest.raises(InvalidArgumentError):
        ModelSpec.ar1(-1.2)
    with pytest.raises(InvalidArgumentError):
        ModelSpec.ar1(0.3 + 0.1j)
    assert ModelSpec.ar1(0.0).is_white
    assert ModelSpec.white_noise().is_white
    assert not ModelSpec.ar1(0.4).is_white


def test_spectral_density_white_is_one():
    model = ModelSpec.white_noise()
    nus = np.linspace(-1.0, 2.0, 17)
    assert spectral_density(model, 0.3) == 1.0
    np.testing.assert_allclose(spectral_density(model, nus), np.ones_like(nus))
    np.testing.assert_allclose(spectral_density_derivative(model, nus), 0.0)


def test_spectral_density_matches_autocovariance_series():
    # s(nu) = sum_u r_u e^{-2 i pi u nu}; the tail beyond |u|=80 is < 1e-30
    model = ModelSpec.ar1(0.4)
    for nu in (0.0, 0.1, 0.25, 0.37, 0.5, 0.93):
        acc = autocovariance(model, 0)
        for u in range(1, 81):
            r = autocovariance(model, u)
            acc += 2.0 * r * np.cos(2.0 * np.pi * u * nu)
        assert abs(spectral_density(model, nu) - acc) < 1e-12


def test_spectral_density_closed_form_values():
    model = ModelSpec.ar1(0.4)
    # at nu = 0: 1/(1-theta)^2; at nu = 1/2: 1/(1+theta)^2
    assert abs(spectral_density(model, 0.0) - 1.0 / 0.36) < 1e-14
    assert abs(spectral_density(model, 0.5) - 1.0 / 1.96) < 1e-14
    assert abs(spectral_density(model, 0.2) - spectral_density(model, 1.2)) < 1e-12


def test_spectral_density_derivative_finite_difference():
    model = ModelSpec.ar1(0.4)
    h = 1e-6
    for nu in (0.07, 0.2, 0.33, 0.48, 0.61):
        fd = (spectral_density(model, nu + h) - spectral_density(model, nu - h)) / (2 * h)
        closed = spectral_density_derivative(model, nu)
        assert abs(closed - fd) <= 1e-5 * max(1.0, abs(closed))
    assert spectral_density_derivative(model, 0.0) == 0.0
    assert abs(spectral_density_derivative(model, 0.5)) < 1e-12


def test_autocovariance_values():
    white = ModelSpec.white_noise()
    assert autocovariance(white, 0) == 1.0
    assert autocovariance(white, 3) == 0.0
    model = ModelSpec.ar1(0.4)
    assert abs(autocovariance(model, 0) - 1.0 / 0.84) < 1e-15
    assert abs(autocovariance(model, 3) - 0.4 ** 3 / 0.84) < 1e-15
    assert autocovariance(model, -3) == autocovariance(model, 3)
    # a negative lag, numpy integers included, reads r_|u|
    assert autocovariance(model, np.int64(-3)) == autocovariance(model, 3)
    assert autocovariance(white, -3) == 0.0 and autocovariance(white, np.int64(0)) == 1.0


def test_simulate_panel_deterministic():
    model = ModelSpec.ar1(0.4)
    a = simulate_panel(model, 4, 64, seed=123)
    b = simulate_panel(model, 4, 64, seed=123)
    c = simulate_panel(model, 4, 64, seed=124)
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.M == 4 and a.N == 64


def test_simulate_panel_rows_keyed_independently():
    # row m depends only on (seed, m): growing M must not change earlier rows
    model = ModelSpec.white_noise()
    small = simulate_panel(model, 2, 32, seed=9)
    large = simulate_panel(model, 5, 32, seed=9)
    np.testing.assert_array_equal(small.data, large.data[:2])


def test_ar1_theta_zero_equals_white_noise():
    a = simulate_panel(ModelSpec.ar1(0.0), 3, 50, seed=5)
    b = simulate_panel(ModelSpec.white_noise(), 3, 50, seed=5)
    np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("theta", [0.4, 0.9, -0.7])
@pytest.mark.parametrize("shape", [(16, 300), (1, 64), (5, 1)])
def test_ar1_panel_matches_lfilter_oracle(theta, shape):
    # the AR(1) recursion is the all-pole filter 1 / (1 - theta q^-1) with
    # state theta y_0, on the same per-row draws: equal bit for bit
    M, N = shape
    for seed in (0, 7, 2 ** 64 - 1):
        expected = np.empty((M, N), dtype=np.complex128)
        for m in range(M):
            rng = _row_rng(seed, m)
            y0 = _complex_normal(rng, 1, 1.0 / (1.0 - theta ** 2))[0]
            eps = _complex_normal(rng, N, 1.0)
            expected[m], _ = lfilter([1.0], [1.0, -theta], eps, zi=np.array([theta * y0]))
        np.testing.assert_array_equal(simulate_panel(ModelSpec.ar1(theta), M, N, seed).data, expected)


@pytest.mark.parametrize("theta", [0.0, 0.4])
def test_rows_draw_fresh_philox_streams(theta, monkeypatch):
    # the panel resets one Philox to each row's key; every draw of a row,
    # the AR(1) y0 included, equals the draw from a fresh per-row Philox.
    # Only y0 passes through _complex_normal: the innovations are drawn
    # straight into the panel (the AR(1) rows are pinned to those draws by
    # test_ar1_panel_matches_lfilter_oracle)
    draws = []

    def recording(rng, n, variance):
        z = _complex_normal(rng, n, variance)
        draws.append((n, variance, z.copy()))
        return z

    monkeypatch.setattr(signal, "_complex_normal", recording)
    model = ModelSpec.white_noise() if theta == 0.0 else ModelSpec.ar1(theta)
    M, N = 9, 17  # rows end with the Philox buffer part-used
    for seed in (0, 7, 2 ** 64 - 1):
        draws.clear()
        data = simulate_panel(model, M, N, seed).data
        per_row = 0 if theta == 0.0 else 1
        assert len(draws) == per_row * M
        for m in range(M):
            rng = _row_rng(seed, m)
            for n, variance, z in draws[per_row * m: per_row * (m + 1)]:
                assert np.array_equal(z, _complex_normal(rng, n, variance))
            if theta == 0.0:
                assert np.array_equal(data[m], _complex_normal(rng, N, 1.0))
    # a reset also clears a buffered 32-bit half and a part-used buffer
    bit_generator = np.random.Philox(5)
    rng = np.random.Generator(bit_generator)
    rng.integers(0, 10, size=3, dtype=np.uint32)
    rng.standard_normal(3)
    signal._row_stream(bit_generator, 7, 2)
    assert np.array_equal(rng.standard_normal(11), _row_rng(7, 2).standard_normal(11))


def _paired_normals(rng, n, variance):
    """The draws as first written: even and odd normals paired, then scaled."""
    g = rng.standard_normal(2 * n)
    return math.sqrt(variance / 2.0) * (g[0::2] + 1j * g[1::2])


def _same_bits(a, b):
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag))


def test_complex_normal_matches_paired_oracle():
    # viewing the 2n normals as n complex values and scaling them in place
    # gives the bits of pairing them and scaling the sum
    for seed in range(300):
        for variance in (1.0, 0.5, 1.0 / (1.0 - 0.4 ** 2), 3.7):
            got = _complex_normal(_row_rng(seed, seed % 5), 33, variance)
            assert _same_bits(got, _paired_normals(_row_rng(seed, seed % 5), 33, variance))


@pytest.mark.parametrize("theta", [0.0, 0.4, -0.7])
def test_panel_matches_paired_oracle(theta):
    # the panel as built from the paired draws: white rows are the draws,
    # AR(1) rows filter them from the stationary start
    M, N = 6, 129
    for seed in (0, 7, 2 ** 64 - 1):
        expected = np.empty((M, N), dtype=np.complex128)
        for m in range(M):
            rng = _row_rng(seed, m)
            if theta == 0.0:
                expected[m] = _paired_normals(rng, N, 1.0)
                continue
            y0 = _paired_normals(rng, 1, 1.0 / (1.0 - theta ** 2))[0]
            eps = _paired_normals(rng, N, 1.0)
            expected[m], _ = lfilter([1.0], [1.0, -theta], eps, zi=np.array([theta * y0]))
        model = ModelSpec.white_noise() if theta == 0.0 else ModelSpec.ar1(theta)
        assert _same_bits(simulate_panel(model, M, N, seed).data, expected)


def test_simulation_does_not_import_scipy_signal():
    code = ("import sys, coherlss\n"
            "coherlss.simulate_panel(coherlss.ModelSpec.ar1(0.4), 2, 16, seed=0)\n"
            "assert 'scipy.signal' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(coherlss.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_white_noise_moments():
    panel = simulate_panel(ModelSpec.white_noise(), 8, 4096, seed=2)
    y = panel.data
    # unit complex variance, split evenly between parts, mean zero
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.02
    assert abs(np.var(y.real) - 0.5) < 0.02
    assert abs(np.var(y.imag) - 0.5) < 0.02
    assert abs(np.mean(y)) < 0.02
    # circularity: E[y^2] = 0 (not just E|y|^2 = 1)
    assert abs(np.mean(y ** 2)) < 0.02


def test_ar1_panel_matches_model_autocovariance():
    theta = 0.4
    model = ModelSpec.ar1(theta)
    panel = simulate_panel(model, 16, 8192, seed=31)
    y = panel.data
    r0 = np.mean(np.abs(y) ** 2)
    r1 = np.mean(y[:, 1:] * np.conj(y[:, :-1]))
    r2 = np.mean(y[:, 2:] * np.conj(y[:, :-2]))
    assert abs(r0 - autocovariance(model, 0)) < 0.03
    assert abs(r1 - autocovariance(model, 1)) < 0.03
    assert abs(r2 - autocovariance(model, 2)) < 0.03
    # stationary start: the first sample already has the stationary variance
    first = np.abs(simulate_panel(model, 4096, 1, seed=8).data[:, 0]) ** 2
    assert abs(np.mean(first) - 1.0 / (1.0 - theta ** 2)) < 0.05


def test_seed_validation():
    model = ModelSpec.white_noise()
    with pytest.raises(InvalidArgumentError):
        simulate_panel(model, 2, 8, seed=-1)
    with pytest.raises(InvalidArgumentError):
        simulate_panel(model, 2, 8, seed=2 ** 64)
    with pytest.raises(InvalidArgumentError):
        simulate_panel(model, 2, 8, seed=1.5)
    simulate_panel(model, 2, 8, seed=2 ** 64 - 1)


def test_panel_validation():
    with pytest.raises(InvalidArgumentError):
        TimeSeriesPanel(np.zeros((0, 4)), ModelSpec.white_noise(), 0)
    with pytest.raises(InvalidArgumentError):
        TimeSeriesPanel(np.zeros(4), ModelSpec.white_noise(), 0)
    with pytest.raises(InvalidArgumentError):
        simulate_panel(ModelSpec.white_noise(), 0, 4, seed=0)


@pytest.mark.parametrize("bad", [2.5, 16.0, "16", True, False, None])
def test_bad_sizes_are_invalid_argument(bad):
    # M, N and the span B are integers, and a bool is not one: False is not
    # B = 0, and a float or str size is an InvalidArgumentError, not a raw
    # TypeError from numpy
    model = ModelSpec.white_noise()
    with pytest.raises(InvalidArgumentError, match="M must be"):
        simulate_panel(model, bad, 16, seed=0)
    with pytest.raises(InvalidArgumentError, match="N must be"):
        simulate_panel(model, 4, bad, seed=0)
    with pytest.raises(InvalidArgumentError, match="smoothing span"):
        coherlss.smoothed_periodogram(simulate_panel(model, 4, 16, seed=0), 0.25, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_panel_rejects_non_finite_data(bad):
    # caught here, a NaN cannot reach the eigensolver as a raw LinAlgError
    data = np.ones((3, 8), dtype=np.complex128)
    data[1, 4] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        TimeSeriesPanel(data, ModelSpec.white_noise(), 0)
