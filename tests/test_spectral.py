"""DFTs, smoothed periodograms, coherency normalization, lag windows."""

import numpy as np
import pytest

from coherlss import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    ModelSpec,
    SpectralMatrix,
    TimeSeriesPanel,
    coherency_matrix,
    dft_grid,
    simulate_panel,
    smoothed_periodogram,
)
from coherlss.spectral import lag_covariances, lag_window_grid


def _panel_from(data, seed=0):
    return TimeSeriesPanel(np.asarray(data, dtype=np.complex128), ModelSpec.white_noise(), seed)


def _renormalized_dft(y, nu):
    """Reference xi(nu) = N**-0.5 * sum_{n=1}^{N} y_n e^{-2 i pi (n-1) nu}."""
    y = np.asarray(y, dtype=np.complex128)
    return complex(np.sum(y * np.exp(-2j * np.pi * float(nu) * np.arange(y.size))) / np.sqrt(y.size))


def _biased_autocovariance(y, l):
    """Reference (1/N) sum_{n=1}^{N-l} y_{n+l} conj(y_n), zero when l >= N."""
    y = np.asarray(y, dtype=np.complex128)
    n = y.size
    return complex(np.vdot(y[: n - l], y[l:]) / n) if l < n else 0.0j


def test_renormalized_dft_direct_formula():
    # the direct-sum DFT of an off-grid frequency: with B = 0 the smoothed
    # periodogram is the outer product xi xi^H, and it is 1-periodic in nu
    rng = np.random.default_rng(41)
    data = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    panel = _panel_from(data)
    for nu in (0.1234, 0.3, 0.875 + 1e-3):
        direct = [sum(y[n] * np.exp(-2j * np.pi * n * nu) for n in range(16)) / 4.0 for y in data]
        assert max(abs(_renormalized_dft(y, nu) - d) for y, d in zip(data, direct)) < 1e-12
        S = smoothed_periodogram(panel, nu, B=0).values
        np.testing.assert_allclose(S, np.outer(direct, np.conj(direct)), rtol=0, atol=1e-12)
    # the frequency is reduced mod 1 exactly, so a dyadic nu and its integer
    # shifts give the same bits
    nu = 63 / 512
    S = smoothed_periodogram(panel, nu, B=0).values
    for shifted in (nu - 3, nu + 1, nu + 7):
        assert np.array_equal(smoothed_periodogram(panel, shifted, B=0).values, S)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("N, B", [(2048, 256), (1063, 96), (257, 8), (64, 0)])
def test_off_grid_periodogram_matches_extended_precision_oracle(N, B):
    # S off the grid against W W^H / (B+1) in extended precision, whose
    # phase n (nu + b/N) is reduced mod 1 before the exponential: n nu is
    # exact in long double and n b is reduced mod N in integers
    panel = simulate_panel(ModelSpec.ar1(0.4), 4, N, seed=N + B)
    y = panel.data.astype(np.clongdouble)
    n = np.arange(N)
    b = np.arange(-(B // 2), B // 2 + 1)
    two_pi = 8 * np.arctan(np.longdouble(1))
    for nu in (0.1234567, 0.7 + 0.3 / N, -0.4321, 3.999):
        t = n.astype(np.longdouble) * np.longdouble(nu)
        t = (t - np.floor(t))[:, None] + np.mod(np.outer(n, b), N) / np.longdouble(N)
        t -= np.floor(t)
        w = y @ (np.cos(two_pi * t) - 1j * np.sin(two_pi * t)) / np.sqrt(np.longdouble(N))
        expected = w @ w.conj().T / (B + 1)
        got = smoothed_periodogram(panel, nu, B).values
        error = np.linalg.norm((got - expected).astype(np.complex128))
        assert error <= 2e-15 * np.linalg.norm(expected.astype(np.complex128)), nu


def test_dft_grid_matches_pointwise():
    panel = simulate_panel(ModelSpec.ar1(0.4), 3, 32, seed=7)
    table = dft_grid(panel)
    for m in range(3):
        for k in (0, 1, 7, 31):
            assert abs(table[m, k] - _renormalized_dft(panel.data[m], k / 32)) < 1e-10


def test_smoothed_periodogram_on_grid_equals_direct_path():
    panel = simulate_panel(ModelSpec.ar1(0.4), 4, 64, seed=3)
    on = smoothed_periodogram(panel, 8 / 64, B=4)
    # a frequency just off the grid beyond the snap tolerance
    off = smoothed_periodogram(panel, 8 / 64 + 1e-7, B=4)
    assert np.max(np.abs(on.values - off.values)) < 1e-4
    shifted = smoothed_periodogram(panel, 8 / 64 + 1.0, B=4)
    np.testing.assert_allclose(shifted.values, on.values, atol=1e-10)


def test_smoothed_periodogram_psd_hermitian():
    panel = simulate_panel(ModelSpec.ar1(0.4), 6, 128, seed=11)
    for nu in (0.0, 0.13, 0.5):
        S = smoothed_periodogram(panel, nu, B=8)
        vals = S.values
        np.testing.assert_allclose(vals, vals.conj().T, atol=1e-14)
        eigs = np.linalg.eigvalsh(vals)
        assert eigs[0] > -1e-12


def test_smoothed_periodogram_b_zero_rank_one():
    panel = simulate_panel(ModelSpec.white_noise(), 5, 64, seed=2)
    S = smoothed_periodogram(panel, 0.25, B=0)
    eigs = np.linalg.eigvalsh(S.values)
    assert np.sum(eigs > 1e-10) == 1


def test_smoothed_periodogram_rejects_odd_span():
    panel = simulate_panel(ModelSpec.white_noise(), 2, 32, seed=0)
    with pytest.raises(InvalidArgumentError):
        smoothed_periodogram(panel, 0.1, B=3)
    with pytest.raises(InvalidArgumentError):
        smoothed_periodogram(panel, 0.1, B=-2)


def test_smoothed_periodogram_rejects_window_longer_than_panel():
    # B+1 > N would take some DFT column twice; B+1 = N takes each once
    panel = simulate_panel(ModelSpec.white_noise(), 2, 32, seed=0)
    for nu in (0.25, 0.1234):
        with pytest.raises(InvalidArgumentError):
            smoothed_periodogram(panel, nu, B=32)
        smoothed_periodogram(panel, nu, B=30)


def _direct_periodogram(table, k, B):
    """Oracle W W^H / (B+1) from one gather of the window's B+1 columns."""
    w = table[:, (k + np.arange(-(B // 2), B // 2 + 1)) % table.shape[1]]
    return w @ w.conj().T / (B + 1)


@pytest.mark.parametrize("N, B", [(257, 0), (257, 2), (257, 8), (257, 96), (1063, 96),
                                  (1063, 8), (65, 64), (256, 96),
                                  (257, 100), (520, 130), (1063, 256), (2048, 256)])
def test_block_sum_matches_direct_window(N, B):
    # windows that wrap past 0 and N-1, N not a multiple of the block width,
    # and B+1 = N; the grid walk (Grams reused across windows) and the
    # single-window form both match the oracle. The last four cases take a
    # block Gram minus its uncovered columns at both ends of one window
    # (beta = 25, 32 and 64 with B+1 = 4 beta + 1 or + 3), split a block
    # exactly in half (beta = 32 and 64, and the last block [512, 520) of
    # 8 columns), and subtract from the short last block [N//beta * beta, N)
    # (1063 = 16 * 64 + 39, 257 = 10 * 25 + 7, 520 = 16 * 32 + 8). The cut
    # of a window, cached for every panel, is read-only.
    from coherlss.spectral import _window_cut, _Windows

    panel = simulate_panel(ModelSpec.ar1(0.4), 5, N, seed=N + B)
    table = dft_grid(panel)
    windows = _Windows(panel, B, table)
    ks = [0, 1, N - 1] + list(range(2, N - 1, 3)) + [N - 2, 0]
    for k in ks:
        expected = _direct_periodogram(table, k, B)
        for got in (windows.periodogram(k / N), smoothed_periodogram(panel, k / N, B).values):
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        _, columns, coef = _window_cut(k, B, N)
        assert not columns.flags.writeable and not coef.flags.writeable


@pytest.mark.parametrize("stride", [4, 1])
def test_grid_walk_ragged_products_are_short(stride, monkeypatch):
    # the desk shape (beta = 64): beyond the block Grams a window makes at
    # most one product, signed over the added and the subtracted columns,
    # and it covers no more than floor(beta/2) columns of either ragged end,
    # since an end covering more than half its block is taken as the
    # block's Gram minus the uncovered columns
    from coherlss import spectral

    N, B, M = 2048, 256, 8
    beta = (B + 1) // 4
    panel = simulate_panel(ModelSpec.ar1(0.4), M, N, seed=4)
    table = dft_grid(panel)
    column = {table[:, j].tobytes(): j for j in range(N)}
    products = []
    gram = spectral._gram

    def recording(w, coef=None):
        products.append(sorted(column[w[:, i].tobytes()] for i in range(w.shape[1])))
        return gram(w, coef)

    monkeypatch.setattr(spectral, "_gram", recording)
    windows = spectral._Windows(panel, B, table)
    with_ragged = 0
    for k in range(0, N, stride):
        products.clear()
        windows.periodogram(k / N)
        ragged = [cols for cols in products
                  if cols != list(range(cols[0] - cols[0] % beta, min(N, cols[0] + beta)))]
        assert len(ragged) <= 1
        with_ragged += len(ragged)
        for cols in ragged:
            # no ragged end crosses a block cut, so each run of consecutive
            # columns is one end
            runs = np.split(np.array(cols), np.flatnonzero(np.diff(cols) != 1) + 1)
            assert max(len(run) for run in runs) <= beta // 2, (k, [len(r) for r in runs])
    # the ragged products pass through _gram, so the bounds above hold for them
    assert with_ragged > 0


def test_smoothed_periodogram_mean_tracks_density():
    # E S_mm(nu) ~ s(nu) up to O(B/N + 1/N) smoothing bias
    model = ModelSpec.ar1(0.4)
    panel = simulate_panel(model, 64, 2048, seed=17)
    for nu in (0.1, 0.25):
        S = smoothed_periodogram(panel, nu, B=64)
        est = float(np.mean(S.values.diagonal().real))
        s_true = 1.0 / (1.0 - 2 * 0.4 * np.cos(2 * np.pi * nu) + 0.16)
        assert abs(est - s_true) < 0.2 * s_true


def test_coherency_unit_diagonal_and_bounds():
    panel = simulate_panel(ModelSpec.ar1(0.4), 8, 256, seed=5)
    C = coherency_matrix(smoothed_periodogram(panel, 0.2, B=16))
    assert C.kind == "coherency"
    np.testing.assert_array_equal(C.values.diagonal(), np.ones(8))
    assert np.max(np.abs(C.values)) <= 1.0 + 1e-12
    eigs = np.linalg.eigvalsh(C.values)
    assert eigs[0] > -1e-12


def test_coherency_scale_invariance():
    panel = simulate_panel(ModelSpec.ar1(0.4), 6, 128, seed=23)
    scaled = _panel_from(panel.data * np.array([3.0, 0.1, 7.0, 1.0, 2.0, 5.0])[:, None])
    c1 = coherency_matrix(smoothed_periodogram(panel, 0.3, B=8)).values
    c2 = coherency_matrix(smoothed_periodogram(scaled, 0.3, B=8)).values
    np.testing.assert_allclose(c1, c2, atol=1e-12)


def test_coherency_degenerate_diagonal():
    data = np.zeros((3, 32), dtype=complex)
    data[0] = 1.0  # rows 1, 2 are identically zero
    S = smoothed_periodogram(_panel_from(data), 0.1, B=2)
    with pytest.raises(DegenerateSpectrumError):
        coherency_matrix(S)


def test_spectral_matrix_validation():
    good = np.eye(3, dtype=complex)
    SpectralMatrix(good, 0.1, 2, "coherency")
    with pytest.raises(InvalidArgumentError):
        SpectralMatrix(np.ones((2, 3)), 0.1, 2, "coherency")
    with pytest.raises(InvalidArgumentError):
        SpectralMatrix(good, 0.1, 2, "bogus")
    skew = good.copy()
    skew[0, 1] = 1.0  # not Hermitian
    with pytest.raises(InvalidArgumentError):
        SpectralMatrix(skew, 0.1, 2, "smoothed_periodogram")
    off_diag = good.copy()
    off_diag[0, 0] = 1.5
    with pytest.raises(InvalidArgumentError):
        SpectralMatrix(off_diag, 0.1, 2, "coherency")
    not_finite = good.copy()
    not_finite[0, 1] = not_finite[1, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        SpectralMatrix(not_finite, 0.1, 2, "smoothed_periodogram")


def test_biased_autocovariance_hand_values():
    y = np.array([1.0, 2.0j])
    # (1/2) * y_1 * conj(y_0) = j
    assert _biased_autocovariance(y, 1) == 1.0j
    assert _biased_autocovariance(y, 0) == complex(np.mean(np.abs(y) ** 2))
    assert _biased_autocovariance(y, 5) == 0.0
    assert lag_covariances(y, 1).tolist() == [[complex(np.mean(np.abs(y) ** 2)), 1.0j]]
    # negative lags follow by conjugation; lags beyond the series are rejected
    for L in (-1, 2):
        with pytest.raises(InvalidArgumentError):
            lag_covariances(y, L)


def test_lag_covariances_matches_scalar_version():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
    lags = lag_covariances(data, 5)
    assert lags.shape == (4, 6)
    for m in range(4):
        for l in range(6):
            assert abs(lags[m, l] - _biased_autocovariance(data[m], l)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        lag_covariances(data, 40)


def test_biased_autocovariance_expectation():
    # E r_hat_l = (1 - l/N) r_l for the biased estimator
    model = ModelSpec.ar1(0.4)
    panel = simulate_panel(model, 256, 1024, seed=13)
    lags = lag_covariances(panel.data, 2)
    n = 1024
    for l in (0, 1, 2):
        target = (1.0 - l / n) * 0.4 ** l / 0.84
        assert abs(np.mean(lags[:, l]) - target) < 0.02


def _direct_lag_window(y, L, nu):
    """Reference (s, s') at one frequency: the direct sums over l = -L..L of
    r_l e^{-2 i pi l nu} and of its nu-derivative."""
    lags = lag_covariances(y, L)[0]
    l_all = np.arange(-L, L + 1)
    r_all = np.concatenate([lags[1:][::-1].conj(), lags])
    phase = np.exp(-2j * np.pi * l_all * nu)
    s = complex(r_all @ phase)
    sp = complex((r_all * (-2j * np.pi * l_all)) @ phase)
    assert abs(s.imag) <= 1e-10 * (1.0 + abs(s.real))
    assert abs(sp.imag) <= 1e-10 * (1.0 + abs(sp.real))
    return s.real, sp.real


def test_lag_window_grid_matches_scalar_functions():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    lags = lag_covariances(data, 4)
    nus = np.array([0.0, 0.17, 0.5, 0.83])
    s, sp = lag_window_grid(lags, nus)
    assert s.shape == (3, 4) and sp.shape == (3, 4)
    for m in range(3):
        for k, nu in enumerate(nus):
            s_ref, sp_ref = _direct_lag_window(data[m], 4, nu)
            assert abs(s[m, k] - s_ref) < 1e-12
            assert abs(sp[m, k] - sp_ref) < 1e-10


def test_lag_window_derivative_finite_difference():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lags = lag_covariances(y, 6)
    h = 1e-7
    for nu in (0.1, 0.31, 0.47):
        s, sp = lag_window_grid(lags, np.array([nu - h, nu, nu + h]))
        fd = (s[0, 2] - s[0, 0]) / (2 * h)
        assert abs(sp[0, 1] - fd) < 1e-4 * max(1.0, abs(fd))


def test_lag_window_l_zero():
    y = np.array([1.0, 1.0j, -1.0, 2.0])
    r0 = float(np.mean(np.abs(y) ** 2))
    s, sp = lag_window_grid(lag_covariances(y, 0), np.array([0.3]))
    assert s[0, 0] == r0
    assert sp[0, 0] == 0.0


def test_lag_window_estimates_white_density():
    panel = simulate_panel(ModelSpec.white_noise(), 128, 4096, seed=19)
    lags = lag_covariances(panel.data, 3)
    s, sp = lag_window_grid(lags, np.array([0.2]))
    assert abs(np.mean(s[:, 0]) - 1.0) < 0.02
    assert abs(np.mean(sp[:, 0])) < 0.5


def test_validated_arrays_are_read_only():
    # a validated panel or matrix cannot be changed through the object, so
    # the eigensolver never sees data that skipped validation
    data = np.ones((3, 8), dtype=np.complex128)
    panel = TimeSeriesPanel(data, ModelSpec.white_noise(), 0)
    assert data.flags.writeable  # the caller's array keeps its flags
    assert np.shares_memory(panel.data, data)  # and is not copied
    with pytest.raises(ValueError, match="read-only"):
        panel.data[1, 4] = np.nan
    panel = simulate_panel(ModelSpec.ar1(0.4), 16, 256, 0)
    C = coherency_matrix(smoothed_periodogram(panel, 0.25, 48))
    with pytest.raises(ValueError, match="read-only"):
        C.values[0, 1] = 2.0
