"""DFTs, smoothed periodograms, coherency normalization, lag windows."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherlss import (
    DegenerateSpectrumError,
    InvalidArgumentError,
    ModelSpec,
    NumericalFailureError,
    SpectralMatrix,
    TimeSeriesPanel,
    coherency_matrix,
    dft_grid,
    simulate_panel,
    smoothed_periodogram,
)
from coherlss.lss import LssConfig
from coherlss.spectral import _walk, lag_covariances, lag_window_grid


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
                                  (257, 100), (520, 130), (1063, 256), (2048, 256),
                                  (257, 200), (520, 258), (1063, 512)])
def test_block_sum_matches_direct_window(N, B):
    # windows that wrap past 0 and N-1, N not a multiple of the block width,
    # and B+1 = N; the grid walk (Grams reused across windows) and the
    # single-window form both match the oracle. The last three cases, with
    # beta = (B+1)//8 = 25, 32 and 64 and B+1 = 8 beta + 1 or + 3, take a
    # block Gram minus its uncovered columns at both ends of one window,
    # split a block exactly in half (beta = 32 and 64, and the last block
    # [512, 520) of 8 columns), and subtract from the short last block
    # [N//beta * beta, N) (257 = 10 * 25 + 7, 520 = 16 * 32 + 8,
    # 1063 = 16 * 64 + 39); (257, 100), (520, 130) and (1063, 256) did the
    # same at the wider block of (B+1)//4 and still take every one of these
    # cuts at beta = 12, 16 and 32. The cut of a window, cached for every
    # panel, is read-only.
    from coherlss.spectral import _walk, _window_cut

    panel = simulate_panel(ModelSpec.ar1(0.4), 5, N, seed=N + B)
    table = dft_grid(panel)
    ks = [0, 1, N - 1] + list(range(2, N - 1, 3)) + [N - 2, 0]
    for i, walked in _walk(panel, B, [k / N for k in ks]):
        k = ks[i]
        expected = _direct_periodogram(table, k, B)
        for got in (walked, smoothed_periodogram(panel, k / N, B).values):
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        _, columns, coef = _window_cut(k, B, N)
        assert not columns.flags.writeable and not coef.flags.writeable


@pytest.mark.parametrize("stride", [4, 1])
def test_grid_walk_ragged_products_are_short(stride, monkeypatch):
    # the desk shape (beta = 32): beyond the block Grams a window makes at
    # most one product, signed over the added and the subtracted columns,
    # and it covers no more than floor(beta/2) columns of either ragged end,
    # since an end covering more than half its block is taken as the
    # block's Gram minus the uncovered columns
    from coherlss import spectral

    N, B, M = 2048, 256, 8
    beta = spectral._block_width(B)
    panel = simulate_panel(ModelSpec.ar1(0.4), M, N, seed=4)
    table = dft_grid(panel)
    column = {table[:, j].tobytes(): j for j in range(N)}
    products = []
    gram = spectral._gram

    def recording(w, coef=None):
        products.append(sorted(column[w[:, i].tobytes()] for i in range(w.shape[1])))
        return gram(w, coef)

    monkeypatch.setattr(spectral, "_gram", recording)
    walk = spectral._walk(panel, B, [k / N for k in range(0, N, stride)])
    with_ragged = 0
    for k in range(0, N, stride):
        products.clear()
        next(walk)
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


def test_walk_orders_by_grid_offset_and_keeps_every_bit():
    # on a shuffled interleaved lattice the walk yields every index once, the
    # grid offsets rho in ascending groups and the given order within a
    # group, and each S is the one a walk of that frequency alone yields
    from coherlss.spectral import _split, _walk

    N, B = 256, 32
    panel = simulate_panel(ModelSpec.ar1(0.4), 6, N, seed=7)
    nus = [(k + j / 4) / N for k in range(40, 60) for j in range(4)] + [0.1234567]
    np.random.default_rng(5).shuffle(nus)
    walked = list(_walk(panel, B, nus))
    order = [i for i, _ in walked]
    assert sorted(order) == list(range(len(nus)))
    rhos = [_split(nus[i], N)[1] for i in order]
    assert len(set(rhos)) == 5 and rhos == sorted(rhos)
    for rho in set(rhos):
        group = [i for i in order if _split(nus[i], N)[1] == rho]
        assert group == sorted(group)
    for i, s in walked:
        alone = next(_walk(panel, B, [nus[i]]))
        assert alone[0] == 0 and alone[1].tobytes() == s.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-2 ** 20, 2 ** 20),
       st.one_of(st.integers(0, 12).map(lambda e: 2 ** e), st.integers(1, 5000)),
       st.integers(1, 63), st.integers(-500, 500))
def test_split_is_exact_periodic_and_snaps_to_the_grid(k, N, j, drift):
    # nu N = k + rho with a dyadic rho = j/64: the split is k mod N and
    # nu - k/N rounded once, which is rho/N to the rounding of nu itself
    from coherlss.spectral import _split

    rho = j / 64
    nu = (k + rho) / N
    assert _split(nu, N) == (k % N, float(Fraction(nu) - Fraction(k, N)))
    assert abs(_split(nu, N)[1] - rho / N) <= 2.0 ** -52 * (abs(k) + 1) / N
    if N & (N - 1) == 0:
        # nu, nu + 1 and nu - 3 are exact floats, and so is rho/N
        assert _split(nu, N) == _split(nu + 1, N) == _split(nu - 3, N) == (k % N, rho / N)
    # within the 1e-9 tolerance of the grid point k/N, nu is on the grid
    near = (k + drift * 1.9e-12 * max(1, abs(k))) / N
    assert _split(near, N) == (k % N, 0.0)


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
    # the tags are checked, not coerced: B = 2.5 is not stored as 2
    for nu, B in ((None, 2), (float("nan"), 2), (float("inf"), 2), (True, 2), ("0.1", 2),
                  (0.1, 2.5), (0.1, True), (0.1, 3), (0.1, -2), (0.1, None)):
        with pytest.raises(InvalidArgumentError):
            SpectralMatrix(good, nu, B, "coherency")
    tagged = SpectralMatrix(good, np.float32(0.5), np.int64(2), "coherency")
    assert (type(tagged.nu), type(tagged.B)) == (float, int)


@pytest.mark.parametrize("width", [np.float16, np.float32, np.float64, np.longdouble])
def test_numpy_float_frequencies_do_not_warn(width):
    # a numpy float of any width is a frequency, taken as the Python float it
    # holds; comparing it with the largest double must not overflow its type
    panel = simulate_panel(ModelSpec.ar1(0.4), 4, 16, seed=0)
    S = smoothed_periodogram(panel, width(0.25), 4)
    assert S.nu == 0.25 and type(S.nu) is float
    assert S.values.tobytes() == smoothed_periodogram(panel, 0.25, 4).values.tobytes()
    assert LssConfig(N=64, B=16, M=8, grid=(width(0.25),)).grid == (0.25,)


def test_biased_autocovariance_hand_values():
    y = np.array([1.0, 2.0j])
    # (1/2) * y_1 * conj(y_0) = j
    assert _biased_autocovariance(y, 1) == 1.0j
    assert _biased_autocovariance(y, 0) == complex(np.mean(np.abs(y) ** 2))
    assert _biased_autocovariance(y, 5) == 0.0
    assert lag_covariances(y, 1).tolist() == [[complex(np.mean(np.abs(y) ** 2)), 1.0j]]
    # negative lags follow by conjugation; lags beyond the series are rejected
    # so is a lag count that is not an integer: a bool is not L = 1
    for L in (-1, 2, 1.0, True, np.bool_(True), None, "1"):
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


def test_overflow_in_the_walk_is_named():
    # a panel is finite by construction, so a non-finite S means that its
    # DFT or S overflowed; numpy's own overflow warnings escape the walk
    panel = TimeSeriesPanel(np.full((4, 64), 1e307 + 0j), ModelSpec(), 0)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NumericalFailureError, match="DFT or S overflowed"):
        smoothed_periodogram(panel, 0.0, 8)


def test_ar1_periodogram_has_its_exact_moments():
    # Before normalization the first two moments of S are exact under
    # AR(1). Window k's DFT columns X have covariance G = F R F^H, with R
    # the Toeplitz covariance r_u = theta^|u| / (1 - theta^2) and F the
    # (B+1) x N orthonormal DFT rows. So E S_ii = tr G / (B+1), and for
    # i != j the rows are independent circular complex Gaussian, so
    # E|S_ij|^2 = ||G||_F^2 / (B+1)^2 (Isserlis). Unlike the coherency
    # statistic, these see a wrong innovation variance or a wrong theta.
    # The 23 windows (k = 5 + 11j) are disjoint and the 1000 seeds fixed.
    # |z| < 4 bounds each frequency-averaged ratio; a theta error moves
    # the spectrum up on one side and down on the other, so the averaged
    # z misses it and the per-frequency sum of z^2 is bounded by the
    # 99.99% point of chi^2 with 23 degrees of freedom.
    M, N, B, theta, seeds = 8, 256, 10, 0.4, 1000
    ks = [5 + 11 * j for j in range(23)]
    n = np.arange(N)
    lags = n[:, None] - n[None, :]
    R = theta ** np.abs(lags) / (1.0 - theta * theta)
    diag_exact, off_exact = [], []
    for k in ks:
        F = np.exp(-2j * np.pi * np.outer(k + np.arange(-B // 2, B // 2 + 1), n) / N) / np.sqrt(N)
        G = F @ R @ F.conj().T
        diag_exact.append(np.trace(G).real / (B + 1))
        off_exact.append(np.sum(np.abs(G) ** 2) / (B + 1) ** 2)
    off = ~np.eye(M, dtype=bool)
    diag = np.empty((seeds, len(ks)))
    cross = np.empty((seeds, len(ks)))
    model = ModelSpec.ar1(theta)
    for seed in range(seeds):
        # the walk gives each frequency the bits of smoothed_periodogram's S
        for j, S in _walk(simulate_panel(model, M, N, seed), B, [k / N for k in ks]):
            diag[seed, j] = S.diagonal().real.mean()
            cross[seed, j] = np.mean(np.abs(S[off]) ** 2)
    for values, exact in ((diag, diag_exact), (cross, off_exact)):
        ratios = values / np.array(exact)
        z = (ratios.mean(axis=0) - 1.0) / (ratios.std(axis=0, ddof=1) / np.sqrt(seeds))
        assert np.sum(z ** 2) < 57.07, z
        averaged = ratios.mean(axis=1)
        z_averaged = (averaged.mean() - 1.0) / (averaged.std(ddof=1) / np.sqrt(seeds))
        assert abs(z_averaged) < 4.0, z_averaged
