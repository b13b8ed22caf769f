"""Linear spectral statistics: configs, correction terms, psi assembly."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherlss import (
    ConfigError,
    DegenerateEstimateError,
    DegenerateSpectrumError,
    DomainError,
    InvalidArgumentError,
    LssConfig,
    ModelSpec,
    NumericalFailureError,
    SpectralFunction,
    TimeSeriesPanel,
    coherency_matrix,
    default_grid,
    default_lag_window_size,
    hermitian_eigenvalues,
    psi_at,
    r_n_true,
    simulate_panel,
    smoothed_periodogram,
    sup_over_grid,
    sweep_panel,
    trace_functional,
    u_n,
    v_n,
)
from coherlss.lss import r_hat_grid


# --- public API ----------------------------------------------------------------


def test_public_names_resolve():
    # a name in __all__ that does not resolve makes "import *" raise
    import coherlss

    assert len(coherlss.__all__) == len(set(coherlss.__all__))
    namespace = {}
    exec("from coherlss import *", namespace)
    assert set(coherlss.__all__) <= set(namespace)


# --- configuration -----------------------------------------------------------


def test_config_defaults():
    cfg = LssConfig(N=2048, B=256, M=128)
    assert cfg.alpha == pytest.approx(math.log(256) / math.log(2048))
    assert cfg.L == 3  # round(2048 ** (1/7))
    assert cfg.c_N == pytest.approx(128 / 257)
    assert cfg.correction_active
    assert cfg.f.label == "square_centered"
    assert len(cfg.grid) == 512


def test_default_lag_window_size():
    assert default_lag_window_size(2048) == 3
    assert default_lag_window_size(512) == 2
    assert default_lag_window_size(16384) == 4
    assert default_lag_window_size(1) == 1


def test_default_grid():
    g = default_grid(16, stride=4)
    assert g == (0.0, 0.25, 0.5, 0.75)
    assert len(default_grid(10000)) <= 512


def test_config_validation():
    LssConfig(N=2048, B=256, M=128)  # sanity: the good case
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=255, M=128)  # odd B
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=126, M=128)  # c_N >= 1
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=0)
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, alpha=0.5)  # boundary excluded
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, alpha=1.0)
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, L=2048)
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, L=0)
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, grid=())
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, grid=(0.1, float("nan")))
    # a grid entry must be a finite real number: no None, string, list,
    # complex number or bool, and no infinity or int beyond the float range
    for bad in (None, "x", "0.25", [0.1], 1 + 2j, True, np.bool_(False), float("inf"),
                -float("inf"), 10 ** 400):
        with pytest.raises(ConfigError):
            LssConfig(N=2048, B=256, M=128, grid=(0.1, bad))
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, grid=5)
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, f="cubic")
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, correction_mode="always")
    with pytest.raises(ConfigError):
        LssConfig(N=True, B=256, M=128)  # bools are not sizes
    with pytest.raises(ConfigError):
        LssConfig(N=64, B=100, M=8, alpha=0.8)  # a window of B+1 > N columns
    LssConfig(N=65, B=64, M=8, alpha=0.8)  # B+1 = N takes each column once


def test_config_large_scale_accepted():
    # constructing a configuration must not simulate anything
    cfg = LssConfig(N=10119, B=1600, M=800, L=21)
    assert cfg.c_N == pytest.approx(800 / 1601)
    assert cfg.correction_active


def test_correction_active_gate():
    # alpha = log(64)/log(512) = 2/3 exactly: the strict gate turns it off
    cfg = LssConfig(N=512, B=64, M=32)
    assert cfg.alpha == pytest.approx(2.0 / 3.0)
    assert not cfg.correction_active
    assert LssConfig(N=512, B=96, M=48).correction_active


# --- scalar correction ingredients -------------------------------------------


def test_v_n_values():
    assert v_n(0, 100) == 0.0
    assert v_n(2, 10) == pytest.approx(1.0 / 150.0, abs=1e-15)
    B, N = 100, 1000
    K = B // 2
    closed = K * (K + 1) * (2 * K + 1) / (3.0 * (B + 1) * N ** 2)
    assert v_n(B, N) == pytest.approx(closed, abs=1e-14)
    with pytest.raises(InvalidArgumentError):
        v_n(3, 100)


def test_u_n_values():
    assert u_n(100, 1000) == pytest.approx(0.021, abs=1e-12)
    assert u_n(1, 1) == pytest.approx(3.0, abs=1e-12)
    assert u_n(1600, 10119) == pytest.approx(0.0085312, abs=1e-6)
    with pytest.raises(InvalidArgumentError):
        u_n(0, 100)


@pytest.mark.parametrize("B, N", [
    (4, True), (4, 2.5), (4, 0.5), (4, 0), (True, 10), (4.0, 10), (-2, 10)])
def test_v_n_needs_integer_sizes(B, N):
    # a bool, a float or an out-of-range size is an error that says
    # "integer", not a number formed from it
    with pytest.raises(InvalidArgumentError, match="integer"):
        v_n(B, N)


@pytest.mark.parametrize("B, N", [(True, 10), (10, True), (2.5, 10), (10, 0), ("10", 10)])
def test_u_n_needs_integer_sizes(B, N):
    with pytest.raises(InvalidArgumentError, match="integer"):
        u_n(B, N)


def test_hermitian_eigenvalues_examples():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(5)), np.ones(5))
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
    )
    pauli_like = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    np.testing.assert_allclose(hermitian_eigenvalues(pauli_like), [1.0, 3.0], atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidArgumentError):
        hermitian_eigenvalues(np.ones((2, 3)))
    for bad in (np.full((2, 2), np.nan), np.diag([1.0, np.inf]),
                np.array([[1.0, np.nan], [np.nan, 1.0]]) + 0j, np.array([["a", "b"], ["b", "a"]])):
        with pytest.raises(InvalidArgumentError):
            hermitian_eigenvalues(bad)


def test_hermitian_eigenvalues_trace_identity():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (G + G.conj().T) / 2
        eigs = hermitian_eigenvalues(A)
        assert np.sum(eigs) == pytest.approx(np.trace(A).real, abs=1e-8)


def test_trace_functional_examples():
    assert trace_functional(np.eye(4), "square_centered") == pytest.approx(0.0, abs=1e-15)
    assert trace_functional(np.diag([2.0, 0.0]), _identity_f()) == pytest.approx(1.0)
    assert trace_functional(np.diag([4.0, 1.0]), "log") == pytest.approx(
        math.log(4.0) / 2.0, abs=1e-12
    )
    with pytest.raises(DomainError) as err:
        trace_functional(np.diag([2.0, 0.0]), "log")
    assert err.value.value <= 1e-12
    with pytest.raises(InvalidArgumentError):
        trace_functional(np.array([[1.0, 0.5], [0.0, 1.0]]), "square_centered")
    for f in ("log", "square_centered"):
        with pytest.raises(InvalidArgumentError):
            trace_functional(np.full((2, 2), np.nan), f)
        with pytest.raises(InvalidArgumentError):
            trace_functional(np.array([[None, 0], [0, None]]), f)


def _identity_f():
    from coherlss import SpectralFunction

    return SpectralFunction.polynomial([0.0, 1.0])


def test_r_n_true_values():
    white = ModelSpec.white_noise()
    assert r_n_true(white, 16, 0.3) == 0.0
    ar = ModelSpec.ar1(0.4)
    assert r_n_true(ar, 16, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert r_n_true(ar, 16, 0.5) == pytest.approx(0.0, abs=1e-12)
    # against a central finite difference of log s
    from coherlss import spectral_density

    h = 1e-6
    nu = 0.2
    fd = (math.log(spectral_density(ar, nu + h)) - math.log(spectral_density(ar, nu - h))) / (2 * h)
    assert r_n_true(ar, 16, nu) == pytest.approx(fd ** 2, rel=1e-5)


def _r_n_hat(panel, L, nu):
    """Reference plug-in r at one frequency: direct lag-window sums of each
    row's biased autocovariances, rows floored at 1e-6 of the largest, then
    the squared mean of s'/s."""
    n = panel.N
    l_all = np.arange(-L, L + 1)
    phase = np.exp(-2j * np.pi * l_all * nu)
    s, sp = [], []
    for y in panel.data:
        r = np.array([np.vdot(y[: n - l], y[l:]) / n for l in range(L + 1)])
        r_all = np.concatenate([r[1:][::-1].conj(), r])
        s.append((r_all @ phase).real)
        sp.append(((r_all * (-2j * np.pi * l_all)) @ phase).real)
    s, sp = np.array(s), np.array(sp)
    return float(np.mean(sp / np.maximum(s, 1e-6 * s.max())) ** 2)


def _plugin_r(panel, L, nu):
    return float(r_hat_grid(panel, L, np.array([nu]))[0][0])


def test_r_n_hat_white_noise():
    panel = simulate_panel(ModelSpec.white_noise(), 64, 8192, seed=100)
    est = _plugin_r(panel, 8, 0.3)
    assert est == pytest.approx(_r_n_hat(panel, 8, 0.3), rel=1e-12)
    assert est <= 0.05
    # each frequency sums its own lags in a fixed order: same bits on any grid
    assert r_hat_grid(panel, 8, np.array([0.1, 0.3, 0.7]))[0][1] == est


def test_r_n_hat_tracks_model():
    model = ModelSpec.ar1(0.4)
    target = r_n_true(model, 128, 0.1)
    for seed in range(10):
        panel = simulate_panel(model, 128, 16384, seed=seed)
        est = _plugin_r(panel, 4, 0.1)
        assert est == pytest.approx(_r_n_hat(panel, 4, 0.1), rel=1e-12)
        assert abs(est - target) <= 0.5 * target + 0.05


def test_r_n_hat_validation():
    # the config holds the lag-window size to 1 <= L < N, and the lag
    # covariances reject a lag beyond the series
    panel = simulate_panel(ModelSpec.white_noise(), 4, 64, seed=0)
    for L in (0, 64):
        with pytest.raises(ConfigError):
            LssConfig(N=64, B=8, M=4, L=L, correction_mode="plugin")
    with pytest.raises(InvalidArgumentError):
        r_hat_grid(panel, 64, np.array([0.2]))


def test_degenerate_lag_window_says_where():
    # a strong AR(1) with L=2: every row's density estimate is <= 0 on a
    # band of mid frequencies, so the plug-in r cannot be formed there, and
    # every plugin-mode entry point says so
    from coherlss import ExperimentConfig, frequency_sweep, split_seed, sweep_panel

    cfg = ExperimentConfig(N=512, B=96, M=48, theta=0.9, grid_stride=4,
                           correction_mode="plugin")
    message = (
        "all lag-window density estimates are nonpositive at 43 of 128 frequencies (L=2); "
        "the first is nu=0.2265625, where the largest row estimate is -5.458e-01"
    )
    with pytest.raises(DegenerateEstimateError) as err:
        frequency_sweep(cfg)
    assert str(err.value) == message
    lcfg = cfg.lss_config()
    panel = simulate_panel(cfg.model(), 48, 512, seed=split_seed(cfg.seed, 0))
    with pytest.raises(DegenerateEstimateError) as err:
        sup_over_grid(panel, lcfg)
    assert str(err.value) == message
    with pytest.raises(DegenerateEstimateError):
        psi_at(panel, lcfg, 0.2265625)
    # outside plugin mode the plug-in r is formed but never strict, so the
    # same panel still evaluates, and its records are the sweep's columns
    for mode in ("oracle", "none"):
        lcfg = dataclasses.replace(cfg.lss_config(), correction_mode=mode)
        best, _, records = sup_over_grid(panel, lcfg)
        assert len(records) == 128 and math.isfinite(best)
        assert psi_at(panel, lcfg, 0.3).mode == mode
        sweep = sweep_panel(panel, lcfg)
        r_col, psi_col = ((sweep.r_oracle, sweep.psi) if mode == "oracle"
                          else (np.zeros(128), sweep.lss_raw))
        assert [rec.r_term for rec in records] == r_col.tolist()
        assert [rec.psi for rec in records] == psi_col.tolist()
    # and outside plugin mode r-hat is NaN exactly where it cannot be formed
    r, floored = r_hat_grid(panel, 2, lcfg.grid_array, strict=False)
    assert np.count_nonzero(np.isnan(r)) == 43
    assert lcfg.grid[np.flatnonzero(np.isnan(r))[0]] == 0.2265625
    assert np.all(floored[np.isnan(r)] == 0)


def test_callable_integrals_key_on_the_function():
    # fresh callables reuse the ids of collected ones; each must still get
    # its own MP integral and phi
    from coherlss import SpectralFunction
    from coherlss.lss import mp_integral_value, phi_value

    c = 0.5
    phi_square = phi_value(c, SpectralFunction.from_callable(lambda x: x * x, analytic=True))
    for a in range(2, 32):
        f = SpectralFunction.from_callable(lambda x, a=a: a * x * x, analytic=True)
        assert mp_integral_value(c, f) == pytest.approx(a * (1.0 + c), rel=1e-8)
        assert phi_value(c, f) == pytest.approx(a * phi_square, rel=1e-8)


# --- psi ----------------------------------------------------------------------


def test_psi_identity_bits():
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="plugin")
    panel = simulate_panel(ModelSpec.ar1(0.4), 48, 512, seed=1)
    rec = psi_at(panel, cfg, 0.25)
    assert rec.psi == rec.lss_raw - rec.r_term * rec.phi * rec.v_n
    assert rec.mode == "plugin"
    assert rec.u_n == u_n(96, 512)


def test_psi_none_mode_is_raw():
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="none")
    panel = simulate_panel(ModelSpec.ar1(0.4), 48, 512, seed=1)
    rec = psi_at(panel, cfg, 0.25)
    assert rec.psi == rec.lss_raw
    assert rec.r_term == 0.0


def test_psi_oracle_white_equals_raw():
    model = ModelSpec.white_noise()
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="oracle")
    panel = simulate_panel(model, 48, 512, seed=2)
    rec = psi_at(panel, cfg, 0.25)
    assert rec.r_term == 0.0
    assert rec.psi == rec.lss_raw


def test_psi_inactive_alpha_matches_none():
    # alpha <= 2/3: oracle correction must coincide with none
    model = ModelSpec.ar1(0.4)
    cfg_o = LssConfig(N=512, B=64, M=32, correction_mode="oracle")
    cfg_n = LssConfig(N=512, B=64, M=32, correction_mode="none")
    panel = simulate_panel(model, 32, 512, seed=3)
    rec_o = psi_at(panel, cfg_o, 0.3)
    rec_n = psi_at(panel, cfg_n, 0.3)
    assert rec_o.psi == rec_n.psi == rec_o.lss_raw


def test_raw_statistic_identity_function_is_zero():
    # trace of a coherency matrix is exactly M and the MP mean is exactly 1
    from coherlss import SpectralFunction

    ident = SpectralFunction.polynomial([0.0, 1.0])
    cfg = LssConfig(N=512, B=96, M=48, f=ident, correction_mode="none")
    panel = simulate_panel(ModelSpec.ar1(0.4), 48, 512, seed=5)
    rec = psi_at(panel, cfg, 0.25)
    assert abs(rec.lss_raw) <= 1e-10


def test_statistic_scale_invariance():
    from coherlss import TimeSeriesPanel

    model = ModelSpec.ar1(0.4)
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="plugin")
    panel = simulate_panel(model, 48, 512, seed=6)
    scales = 1.0 + 9.0 * np.abs(np.sin(np.arange(48)))
    scaled = TimeSeriesPanel(panel.data * scales[:, None], model, panel.seed)
    a = psi_at(panel, cfg, 0.25)
    b = psi_at(scaled, cfg, 0.25)
    assert b.lss_raw == pytest.approx(a.lss_raw, abs=1e-9)
    assert b.psi == pytest.approx(a.psi, abs=1e-9)


def test_sup_over_grid_single_point():
    model = ModelSpec.ar1(0.4)
    cfg = LssConfig(N=512, B=96, M=48, grid=(0.25,), correction_mode="oracle")
    panel = simulate_panel(model, 48, 512, seed=7)
    val, nu, records = sup_over_grid(panel, cfg)
    rec = psi_at(panel, cfg, 0.25)
    assert nu == 0.25 and len(records) == 1
    assert val == pytest.approx(abs(rec.psi), abs=1e-12)


def test_sup_over_grid_order_invariance():
    model = ModelSpec.ar1(0.4)
    grid = (0.1, 0.2, 0.3, 0.4)
    panel = simulate_panel(model, 48, 512, seed=8)
    fwd = LssConfig(N=512, B=96, M=48, grid=grid, correction_mode="oracle")
    rev = LssConfig(N=512, B=96, M=48, grid=grid[::-1], correction_mode="oracle")
    v1, n1, _ = sup_over_grid(panel, fwd)
    v2, n2, _ = sup_over_grid(panel, rev)
    assert v1 == v2 and n1 == n2


def test_sup_over_grid_white_noise_scale():
    # median_{seeds} sup_nu |psi| stays within a few convergence-rate units
    cfg = LssConfig(N=1024, B=128, M=64, correction_mode="oracle",
                    grid=tuple(k / 64 for k in range(64)))
    model = ModelSpec.white_noise()
    sups = []
    for seed in range(10):
        panel = simulate_panel(model, 64, 1024, seed=seed)
        val, _, _ = sup_over_grid(panel, cfg)
        sups.append(val)
    assert float(np.median(sups)) <= 5.0 * u_n(128, 1024)


@pytest.mark.parametrize("mode", ["none", "oracle", "plugin"])
def test_entry_points_agree_exactly(mode):
    # psi_at, sup_over_grid, sweep_panel and frequency_sweep share one
    # evaluation path, so they give the same bits at a grid frequency
    from coherlss import ExperimentConfig, frequency_sweep, split_seed, sweep_panel

    cfg = ExperimentConfig(N=512, B=96, M=48, theta=0.4, grid_stride=16, correction_mode=mode,
                           seed=12)
    lcfg = cfg.lss_config()
    panel = simulate_panel(cfg.model(), 48, 512, seed=split_seed(cfg.seed, 0))
    sweep = sweep_panel(panel, lcfg)
    rows = frequency_sweep(cfg).records[0].rows
    _, _, records = sup_over_grid(panel, lcfg)
    assert len(records) == len(rows) == len(sweep.nu) == 32
    for k in (0, 5, 13, 21):
        nu = lcfg.grid[k]
        rec = records[k]
        assert rec.nu == sweep.nu[k] == rows[k][0] == nu
        assert rec.lss_raw == sweep.lss_raw[k] == rows[k][1]
        if mode == "none":
            # no r and no phi in the record, and psi is the raw statistic itself
            assert rec.r_term == 0.0 and math.isnan(rec.phi)
            assert rec.psi == rec.lss_raw == sweep.lss_raw[k]
        else:
            r_sweep, psi_sweep = ((sweep.r_oracle, sweep.psi) if mode == "oracle"
                                  else (sweep.r_plugin, sweep.psi_hat))
            r_col, psi_col = (3, 6) if mode == "oracle" else (4, 7)
            assert rec.r_term == r_sweep[k] == rows[k][r_col]
            assert rec.psi == psi_sweep[k] == rows[k][psi_col]
            assert rec.phi == sweep.phi
        assert rec.v_n == sweep.v_n == rows[k][2] and sweep.phi == rows[k][5]
        assert psi_at(panel, lcfg, nu) == rec


def test_none_mode_records_need_no_phi():
    # a none record is lss_raw alone, so psi_at and sup_over_grid return it
    # for log at c_N = 6/7, where the contour action of phi is under-resolved
    panel = simulate_panel(ModelSpec.ar1(0.4), 6, 96, 0)
    cfg = LssConfig(N=96, B=6, M=6, alpha=0.75, f="log", correction_mode="none")
    rec = psi_at(panel, cfg, 0.25)
    assert rec.r_term == 0.0 and rec.psi == rec.lss_raw and math.isnan(rec.phi)
    best, _, records = sup_over_grid(panel, cfg)
    assert len(records) == 96 and records[24] == rec
    assert best == max(abs(r.psi) for r in records)
    with pytest.raises(NumericalFailureError, match="under-resolved"):
        psi_at(panel, dataclasses.replace(cfg, correction_mode="oracle"), 0.25)


# the quarter lattice (k + j/4)/512 in k-major order, then a grid point:
# the grid offsets rho = 0, 1/4, 1/2, 3/4 interleave and repeat
_INTERLEAVED = tuple((k + j / 4) / 512 for k in range(200, 204) for j in range(4)) + (0.25,)


@pytest.mark.parametrize("mode, grid", [
    *(pytest.param(mode, (0.25, 0.1234567, 3 / 512, 0.7071, 0.5, 511 / 512), id=mode)
      for mode in ("none", "oracle", "plugin")),
    *(pytest.param(mode, _INTERLEAVED, id=f"interleaved-{mode}")
      for mode in ("none", "oracle", "plugin"))])
def test_mixed_grid_matches_psi_at_exactly(mode, grid):
    # on- and off-Fourier frequencies in one grid: each frequency's value,
    # and its lag-window plug-in r, comes from its own window, so psi_at
    # reproduces every record
    model = ModelSpec.ar1(0.4)
    panel = simulate_panel(model, 48, 512, seed=13)
    cfg = LssConfig(N=512, B=96, M=48, grid=grid, correction_mode=mode)
    _, _, records = sup_over_grid(panel, cfg)
    for k, nu in enumerate(grid):
        assert psi_at(panel, cfg, nu) == records[k]


def test_grid_walk_builds_one_table_per_grid_offset(monkeypatch):
    # spectral._walk visits the frequencies one grid offset rho at a time, so
    # the interleaved lattice builds four FFT tables, one per distinct rho and
    # the rho = 0 one through dft_grid, and every value is psi_at's
    from coherlss import spectral

    panel = simulate_panel(ModelSpec.ar1(0.4), 48, 512, seed=13)
    cfg = LssConfig(N=512, B=96, M=48, grid=_INTERLEAVED, correction_mode="none")
    calls = []

    def counted(name):
        built = getattr(spectral, name)
        return lambda data: calls.append(name) or built(data)

    for name in ("_dft", "dft_grid"):
        monkeypatch.setattr(spectral, name, counted(name))
    raw = sweep_panel(panel, cfg).lss_raw
    assert len({spectral._split(nu, 512)[1] for nu in _INTERLEAVED}) == 4
    assert calls.count("_dft") == 4 and calls.count("dft_grid") == 1
    monkeypatch.undo()
    for nu, value in zip(_INTERLEAVED, raw.tolist()):
        assert value == psi_at(panel, cfg, nu).lss_raw


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), -float("inf"), None, "0.25", True,
                                np.bool_(True), 1 + 2j, [0.25],
                                pytest.param(10 ** 400, id="10**400")])
def test_bad_frequency_is_invalid_argument(nu):
    # a frequency must be a finite real number, and anything else is an
    # InvalidArgumentError rather than a raw ValueError, TypeError or
    # OverflowError, or a silent conversion
    panel = simulate_panel(ModelSpec.ar1(0.4), 8, 64, seed=1)
    with pytest.raises(InvalidArgumentError, match="frequency"):
        psi_at(panel, LssConfig(N=64, B=16, M=8), nu)
    with pytest.raises(InvalidArgumentError, match="frequency"):
        smoothed_periodogram(panel, nu, B=16)


def test_public_matrices_carry_the_kernel_bits():
    # the validated public matrices wrap the grid kernel's arrays, so the
    # statistic of the public periodogram is the panel record's lss_raw
    from coherlss.lss import _raw_at, mp_integral_value
    from coherlss import spectral

    model = ModelSpec.ar1(0.4)
    panel = simulate_panel(model, 48, 512, seed=4)
    nus = (0.25, 0.1234567)
    for f in ("square_centered", "log"):
        cfg = LssConfig(N=512, B=96, M=48, f=f, correction_mode="oracle")
        walked = dict(spectral._walk(panel, 96, nus))
        for i, nu in enumerate(nus):
            C = coherency_matrix(smoothed_periodogram(panel, nu, B=96))
            assert np.array_equal(C.values, spectral._normalize(walked[i]))
            S = np.array(smoothed_periodogram(panel, nu, B=96).values)
            raw = _raw_at(S, cfg.f, mp_integral_value(cfg.c_N, cfg.f))
            assert raw == psi_at(panel, cfg, nu).lss_raw
    # psi_at evaluates a panel; a matrix is not a source
    with pytest.raises(InvalidArgumentError):
        psi_at(C, cfg, nu)


@pytest.mark.parametrize("f", ["square_centered", "log"])
def test_block_walk_is_grid_independent_and_bounded(f, monkeypatch):
    # every grid, any grid order, psi_at and the public matrices give the
    # same lss_raw bits, and a walk, on the grid or on the off-grid lattice
    # (k + 1/2)/N, holds at most ceil((B+1)/beta) + 1 Grams
    from coherlss import spectral
    from coherlss.lss import _raw_at, mp_integral_value, sweep_panel

    N, B, M = 512, 96, 48
    beta = spectral._block_width(B)
    held = []
    walk = spectral._walk

    def counting(panel, B, nus):
        # the Grams the suspended walk holds after each window
        windows = walk(panel, B, nus)
        for item in windows:
            held.append(len(windows.gi_frame.f_locals["grams"]))
            yield item

    monkeypatch.setattr(spectral, "_walk", counting)
    panel = simulate_panel(ModelSpec.ar1(0.4), M, N, seed=21)
    full = LssConfig(N=N, B=B, M=M, f=f, correction_mode="none", grid=default_grid(N, 1))
    by_nu = dict(zip(full.grid, sweep_panel(panel, full).lss_raw.tolist()))
    shuffled = list(default_grid(N, 1))
    np.random.default_rng(3).shuffle(shuffled)
    for grid in (default_grid(N, 3), default_grid(N, 4), tuple(shuffled)):
        cfg = dataclasses.replace(full, grid=grid)
        for nu, raw in zip(grid, sweep_panel(panel, cfg).lss_raw.tolist()):
            assert raw == by_nu[nu]
    for nu in (0.0, 12 / N, 0.5, 1 - 1 / N):
        assert psi_at(panel, full, nu).lss_raw == by_nu[nu]
        S = np.array(smoothed_periodogram(panel, nu, B=B).values)
        assert _raw_at(S, full.f, mp_integral_value(full.c_N, full.f)) == by_nu[nu]
    assert held and max(held) <= math.ceil((B + 1) / beta) + 1
    held.clear()
    lattice = dataclasses.replace(full, grid=tuple((k + 0.5) / N for k in range(N)))
    raw = sweep_panel(panel, lattice).lss_raw
    assert len(held) == N and max(held) <= math.ceil((B + 1) / beta) + 1
    for k in (0, 97, 300, N - 1):
        assert psi_at(panel, lattice, lattice.grid[k]).lss_raw == raw[k]


def _twin_row_panel():
    # two equal rows make every window rank-deficient
    model = ModelSpec.ar1(0.4)
    data = np.array(simulate_panel(model, 8, 64, seed=9).data)
    data[1] = data[0]
    return TimeSeriesPanel(data, model, 9)


def test_log_rank_deficient_window_is_domain_error():
    # the grid path and the public eigenvalue route fail with the same DomainError
    panel = _twin_row_panel()
    cfg = LssConfig(N=64, B=8, M=8, alpha=0.75, f="log", correction_mode="none")
    for nu in (0.25, 0.2501):
        with pytest.raises(DomainError) as grid_err:
            psi_at(panel, cfg, nu)
        with pytest.raises(DomainError) as public_err:
            trace_functional(coherency_matrix(smoothed_periodogram(panel, nu, B=8)), "log")
        for err in (grid_err, public_err):
            assert str(err.value).startswith("log trace functional needs eigenvalues > 1e-12")
            assert err.value.value <= 1e-12


def test_non_finite_data_fails_loudly():
    # the panel holds a view of the caller's array, so a later write reaches it
    model = ModelSpec.ar1(0.4)
    d = simulate_panel(model, 16, 256, 0).data.copy()
    p = TimeSeriesPanel(d, model, 0)
    d[3, 7] = np.nan
    cfg = LssConfig(N=256, B=48, M=16)
    with np.errstate(invalid="ignore"):
        for nu in (0.25, 0.2501):
            with pytest.raises(NumericalFailureError):
                psi_at(p, cfg, nu)
        with pytest.raises(NumericalFailureError):
            sup_over_grid(p, cfg)
        d[3, 7] = np.inf
        with pytest.raises(NumericalFailureError):
            smoothed_periodogram(p, 0.25, B=48)


def test_non_finite_statistic_fails_loudly():
    # finite on the MP support and on the contour that gives its phi, but NaN
    # at the zero eigenvalue of a rank-deficient window
    f = SpectralFunction.from_callable(lambda x: np.sqrt(x - 1e-9), analytic=True)
    cfg = LssConfig(N=64, B=8, M=8, alpha=0.75, f=f, correction_mode="none")
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailureError):
        psi_at(_twin_row_panel(), cfg, 0.25)


@pytest.mark.parametrize("f", ["square_centered", "log"])
@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e150, 1e-150])
def test_statistic_survives_extreme_panel_scales(f, scale):
    # the squared moduli of S underflow for a panel scaled by 1e-100 and
    # overflow for one scaled by 1e100, while the statistic is scale-free.
    # The error is relative to (1/M) tr f(C) = lss_raw + mp: lss_raw itself
    # can be 1e-4, where a rounding of 2.5e-16 in the trace is 2e-12 of it
    from coherlss.lss import mp_integral_value, sweep_panel

    N, B, M = 256, 32, 12
    panel = simulate_panel(ModelSpec.ar1(0.4), M, N, seed=8)
    scaled = TimeSeriesPanel(panel.data * scale, panel.model, panel.seed)
    cfg = LssConfig(N=N, B=B, M=M, f=f, correction_mode="none", grid=default_grid(N, 8))
    mp = mp_integral_value(cfg.c_N, cfg.f)

    def close(got, expected):
        return np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected + mp))

    assert close(sweep_panel(scaled, cfg).lss_raw, sweep_panel(panel, cfg).lss_raw)
    for nu in (0.0, 0.3, 0.1234567):
        assert close(psi_at(scaled, cfg, nu).lss_raw, psi_at(panel, cfg, nu).lss_raw)


def test_zero_row_is_a_degenerate_spectrum():
    from coherlss.lss import sweep_panel

    data = np.array(simulate_panel(ModelSpec.ar1(0.4), 6, 64, seed=3).data)
    data[2] = 0.0
    panel = TimeSeriesPanel(data, ModelSpec.ar1(0.4), 3)
    cfg = LssConfig(N=64, B=16, M=6, correction_mode="none")
    for nu in (0.25, 0.2501):
        with pytest.raises(DegenerateSpectrumError):
            psi_at(panel, cfg, nu)
    with pytest.raises(DegenerateSpectrumError):
        sweep_panel(panel, cfg)


# --- exact finite-sample moments ----------------------------------------------


def _harmonic(n):
    return math.fsum(1.0 / k for k in range(1, n + 1))


@pytest.mark.parametrize("f", ["square_centered", "log"])
def test_white_noise_statistic_has_its_exact_moments(f):
    # Under white noise the DFT is unitary, so the columns of disjoint
    # windows are iid circular complex Gaussian and lss_raw has an exact
    # mean. square_centered: |C_ij|^2 ~ Beta(1, B) off the diagonal, so the
    # mean is -1/(B+1) and the variance 2(M-1)B / (M (B+1)^2 (B+2)). log:
    # the complex Wishart log-determinant gives digamma sums, whose Euler
    # gammas cancel into harmonic sums H. Its 23 windows (k = 5 + 11j, 11
    # columns each) are disjoint, so the 23,000 values of the 1000 fixed
    # seeds are iid; |z| < 4 fails a correct pipeline with probability 6e-5.
    M, N, B = 8, 256, 10
    # alpha = log B / log N = 0.42 would be rejected as below 1/2
    cfg = LssConfig(N=N, B=B, M=M, alpha=0.75, f=f, correction_mode="none",
                    grid=tuple((5 + 11 * j) / N for j in range(23)))
    values = np.concatenate([
        sweep_panel(simulate_panel(ModelSpec.white_noise(), M, N, seed), cfg).lss_raw
        for seed in range(1000)])
    if f == "square_centered":
        mean = -1.0 / (B + 1)
        variance = 2 * (M - 1) * B / (M * (B + 1) ** 2 * (B + 2))
        assert abs(values.var(ddof=1) / variance - 1.0) < 0.04
    else:
        c = cfg.c_N
        mean = (math.fsum(_harmonic(B - i) - _harmonic(B) for i in range(M)) / M
                - ((c - 1.0) / c * math.log(1.0 - c) - 1.0))
    z = (values.mean() - mean) / (values.std(ddof=1) / math.sqrt(values.size))
    assert abs(z) < 4.0, z


# --- properties ----------------------------------------------------------------

_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_MODELS = (ModelSpec.white_noise(), ModelSpec.ar1(0.4), ModelSpec.ar1(-0.7))


@st.composite
def _windows(draw):
    """A small panel, a span B with B+1 > M, and an on- or off-grid frequency."""
    M = draw(st.integers(2, 10))
    B = 2 * draw(st.integers((M + 1) // 2, 12))
    N = draw(st.integers(B + 2, 96))
    panel = simulate_panel(draw(st.sampled_from(_MODELS)), M, N,
                           draw(st.integers(0, 2 ** 32 - 1)))
    nu = draw(st.one_of(st.integers(0, N - 1).map(lambda k: k / N),
                        st.floats(0.0, 1.0, exclude_max=True)))
    return panel, B, nu


def _config(panel, B, f):
    return LssConfig(N=panel.N, B=B, M=panel.M, alpha=0.75, f=f, correction_mode="none")


def _window(M, N, B, nu):
    return simulate_panel(ModelSpec.ar1(0.4), M, N, seed=N + M), B, nu


@_PROPERTY_SETTINGS
@given(_windows())
@example(_window(20, 65, 64, 1 / 65))    # B+1 = N
@example(_window(12, 256, 32, 0.0))      # windows wrapping past 0
@example(_window(12, 256, 32, 255 / 256))  # and past N-1
@example(_window(48, 257, 96, 0.3141))
def test_frobenius_statistic_matches_eigenvalues(window):
    # square_centered is taken from S as (1/M) sum_{i != j} |S_ij|^2 / (S_ii S_jj),
    # which is the Frobenius sum of C - I and (1/M) sum (lambda - 1)^2 over
    # the eigenvalues of C
    from coherlss.lss import _raw_at, mp_integral_value

    panel, B, nu = window
    cfg = _config(panel, B, "square_centered")
    S = smoothed_periodogram(panel, nu, B=B)
    C = coherency_matrix(S)
    value = _raw_at(np.array(S.values), cfg.f, 0.0)
    frobenius = float(np.sum(np.abs(C.values - np.eye(panel.M)) ** 2)) / panel.M
    assert abs(value - frobenius) <= 1e-13 * frobenius
    mp = mp_integral_value(cfg.c_N, cfg.f)
    raw = psi_at(panel, cfg, nu).lss_raw
    assert raw == value - mp
    eigs = hermitian_eigenvalues(C)
    assert abs(raw - (float(np.mean((eigs - 1.0) ** 2)) - mp)) <= 1e-13


@_PROPERTY_SETTINGS
@given(_windows(), st.sampled_from(["square_centered", "log"]), st.integers(0, 2 ** 32 - 1))
def test_statistic_row_permutation_and_scale_invariance(window, f, seed):
    panel, B, nu = window
    cfg = _config(panel, B, f)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(panel.M)
    scales = np.exp(rng.uniform(-3.0, 3.0, panel.M))
    moved = TimeSeriesPanel(panel.data[perm] * scales[:, None], panel.model, panel.seed)
    # none mode forms no phi, which the contour does not resolve for log
    # near c = 1 (see test_log_action_at_c_0_9)
    assert psi_at(moved, cfg, nu).lss_raw == pytest.approx(psi_at(panel, cfg, nu).lss_raw,
                                                           abs=1e-10)


@_PROPERTY_SETTINGS
@given(_windows())
def test_identity_polynomial_statistic_is_zero(window):
    panel, B, nu = window
    cfg = _config(panel, B, SpectralFunction.polynomial([0.0, 1.0]))
    assert abs(psi_at(panel, cfg, nu).lss_raw) <= 1e-10


def test_dense_grid_walk_reuses_every_window_cut():
    # a stride-1 grid at N = 2048 has 2048 windows; the cut cache holds them
    # all, so a repeat sweep, on this panel or another, computes none again
    from coherlss.spectral import _window_cut

    N, B, M = 2048, 256, 4
    cfg = LssConfig(N=N, B=B, M=M, grid=default_grid(N, 1))
    sweep_panel(simulate_panel(ModelSpec.ar1(0.4), M, N, seed=1), cfg)
    misses = _window_cut.cache_info().misses
    sweep_panel(simulate_panel(ModelSpec.ar1(0.4), M, N, seed=2), cfg)
    assert _window_cut.cache_info().misses == misses
