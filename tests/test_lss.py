"""Linear spectral statistics: configs, correction terms, psi assembly."""

import math

import numpy as np
import pytest

from coherlss import (
    ConfigError,
    DomainError,
    InvalidArgumentError,
    LssConfig,
    ModelSpec,
    coherency_matrix,
    default_grid,
    default_lag_window_size,
    hermitian_eigenvalues,
    psi_at,
    r_n_hat,
    r_n_true,
    simulate_panel,
    smoothed_periodogram,
    sup_over_grid,
    trace_functional,
    u_n,
    v_n,
)


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
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, f="cubic")
    with pytest.raises(ConfigError):
        LssConfig(N=2048, B=256, M=128, correction_mode="always")
    with pytest.raises(ConfigError):
        LssConfig(N=True, B=256, M=128)  # bools are not sizes


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


def test_r_n_hat_white_noise():
    panel = simulate_panel(ModelSpec.white_noise(), 64, 8192, seed=100)
    assert r_n_hat(panel, 8, 0.3) <= 0.05
    assert r_n_hat(panel, 8, 0.3) == r_n_hat(panel, 8, 0.3)


def test_r_n_hat_tracks_model():
    model = ModelSpec.ar1(0.4)
    target = r_n_true(model, 128, 0.1)
    for seed in range(10):
        panel = simulate_panel(model, 128, 16384, seed=seed)
        est = r_n_hat(panel, 4, 0.1)
        assert abs(est - target) <= 0.5 * target + 0.05


def test_r_n_hat_validation():
    panel = simulate_panel(ModelSpec.white_noise(), 4, 64, seed=0)
    with pytest.raises(InvalidArgumentError):
        r_n_hat(panel, 0, 0.2)
    with pytest.raises(InvalidArgumentError):
        r_n_hat(panel, 64, 0.2)


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
    rec = psi_at(panel, cfg, 0.25, model=model)
    assert rec.r_term == 0.0
    assert rec.psi == rec.lss_raw


def test_psi_inactive_alpha_matches_none():
    # alpha <= 2/3: oracle correction must coincide with none
    model = ModelSpec.ar1(0.4)
    cfg_o = LssConfig(N=512, B=64, M=32, correction_mode="oracle")
    cfg_n = LssConfig(N=512, B=64, M=32, correction_mode="none")
    panel = simulate_panel(model, 32, 512, seed=3)
    rec_o = psi_at(panel, cfg_o, 0.3, model=model)
    rec_n = psi_at(panel, cfg_n, 0.3)
    assert rec_o.psi == rec_n.psi == rec_o.lss_raw


def test_psi_from_coherency_matrix():
    model = ModelSpec.ar1(0.4)
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="oracle")
    panel = simulate_panel(model, 48, 512, seed=4)
    C = coherency_matrix(smoothed_periodogram(panel, 0.25, B=96))
    rec_m = psi_at(C, cfg, 0.25, model=model)
    rec_p = psi_at(panel, cfg, 0.25, model=model)
    assert rec_m.lss_raw == pytest.approx(rec_p.lss_raw, abs=1e-12)
    assert rec_m.psi == pytest.approx(rec_p.psi, abs=1e-12)


def test_psi_source_validation():
    model = ModelSpec.ar1(0.4)
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="plugin")
    panel = simulate_panel(model, 48, 512, seed=4)
    C = coherency_matrix(smoothed_periodogram(panel, 0.25, B=96))
    with pytest.raises(InvalidArgumentError):
        psi_at(C, cfg, 0.25)  # plugin needs the panel
    with pytest.raises(InvalidArgumentError):
        psi_at(C, cfg, 0.3)  # frequency mismatch
    S = smoothed_periodogram(panel, 0.25, B=96)
    with pytest.raises(InvalidArgumentError):
        psi_at(S, cfg, 0.25, model=model)  # must be a coherency matrix
    bad_b = coherency_matrix(smoothed_periodogram(panel, 0.25, B=64))
    with pytest.raises(InvalidArgumentError):
        psi_at(bad_b, LssConfig(N=512, B=96, M=48, correction_mode="none"), 0.25)
    oracle_cfg = LssConfig(N=512, B=96, M=48, correction_mode="oracle")
    good_c = coherency_matrix(smoothed_periodogram(panel, 0.25, B=96))
    with pytest.raises(InvalidArgumentError):
        psi_at(good_c, oracle_cfg, 0.25)  # matrix source carries no model
    # a panel source supplies its own model
    assert psi_at(panel, oracle_cfg, 0.25).mode == "oracle"


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
    rec = psi_at(panel, cfg, 0.25, model=model)
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


@pytest.mark.parametrize("mode", ["oracle", "plugin"])
def test_entry_points_agree_exactly(mode):
    # psi_at, sup_over_grid, sweep_panel and frequency_sweep share one
    # evaluation path, so they give the same bits at a grid frequency
    import dataclasses

    from coherlss import ExperimentConfig, frequency_sweep, split_seed, sweep_panel

    cfg = ExperimentConfig(N=512, B=96, M=48, theta=0.4, grid_stride=16, correction_mode=mode,
                           seed=12)
    lcfg = cfg.lss_config()
    panel = simulate_panel(cfg.model(), 48, 512, seed=split_seed(cfg.seed, 0))
    sweep = sweep_panel(panel, lcfg)
    rows = frequency_sweep(cfg).records[0].rows
    _, _, records = sup_over_grid(panel, lcfg)
    r_sweep = sweep.r_oracle if mode == "oracle" else sweep.r_plugin
    r_col, psi_col = (3, 6) if mode == "oracle" else (4, 7)
    assert len(records) == len(rows) == len(sweep.nu) == 32
    for k in (0, 5, 13, 21):
        nu = lcfg.grid[k]
        rec = records[k]
        assert rec.nu == sweep.nu[k] == rows[k][0] == nu
        assert rec.lss_raw == sweep.lss_raw[k] == rows[k][1]
        assert rec.r_term == r_sweep[k] == rows[k][r_col]
        assert rec.psi == rows[k][psi_col]
        one = psi_at(panel, lcfg, nu)
        if mode == "oracle":
            assert one == rec
        else:
            # BLAS picks the lag-window matmul kernel, and with it the
            # rounding, by how many frequencies share the call
            assert dataclasses.replace(one, r_term=rec.r_term, psi=rec.psi) == rec
            assert one.r_term == pytest.approx(rec.r_term, rel=1e-14, abs=1e-300)
            assert one.psi == pytest.approx(rec.psi, rel=1e-13)
