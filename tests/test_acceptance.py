"""End-to-end acceptance runs at pinned configurations and tolerances.

Each test times itself against a runtime budget and reports one line in the
terminal summary.  One check is deliberately left failing: the improved-
fraction target at the desk-scale sweep configuration is unreachable for this
estimator family (see the comment on test_criterion_5a for the arithmetic).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate

from coherlss import (
    ExperimentConfig,
    LssConfig,
    ModelSpec,
    MPModel,
    SpectralFunction,
    TimeSeriesPanel,
    coherency_matrix,
    dft_covariance_check,
    distribution_action,
    eigenvalue_localization_check,
    frequency_sweep,
    hermitian_eigenvalues,
    mp_density,
    mp_integral,
    mp_stieltjes,
    mp_stieltjes_tilde,
    psi_at,
    scaling_study,
    simulate_panel,
    smoothed_periodogram,
    spectral_function,
)
from coherlss import rmt as _rmt_mod

_SWEEP_CACHE = {}


def _desk_sweep():
    """Shared 20-seed run at the pinned desk-scale configuration."""
    if "result" not in _SWEEP_CACHE:
        cfg = ExperimentConfig(N=2048, B=256, M=128, theta=0.4,
                               replicates=20, seed=0)
        t0 = time.perf_counter()
        _SWEEP_CACHE["result"] = frequency_sweep(cfg)
        _SWEEP_CACHE["elapsed"] = time.perf_counter() - t0
    return _SWEEP_CACHE["result"], _SWEEP_CACHE["elapsed"]


def _clear_action_caches():
    _rmt_mod._action.cache_clear()


def test_criterion_1_phi_golden(acceptance):
    _clear_action_caches()
    t0 = time.perf_counter()
    sq = spectral_function("square_centered")
    worst = 0.0
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        m = MPModel(c)
        for method in ("inversion", "contour"):
            err = abs(distribution_action("p", m, sq, method=method) - c)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    acceptance("criterion 1: phi((x-1)^2) = c, both methods", ok,
               f"worst error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 10.0


def test_criterion_2_phi_tilde_golden(acceptance):
    t0 = time.perf_counter()
    log_f = spectral_function("log")
    worst = 0.0
    for c in (0.25, 0.5):
        m = MPModel(c)
        for method in ("inversion", "contour"):
            err = abs(distribution_action("p_tilde", m, log_f, method=method) + 1.0)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    acceptance("criterion 2: phi_tilde(log) = -1", ok,
               f"worst error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 10.0


def test_criterion_3_mp_moments(acceptance):
    t0 = time.perf_counter()
    sq = spectral_function("square_centered")
    lam = SpectralFunction.polynomial([0.0, 1.0])
    lam2 = SpectralFunction.polynomial([0.0, 0.0, 1.0])
    worst_sq = 0.0
    worst_mom = 0.0
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        m = MPModel(c)
        worst_sq = max(worst_sq, abs(mp_integral(m, sq) - c))
        worst_mom = max(worst_mom, abs(mp_integral(m, lam) - 1.0))
        worst_mom = max(worst_mom, abs(mp_integral(m, lam2) - (1.0 + c)))
    elapsed = time.perf_counter() - t0
    ok = worst_sq <= 1e-6 and worst_mom <= 1e-7 and elapsed < 5.0
    acceptance("criterion 3: MP integrals vs moment oracle", ok,
               f"square {worst_sq:.2e}, moments {worst_mom:.2e}, {elapsed:.1f}s")
    assert worst_sq <= 1e-6
    assert worst_mom <= 1e-7
    assert elapsed < 5.0


def _stieltjes_quadrature(model, z):
    lm, lp = model.lambda_minus, model.lambda_plus

    def re_part(lam):
        return ((lam - z.real) / abs(lam - z) ** 2) * mp_density(model, lam)

    def im_part(lam):
        return (z.imag / abs(lam - z) ** 2) * mp_density(model, lam)

    re, _ = integrate.quad(re_part, lm, lp, points=[lm, lp], limit=300)
    im, _ = integrate.quad(im_part, lm, lp, points=[lm, lp], limit=300)
    return complex(re, im)


def test_criterion_4_stieltjes_grid(acceptance):
    t0 = time.perf_counter()
    res = np.linspace(-2.0, 4.0, 10)
    ims = np.geomspace(0.05, 2.0, 10)
    worst_val = 0.0
    worst_dual = 0.0
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        m = MPModel(c)
        for re in res:
            for im in ims:
                z = complex(re, im)
                t = mp_stieltjes(m, z)
                worst_val = max(worst_val, abs(t - _stieltjes_quadrature(m, z)))
                td = mp_stieltjes_tilde(m, z)
                worst_dual = max(worst_dual, abs(t + 1.0 / (z * (1.0 + td))))
                worst_dual = max(worst_dual, abs(td + 1.0 / (z * (1.0 + c * t))))
    elapsed = time.perf_counter() - t0
    ok = worst_val <= 1e-6 and worst_dual <= 1e-10 and elapsed < 30.0
    acceptance("criterion 4: Stieltjes vs quadrature on z-grid", ok,
               f"value {worst_val:.2e}, dual {worst_dual:.2e}, {elapsed:.1f}s")
    assert worst_val <= 1e-6
    assert worst_dual <= 1e-10
    assert elapsed < 30.0


def test_criterion_5a_improved_fraction(acceptance):
    # DELIBERATELY RED.  The raw statistic carries an O(1/B) centering bias
    # of about -1/(B+1) (for white noise it is exact: E|C_ij|^2 = 1/(B+1))
    # that the O((B/N)^2) correction does not touch.  Improving on the raw
    # statistic at a frequency therefore needs the correction to exceed twice
    # that bias, i.e. r(nu) * phi * v_N > 2/(B+1), which at
    # (N,B,M) = (2048,256,128) and theta = 0.4 means |s'/s| > 3.45 -- true on
    # only about half the circle (the correction vanishes like s'(nu)^2 near
    # nu = 0 and 1/2).  The empirical ceiling is ~0.53 regardless of the
    # number of seeds, so the 0.8 target is unreachable at this scale even
    # though the correction itself is verified accurate where it is active.
    result, elapsed = _desk_sweep()
    fraction = result.summary["fraction_improved"]
    ok = fraction >= 0.8 and elapsed < 300.0
    acceptance("criterion 5a: improved fraction >= 0.8 at desk scale", ok,
               f"fraction {fraction:.4f}, {elapsed:.1f}s")
    assert elapsed < 300.0
    assert fraction >= 0.8


def test_criterion_5b_plugin_within_2x(acceptance):
    result, elapsed = _desk_sweep()
    med_psi = result.summary["median_sup_psi"]
    med_hat = result.summary["median_sup_psi_hat"]
    ratio = med_hat / med_psi
    ok = ratio <= 2.0 and elapsed < 300.0
    acceptance("criterion 5b: plugin sup within 2x of oracle sup", ok,
               f"ratio {ratio:.4f}, {elapsed:.1f}s")
    assert elapsed < 300.0
    assert ratio <= 2.0


def test_criterion_6_scaling_rates(acceptance):
    t0 = time.perf_counter()
    res = scaling_study([40, 80, 160], alpha=0.8, c_target=0.5, theta=0.4,
                        replicates=10, seed=0)
    elapsed = time.perf_counter() - t0
    flags = res.summary["flags"]
    ok = all(flags.values()) and elapsed < 900.0
    raw_ratios = ", ".join(f"{r:.3f}" for r in res.summary["raw_x2_ratios"])
    acceptance("criterion 6: sup rescalings across M", ok,
               f"raw_x2 ratios [{raw_ratios}], flags {flags}, {elapsed:.1f}s")
    assert flags["raw_x2_bounded"]
    assert flags["psi_x2_decreasing"]
    assert flags["psi_x3_bounded"]
    assert elapsed < 900.0


def test_criterion_7_eigenvalue_localization(acceptance):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(N=2048, B=256, M=128, theta=0.4,
                           replicates=20, seed=0, grid_stride=16)  # 128 points
    passed, worst = eigenvalue_localization_check(cfg, epsilon=0.5)
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 180.0
    acceptance("criterion 7: eigenvalues inside MP support + 0.5", ok,
               f"worst excursion {worst:.3f}, {elapsed:.1f}s")
    assert passed
    assert elapsed < 180.0


def test_criterion_8_dft_covariance_rate(acceptance):
    t0 = time.perf_counter()
    rows = dft_covariance_check(ModelSpec.ar1(0.4), [256, 512, 1024], 0.25, 0.25)
    scaled = [dev * n for n, dev, _ in rows]
    elapsed = time.perf_counter() - t0
    spread = max(scaled) / min(scaled)
    ok = spread <= 3.0 and elapsed < 10.0
    acceptance("criterion 8: DFT variance deviation decays like 1/N", ok,
               f"dev*N in [{min(scaled):.4f}, {max(scaled):.4f}], {elapsed:.1f}s")
    assert spread <= 3.0
    assert elapsed < 10.0


def test_criterion_9_invariant_suite(acceptance):
    t0 = time.perf_counter()
    failures = []

    model = ModelSpec.ar1(0.4)
    panel = simulate_panel(model, 48, 512, seed=40)

    # Hermitian / PSD / unit diagonal of the estimated matrices
    for nu in (0.0, 0.2, 0.45):
        S = smoothed_periodogram(panel, nu, B=96)
        C = coherency_matrix(S)
        if np.max(np.abs(S.values - S.values.conj().T)) > 1e-13:
            failures.append(f"periodogram not Hermitian at nu={nu}")
        if np.linalg.eigvalsh(S.values)[0] < -1e-12:
            failures.append(f"periodogram not PSD at nu={nu}")
        if not np.all(C.values.diagonal() == 1.0):
            failures.append(f"coherency diagonal not exactly 1 at nu={nu}")
        if np.linalg.eigvalsh(C.values)[0] < -1e-12:
            failures.append(f"coherency not PSD at nu={nu}")

    # scale invariance of the statistic
    cfg = LssConfig(N=512, B=96, M=48, correction_mode="plugin")
    scales = 0.1 + np.arange(48, dtype=float)[::-1]
    scaled = TimeSeriesPanel(panel.data * scales[:, None], model, panel.seed)
    a, b = psi_at(panel, cfg, 0.25), psi_at(scaled, cfg, 0.25)
    if abs(a.psi - b.psi) > 1e-9 or abs(a.lss_raw - b.lss_raw) > 1e-9:
        failures.append("statistic not row-scale invariant")

    # f = identity gives a zero raw statistic
    ident = SpectralFunction.polynomial([0.0, 1.0])
    icfg = LssConfig(N=512, B=96, M=48, f=ident, correction_mode="none")
    if abs(psi_at(panel, icfg, 0.25).lss_raw) > 1e-10:
        failures.append("identity-function statistic not zero")

    # eigensolver trace identity on 500 random Hermitian matrices
    rng = np.random.default_rng(90)
    for _ in range(500):
        n = int(rng.integers(2, 16))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (G + G.conj().T) / 2
        if abs(np.sum(hermitian_eigenvalues(A)) - np.trace(A).real) > 1e-8:
            failures.append("eigenvalue sum does not match trace")
            break

    # seed determinism and parallel/serial equality
    ecfg = ExperimentConfig(N=256, B=64, M=32, theta=0.4, replicates=3,
                            seed=17, grid_stride=32)
    r1 = frequency_sweep(ecfg)
    r2 = frequency_sweep(ecfg)
    r3 = frequency_sweep(dataclasses.replace(ecfg, threads=3))
    if any(x.rows != y.rows for x, y in zip(r1.records, r2.records)):
        failures.append("sweep is not deterministic across reruns")
    if any(x.rows != y.rows for x, y in zip(r1.records, r3.records)):
        failures.append("parallel sweep differs from serial")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    acceptance("criterion 9: invariant suite", ok,
               f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0
