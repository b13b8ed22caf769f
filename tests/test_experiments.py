"""Monte Carlo drivers, seed derivation, and artifact writers."""

import dataclasses
import json

import numpy as np
import pytest

from coherlss import (
    ConfigError,
    ExperimentConfig,
    InvalidArgumentError,
    ModelSpec,
    dft_covariance_check,
    eigenvalue_localization_check,
    frequency_sweep,
    histogram_study,
    scaling_study,
    spectral,
    split_seed,
)
from coherlss.experiments import (
    HISTOGRAM_HEADER,
    SWEEP_HEADER,
    _format_cell,
    _mean_skipping_nan,
    scaling_geometry,
    write_table_csv,
    write_histogram_outputs,
    write_sweep_outputs,
)
from coherlss.rmt import MPModel
from coherlss.signal import simulate_panel


def _quick_cfg(**over):
    # alpha = log(64)/log(256) = 0.75 > 2/3, so the correction is active
    base = dict(N=256, B=64, M=32, theta=0.4, replicates=2, seed=5,
                grid_stride=32)  # 8 grid points
    base.update(over)
    return ExperimentConfig(**base)


# --- seeds --------------------------------------------------------------------


def test_split_seed_deterministic_and_distinct():
    a = [split_seed(12345, i) for i in range(64)]
    b = [split_seed(12345, i) for i in range(64)]
    assert a == b
    assert len(set(a)) == 64
    assert all(0 <= s < 2 ** 64 for s in a)
    assert split_seed(12345, 0) != split_seed(12346, 0)


def test_experiment_config_validation():
    _quick_cfg()
    with pytest.raises(ConfigError):
        _quick_cfg(replicates=0)
    with pytest.raises(ConfigError):
        _quick_cfg(seed=-1)
    with pytest.raises(ConfigError):
        _quick_cfg(seed=2 ** 64)
    with pytest.raises(ConfigError):
        _quick_cfg(threads=0)
    with pytest.raises(ConfigError):
        _quick_cfg(B=31)
    with pytest.raises(ConfigError):
        _quick_cfg(theta=1.0)
    # non-numeric values, as a JSON config file can give them
    for bad in ({"theta": "0.4"}, {"theta": None}, {"theta": 0j}, {"alpha": "0.75"}):
        with pytest.raises(ConfigError):
            _quick_cfg(**bad)
    # a paper-scale configuration validates without simulating
    ExperimentConfig(N=10119, B=1600, M=800, theta=0.4, L=21, replicates=800)


def test_config_snapshot_contents():
    cfg = _quick_cfg(threads=4)
    snap = cfg.snapshot()
    assert "threads" not in snap
    assert snap["N"] == 256 and snap["B"] == 64 and snap["M"] == 32
    assert snap["f"] == "square_centered"
    assert snap["grid_size"] == 8
    assert snap["alpha"] == pytest.approx(np.log(64) / np.log(256))


# --- frequency sweep ----------------------------------------------------------


def test_frequency_sweep_white_noise_oracle_vanishes():
    res = frequency_sweep(_quick_cfg(theta=0.0))
    for rec in res.records:
        for row in rec.rows:
            assert row[3] == 0.0  # r_oracle column
            assert row[6] == row[1]  # psi == lss_raw when r is exactly zero


def test_frequency_sweep_deterministic_and_parallel_invariant():
    cfg = _quick_cfg()
    r1 = frequency_sweep(cfg)
    r2 = frequency_sweep(cfg)
    assert r1.records[0].rows == r2.records[0].rows
    assert r1.summary == r2.summary
    r3 = frequency_sweep(dataclasses.replace(cfg, threads=3))
    for a, b in zip(r1.records, r3.records):
        assert a.rows == b.rows


def test_frequency_sweep_mean_rows():
    res = frequency_sweep(_quick_cfg())
    raw0 = [rec.rows[0][1] for rec in res.records]
    assert res.mean_rows[0][1] == pytest.approx(float(np.mean(raw0)), abs=1e-15)
    assert res.mean_rows[0][8] == -1
    assert len(res.mean_rows) == len(res.records[0].rows)


def test_frequency_sweep_psi_identity_per_row():
    res = frequency_sweep(_quick_cfg())
    for rec in res.records:
        for row in rec.rows:
            nu, raw, vn, r_o, r_p, phi, psi, psi_hat, seed = row
            assert psi == raw - r_o * phi * vn
            assert psi_hat == raw - r_p * phi * vn


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["oracle", "none"])
def test_study_survives_degenerate_plugin_estimate(mode):
    # theta=0.9 with L=2: on 43 of the 128 frequencies every row's
    # lag-window density estimate is <= 0; outside plugin mode the study
    # completes, r_plugin and psi_hat are NaN there, sups and means skip
    # those cells, and the summary counts them
    cfg = ExperimentConfig(N=512, B=96, M=48, theta=0.9, grid_stride=4, correction_mode=mode)
    res = frequency_sweep(cfg)
    assert res.summary["plugin_degenerate_total"] == 43
    rows = np.array(res.records[0].rows)
    degenerate = np.isnan(rows[:, 7])
    np.testing.assert_array_equal(np.isnan(rows[:, 4]), degenerate)
    assert np.count_nonzero(degenerate) == 43 and rows[degenerate][0, 0] == 0.2265625
    assert np.all(np.isfinite(rows[:, [1, 3, 6]]))
    assert res.summary["median_sup_psi_hat"] == np.max(np.abs(rows[~degenerate, 7]))
    assert res.summary["median_sup_psi"] == np.max(np.abs(rows[:, 6]))
    means = np.array(res.mean_rows)
    np.testing.assert_array_equal(np.isnan(means[:, 7]), degenerate)

    two = frequency_sweep(dataclasses.replace(cfg, replicates=2))
    stack = np.array([rec.rows for rec in two.records])[:, :, 7]
    per_replicate = np.count_nonzero(np.isnan(stack), axis=1)
    assert two.summary["plugin_degenerate_total"] == per_replicate.sum()
    means = np.array(two.mean_rows)[:, 7]
    for j in range(stack.shape[1]):
        defined = stack[~np.isnan(stack[:, j]), j]
        if defined.size:
            assert means[j] == pytest.approx(np.mean(defined), rel=1e-15)
        else:
            assert np.isnan(means[j])
    hist = histogram_study(dataclasses.replace(cfg, replicates=2))
    assert all(np.isfinite(row[4]) for row in hist.rows)


def test_frequency_sweep_reduce_matches_the_rows():
    # the means and the improved fractions come from the Sweep arrays; they
    # carry the bits of the reduction over the rows, with NaN cells (r_plugin
    # and psi_hat where the plug-in estimate is degenerate) and with more
    # than 8 replicates
    cfg = ExperimentConfig(N=256, B=48, M=16, theta=0.9, L=2, grid_stride=4, replicates=9,
                           seed=3)
    res = frequency_sweep(cfg)
    rows = [[row[:8] for row in rec.rows] for rec in res.records]
    mean = _mean_skipping_nan(np.array(rows, dtype=float))
    assert np.isnan(mean[:, 7]).any() and not np.isnan(mean[:, 7]).all()
    vn, phi = rows[0][0][2], rows[0][0][5]
    expected = tuple((float(m[0]), float(m[1]), vn, float(m[3]), float(m[4]), phi,
                      float(m[6]), float(m[7]), -1) for m in mean)
    assert repr(res.mean_rows) == repr(expected)
    improved_mean = [abs(m[6]) < abs(m[1]) for m in mean]
    improved_pooled = [abs(row[6]) < abs(row[1]) for rec in res.records for row in rec.rows]
    assert res.summary["fraction_improved"] == float(np.mean(improved_mean))
    assert res.summary["fraction_improved_pooled"] == float(np.mean(improved_pooled))


def test_frequency_sweep_inactive_bandwidth_exponent():
    # alpha = log(32)/log(256) = 0.625 <= 2/3 disables the correction term
    res = frequency_sweep(_quick_cfg(B=32, M=16))
    for rec in res.records:
        for row in rec.rows:
            assert row[6] == row[1]
            assert row[7] == row[1]


# --- scaling ------------------------------------------------------------------


def test_scaling_geometry_examples():
    assert scaling_geometry(40, 0.8, 0.5) == (80, 239)
    assert scaling_geometry(80, 0.8, 0.5) == (160, 569)
    assert scaling_geometry(160, 0.8, 0.5) == (320, 1353)
    for M in (40, 80, 160):
        B, _ = scaling_geometry(M, 0.8, 0.5)
        assert M / (B + 1) <= 0.5
        assert B % 2 == 0
        # minimality: two less would break the target or evenness
        assert M / (B - 1) > 0.5
    with pytest.raises(ConfigError):
        scaling_geometry(40, 0.8, 1.5)


def test_scaling_study_small():
    res = scaling_study([8, 16], alpha=0.8, c_target=0.5, theta=0.4,
                        replicates=2, seed=3, grid_stride=16)
    assert len(res.rows) == 2
    for row in res.rows:
        M, B, N = row["M"], row["B"], row["N"]
        assert (B, N) == scaling_geometry(M, 0.8, 0.5)
        assert row["c_n"] == pytest.approx(M / (B + 1))
    assert set(res.summary["flags"]) == {
        "raw_x2_bounded", "psi_x2_decreasing", "psi_x3_bounded"
    }


@pytest.mark.parametrize("bad", [
    {"replicates": 0}, {"seed": -1}, {"threads": 0}, {"M_list": ["a"]}, {"M_list": [2.7]},
    {"alpha": None}, {"c_target": "0.5"},
])
def test_scaling_study_validates_its_config(bad):
    kwargs = dict(M_list=[8], replicates=1, grid_stride=16)
    kwargs.update(bad)
    with pytest.raises(ConfigError):
        scaling_study(**kwargs)


# --- histogram ----------------------------------------------------------------


def test_histogram_study_quantiles():
    cfg = _quick_cfg(replicates=5)
    res = histogram_study(cfg)
    assert len(res.rows) == 5
    sup_raw = sorted(row[2] for row in res.rows)
    assert res.summary["quantiles"]["sup_raw"]["q50"] == pytest.approx(sup_raw[2])
    one = histogram_study(dataclasses.replace(cfg, replicates=1))
    qs = one.summary["quantiles"]["sup_psi"]
    assert qs["q05"] == qs["q50"] == qs["q95"]


def test_histogram_study_desk_scale():
    # the full 200-replicate distributional check; ~35 s on one core
    cfg = ExperimentConfig(N=1063, B=200, M=100, theta=0.4, L=3,
                           replicates=200, seed=0, grid_stride=9)
    res = histogram_study(cfg)
    assert len(res.rows) == 200
    q = res.summary["quantiles"]
    assert res.summary["flags"]["psi_median_below_raw"]
    assert res.summary["flags"]["plugin_sup_within_2x"]
    assert q["sup_psi"]["q50"] < q["sup_raw"]["q50"]
    for name in ("sup_raw", "sup_psi", "sup_psi_hat"):
        levels = [q[name][k] for k in ("q05", "q25", "q50", "q75", "q95")]
        assert levels == sorted(levels)


# --- localization -------------------------------------------------------------


def test_localization_single_row_always_inside_support():
    passed, worst = eigenvalue_localization_check(_quick_cfg(M=1, B=32))
    assert passed and worst == 0.0


def test_localization_generous_epsilon():
    passed, worst = eigenvalue_localization_check(_quick_cfg(), epsilon=10.0)
    assert passed
    assert 0.0 <= worst < 10.0


def test_localization_rejects_bad_epsilon():
    for bad in (0.0, -1.0, float("nan"), float("inf"), "0.5", None, True):
        with pytest.raises(InvalidArgumentError):
            eigenvalue_localization_check(_quick_cfg(), epsilon=bad)


def _excursions_by_eigvalsh(cfg):
    """Largest excursions below lambda_minus and above lambda_plus, from
    eigvalsh at every window of every replicate."""
    lcfg = cfg.lss_config()
    mp = MPModel(lcfg.c_N)
    below = above = -np.inf
    for seed in cfg.replicate_seeds():
        windows = spectral._Windows(simulate_panel(cfg.model(), cfg.M, cfg.N, seed), cfg.B)
        for nu in lcfg.grid:
            eigs = np.linalg.eigvalsh(spectral._normalize(windows.periodogram(nu)))
            below = max(below, mp.lambda_minus - float(eigs[0]))
            above = max(above, float(eigs[-1]) - mp.lambda_plus)
    return below, above


# (N, B, M, theta), and the side of the largest excursion in some seed
_LOCALIZATION_ORACLE = [
    pytest.param((512, 96, 10, 0.4), "below", id="below"),
    pytest.param((512, 96, 90, 0.4), "above", id="above"),
    pytest.param((512, 96, 48, 0.0), None, id="white-noise"),
    pytest.param((256, 32, 1, 0.4), "inside", id="one-row"),  # C = [1]
    pytest.param((1024, 200, 190, 0.9), "fails", id="fails"),  # worst is about 7
]


@pytest.mark.parametrize("shape,side", _LOCALIZATION_ORACLE)
def test_localization_matches_eigvalsh_everywhere(shape, side):
    # the Cholesky certificates only skip windows that cannot raise the
    # running max, so worst has the bits of an eigensolve at every window
    N, B, M, theta = shape
    sides = []
    for seed in range(3):
        cfg = ExperimentConfig(N=N, B=B, M=M, theta=theta, replicates=1, seed=seed,
                               grid_stride=N // 32)
        below, above = _excursions_by_eigvalsh(cfg)
        passed, worst = eigenvalue_localization_check(cfg)
        assert worst == max(below, above, 0.0)
        assert passed == (side != "fails")
        sides.append("inside" if max(below, above) <= 0.0
                     else "below" if below > above else "above")
    if side == "fails":
        assert worst > 5.0
    elif side is not None:
        assert side in sides


def test_localization_solves_few_windows(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = ExperimentConfig(N=512, B=96, M=48, theta=0.4, replicates=2, seed=3, grid_stride=8)
    eigenvalue_localization_check(cfg)
    # 128 windows, of which 4 raise the running max and need an eigensolve
    assert 0 < len(calls) < 16


# --- exact DFT covariance -----------------------------------------------------


def test_dft_covariance_white_noise_exact():
    rows = dft_covariance_check(ModelSpec.white_noise(), [64, 128], 0.25, 0.25)
    for _, dev, _ in rows:
        assert dev == 0.0
    cross = dft_covariance_check(ModelSpec.white_noise(), [64], 0.25, 0.375)
    assert cross[0][1] < 1e-14


def test_dft_covariance_ar1_rate():
    rows = dft_covariance_check(ModelSpec.ar1(0.4), [256, 512, 1024], 0.25, 0.25)
    scaled = [dev * n for n, dev, _ in rows]
    assert all(abs(s - 0.56622) < 5e-3 for s in scaled)
    # the O(1/N) decay: dev*N is flat while dev itself halves
    assert rows[2][1] < 0.6 * rows[0][1]


def test_dft_covariance_off_grid_rejected():
    with pytest.raises(InvalidArgumentError):
        dft_covariance_check(ModelSpec.ar1(0.4), [100], 0.2501, 0.2501)


@pytest.mark.parametrize("N_list", [[0], [-4], [256.5], [], [True], (256, 0), 256])
def test_dft_covariance_rejects_bad_lengths(N_list):
    with pytest.raises(InvalidArgumentError, match="N_list"):
        dft_covariance_check(ModelSpec.ar1(0.4), N_list, 0.25, 0.25)


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), "0.25", None, True])
def test_dft_covariance_rejects_bad_frequencies(nu):
    with pytest.raises(InvalidArgumentError, match="frequencies"):
        dft_covariance_check(ModelSpec.ar1(0.4), [256], nu, 0.25)
    with pytest.raises(InvalidArgumentError, match="frequencies"):
        dft_covariance_check(ModelSpec.ar1(0.4), [256], 0.25, nu)


# --- writers ------------------------------------------------------------------


def test_sweep_outputs_round_trip(tmp_path):
    res = frequency_sweep(_quick_cfg())
    csv_path, json_path = write_sweep_outputs(res, tmp_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# coherlss ")
    assert lines[1].startswith("# config ")
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == ",".join(SWEEP_HEADER)
    payload = json.loads(json_path.read_text())
    assert payload["artifact"] == "sweep_summary"
    assert payload["summary"]["fraction_improved"] == res.summary["fraction_improved"]
    assert "wall" not in json_path.read_text()
    assert "threads" not in payload["config"]

    # byte-identical on rerun
    first_csv = csv_path.read_bytes()
    first_json = json_path.read_bytes()
    res2 = frequency_sweep(_quick_cfg())
    write_sweep_outputs(res2, tmp_path)
    assert csv_path.read_bytes() == first_csv
    assert json_path.read_bytes() == first_json


def test_sweep_csv_mean_rows_marked(tmp_path):
    res = frequency_sweep(_quick_cfg())
    csv_path, _ = write_sweep_outputs(res, tmp_path)
    text = csv_path.read_text()
    assert "# rows with seed=-1 are cross-seed means" in text
    data_rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    n_grid = len(res.mean_rows)
    assert len(data_rows) == n_grid * (len(res.records) + 1)
    assert sum(1 for row in data_rows if row.endswith(",-1")) == n_grid


def test_table_cells_are_formatted_as_format_cell(tmp_path):
    # exactly-float and exactly-int cells take a faster route than the other
    # types; every cell must read as _format_cell writes it, and bool (an
    # int subclass) must stay true/false
    cells = [0.1, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300,
             -7, 0, 2 ** 63, True, False, None, np.float64(0.1), np.float64(-0.0),
             np.int64(-3), np.bool_(True), np.bool_(False)]
    path = tmp_path / "cells.csv"
    write_table_csv(path, ("a", "b"), [cells, cells[::-1]], {"k": 1})
    body = path.read_text(encoding="utf-8").splitlines()[-2:]
    assert body == [",".join(_format_cell(v) for v in row) for row in (cells, cells[::-1])]
    assert body[0].split(",") == [
        "0.1", "-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+300",
        "-7", "0", "9223372036854775808", "true", "false", "", "0.1", "-0.0",
        "-3", "true", "false"]


def test_histogram_outputs(tmp_path):
    res = histogram_study(_quick_cfg(replicates=3))
    csv_path, json_path = write_histogram_outputs(res, tmp_path)
    lines = csv_path.read_text().splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == ",".join(HISTOGRAM_HEADER)
    assert len(lines) - header_at - 1 == 3
    payload = json.loads(json_path.read_text())
    assert payload["artifact"] == "histogram_summary"
    assert set(payload["summary"]["quantiles"]) == {"sup_raw", "sup_psi", "sup_psi_hat"}
