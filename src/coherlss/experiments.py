"""Monte Carlo studies of the corrected statistics, at configurable scale.

Four studies: a frequency sweep (raw statistic vs both corrected variants on
a grid), a scaling study (sup statistics across M at fixed alpha and aspect
ratio, rescaled by (N/B)^2 and (N/B)^3), a histogram study (replicate
distribution of the sups), and two validation checks (eigenvalue
localization inside the MP support, and the exact O(1/N) DFT covariance
deviation for AR(1) inputs).

Reproducibility contract: replicate seeds derive from the master seed via a
splitmix64-style mix, all reductions are order-deterministic, and output
files carry the resolved config but never wall-clock data, so identical
config + seed gives byte-identical files.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers
import pathlib

import numpy as np

from . import lss, spectral
from ._version import __version__
from .errors import ConfigError, InvalidArgumentError
from .lss import LssConfig
from .rmt import MPModel
from .signal import ModelSpec, _check_seed, autocovariance, simulate_panel, spectral_density

SWEEP_HEADER = ("nu", "lss_raw", "v_n", "r_oracle", "r_plugin", "phi", "psi", "psi_hat", "seed")
SCALING_HEADER = (
    "M", "B", "N", "c_n",
    "sup_raw", "sup_psi", "sup_psi_hat", "sup_psi_signed",
    "sup_raw_x2", "sup_raw_x3", "sup_psi_x2", "sup_psi_x3", "sup_psi_hat_x2", "sup_psi_hat_x3",
)
HISTOGRAM_HEADER = ("replicate", "seed", "sup_raw", "sup_psi", "sup_psi_hat")
QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)

_U64 = 1 << 64


def split_seed(master: int, index: int) -> int:
    """Child seed for replicate ``index``: splitmix64 finalizer on the jump."""
    z = (int(master) + (int(index) + 1) * 0x9E3779B97F4A7C15) % _U64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) % _U64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) % _U64
    z ^= z >> 31
    return z


def _parallel_map(fn, items, threads: int) -> list:
    # ThreadPoolExecutor.map preserves order, so the reduction is
    # deterministic regardless of the worker count
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: concurrent.futures costs every fresh interpreter a few ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-friendly study configuration; validated on construction."""

    N: int
    B: int
    M: int
    theta: float = 0.0
    alpha: float | None = None
    L: int | None = None
    f: str = "square_centered"
    correction_mode: str = "oracle"
    grid_stride: int | None = None
    replicates: int = 1
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # fail fast: the counts, the seed, the model and the statistic config
        # must all validate, and any rejection is a configuration problem
        try:
            for name in ("replicates", "threads"):
                object.__setattr__(self, name, lss._check_positive_int(getattr(self, name), name))
            object.__setattr__(self, "seed", _check_seed(self.seed))
            object.__setattr__(self, "theta", self.model().theta)
            self.lss_config()
        except InvalidArgumentError as err:
            raise ConfigError(str(err)) from err

    def model(self) -> ModelSpec:
        return ModelSpec("white_noise" if self.theta == 0.0 else "ar1", self.theta)

    def lss_config(self) -> LssConfig:
        return LssConfig(
            N=self.N, B=self.B, M=self.M, alpha=self.alpha, L=self.L, f=self.f,
            correction_mode=self.correction_mode,
            grid=lss.default_grid(self.N, self.grid_stride),
        )

    def replicate_seeds(self) -> list[int]:
        return [split_seed(self.seed, i) for i in range(self.replicates)]

    def snapshot(self) -> dict:
        """Resolved config echoed into output files (threads excluded: it
        must not affect any numeric payload)."""
        cfg = self.lss_config()
        return {
            "N": self.N, "B": self.B, "M": self.M,
            "theta": self.theta,
            "alpha": cfg.alpha,
            "L": cfg.L,
            "f": cfg.f.label,
            "correction_mode": self.correction_mode,
            "grid_stride": lss.grid_stride(self.N, self.grid_stride),
            "grid_size": len(cfg.grid),
            "c_n": cfg.c_N,
            "replicates": self.replicates,
            "seed": self.seed,
        }


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One replicate: its seed, SWEEP_HEADER-ordered rows, floored-row count."""

    seed: int
    rows: tuple
    floored: int


def _replicate(model: ModelSpec, lcfg: LssConfig, seed: int) -> lss.Sweep:
    """Simulate one panel and evaluate it on the grid."""
    return lss.sweep_panel(simulate_panel(model, lcfg.M, lcfg.N, seed), lcfg)


def _replicates(cfg: ExperimentConfig) -> list:
    """_replicate at each of cfg's replicate seeds, in seed order."""
    lcfg = cfg.lss_config()
    # cache phi and the MP integral before the workers start
    lss.phi_value(lcfg.c_N, lcfg.f)
    lss.mp_integral_value(lcfg.c_N, lcfg.f)
    return _parallel_map(functools.partial(_replicate, cfg.model(), lcfg),
                         cfg.replicate_seeds(), cfg.threads)


def _sups(sw: lss.Sweep) -> tuple:
    """sup |lss_raw|, sup |psi| and sup |psi_hat| of one replicate."""
    return tuple(lss.sup_abs(sw.nu, x)[0] for x in (sw.lss_raw, sw.psi, sw.psi_hat))


def _mean_skipping_nan(stack: np.ndarray) -> np.ndarray:
    """Mean over the first axis of the non-NaN entries, NaN where there are
    none; with no NaN it has the bits of stack.mean(axis=0)."""
    defined = ~np.isnan(stack)
    total = np.where(defined, stack, 0.0).sum(axis=0)
    count = defined.sum(axis=0)
    return np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)


@dataclasses.dataclass(frozen=True)
class SweepResult:
    config: dict
    records: tuple
    mean_rows: tuple
    summary: dict


def frequency_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Raw statistic and both corrections on the grid, per seed and averaged."""
    reps = _replicates(cfg)
    vn, phi = reps[0].v_n, reps[0].phi
    records = tuple(
        RunRecord(
            seed=seed,
            rows=tuple(zip(sw.nu.tolist(), sw.lss_raw.tolist(), itertools.repeat(vn),
                           sw.r_oracle.tolist(), sw.r_plugin.tolist(), itertools.repeat(phi),
                           sw.psi.tolist(), sw.psi_hat.tolist(), itertools.repeat(seed))),
            floored=int(sw.floored.sum()),
        )
        for seed, sw in zip(cfg.replicate_seeds(), reps)
    )

    # the nu..psi_hat columns of the rows as a (replicates, grid, 8) stack;
    # each mean sums its replicates in seed order
    stack = np.empty((len(reps), reps[0].nu.size, 8))
    for block, sw in zip(stack, reps):
        for j, column in enumerate((sw.nu, sw.lss_raw, vn, sw.r_oracle, sw.r_plugin, phi,
                                    sw.psi, sw.psi_hat)):
            block[:, j] = column
    mean = _mean_skipping_nan(stack)
    mean_rows = tuple((nu, raw, vn, r_or, r_pl, phi, psi, psi_hat, -1)
                      for nu, raw, _, r_or, r_pl, _, psi, psi_hat in mean.tolist())

    sup_raw, sup_psi, sup_psi_hat = zip(*(_sups(sw) for sw in reps))
    improved_mean = np.abs(mean[:, 6]) < np.abs(mean[:, 1])
    improved_pooled = np.abs(stack[..., 6]) < np.abs(stack[..., 1])
    fraction = float(np.mean(improved_mean))
    median_sup_psi = float(np.median(sup_psi))
    median_sup_psi_hat = float(np.median(sup_psi_hat))
    summary = {
        "fraction_improved": fraction,
        "fraction_improved_pooled": float(np.mean(improved_pooled)),
        "median_sup_raw": float(np.median(sup_raw)),
        "median_sup_psi": median_sup_psi,
        "median_sup_psi_hat": median_sup_psi_hat,
        "floored_total": int(sum(rec.floored for rec in records)),
        "plugin_degenerate_total": int(sum(np.count_nonzero(np.isnan(sw.r_plugin))
                                           for sw in reps)),
        "flags": {
            "improved_fraction_ge_080": fraction >= 0.8,
            "plugin_sup_within_2x": median_sup_psi_hat <= 2.0 * median_sup_psi,
        },
    }
    return SweepResult(config=cfg.snapshot(), records=records, mean_rows=mean_rows, summary=summary)


@dataclasses.dataclass(frozen=True)
class ScalingResult:
    config: dict
    rows: tuple
    summary: dict


def scaling_geometry(M: int, alpha: float, c_target: float) -> tuple[int, int]:
    """Smallest even B with M/(B+1) <= c_target, and N = round(B^(1/alpha))."""
    alpha = lss.check_alpha(alpha)
    if isinstance(c_target, bool) or not isinstance(c_target, numbers.Real) \
            or not 0.0 < c_target < 1.0:
        raise ConfigError(f"c_target must lie in (0, 1), got {c_target!r}")
    B = max(2, math.ceil(M / c_target) - 1)
    if B % 2:
        B += 1
    N = int(round(B ** (1.0 / alpha)))
    return B, N


def scaling_study(M_list, alpha: float = 0.8, c_target: float = 0.5, theta: float = 0.4,
                  f: str = "square_centered", L: int | None = None, replicates: int = 10,
                  seed: int = 0, threads: int = 1, grid_stride: int | None = None) -> ScalingResult:
    """Median sup statistics across M, with (N/B)^2 and (N/B)^3 rescalings.

    Every M's configuration is validated before the first replicate runs.
    """
    if not isinstance(M_list, (list, tuple)) or not M_list or not all(
            isinstance(M, numbers.Integral) and not isinstance(M, bool) for M in M_list):
        raise ConfigError(f"M_list must be a nonempty list of positive integers, got {M_list!r}")
    M_list = [int(M) for M in M_list]
    configs = []
    for M in M_list:
        B, N = scaling_geometry(M, alpha, c_target)
        configs.append(ExperimentConfig(
            N=N, B=B, M=M, theta=theta, alpha=alpha, L=L, f=f, correction_mode="oracle",
            grid_stride=grid_stride, replicates=replicates, seed=seed, threads=threads))
    rows = []
    for cfg in configs:
        sups = np.array([_sups(sw) + (float(np.max(sw.psi)),) for sw in _replicates(cfg)],
                        dtype=float)
        med = np.median(sups, axis=0)
        M, B, N = cfg.M, cfg.B, cfg.N
        ratio = N / B
        rows.append({
            "M": M, "B": B, "N": N, "c_n": M / (B + 1),
            "sup_raw": float(med[0]), "sup_psi": float(med[1]),
            "sup_psi_hat": float(med[2]), "sup_psi_signed": float(med[3]),
            "sup_raw_x2": float(med[0] * ratio ** 2), "sup_raw_x3": float(med[0] * ratio ** 3),
            "sup_psi_x2": float(med[1] * ratio ** 2), "sup_psi_x3": float(med[1] * ratio ** 3),
            "sup_psi_hat_x2": float(med[2] * ratio ** 2), "sup_psi_hat_x3": float(med[2] * ratio ** 3),
        })

    raw_x2 = [row["sup_raw_x2"] for row in rows]
    psi_x2 = [row["sup_psi_x2"] for row in rows]
    psi_x3 = [row["sup_psi_x3"] for row in rows]
    raw_x2_ratios = [raw_x2[i + 1] / raw_x2[i] for i in range(len(rows) - 1)]
    psi_x3_ratios = [psi_x3[i + 1] / psi_x3[i] for i in range(len(rows) - 1)]
    summary = {
        "raw_x2_ratios": raw_x2_ratios,
        "psi_x2_values": psi_x2,
        "psi_x3_ratios": psi_x3_ratios,
        "flags": {
            "raw_x2_bounded": all(1.0 / 3.0 <= r <= 3.0 for r in raw_x2_ratios),
            "psi_x2_decreasing": all(psi_x2[i + 1] < psi_x2[i] for i in range(len(rows) - 1)),
            "psi_x3_bounded": all(1.0 / 3.0 <= r <= 3.0 for r in psi_x3_ratios),
        },
    }
    first = configs[0]
    config = {
        "M_list": M_list, "alpha": float(alpha), "c_target": float(c_target),
        "theta": first.theta, "f": first.lss_config().f.label, "L": L,
        "grid_stride": grid_stride, "replicates": first.replicates, "seed": first.seed,
    }
    return ScalingResult(config=config, rows=tuple(rows), summary=summary)


@dataclasses.dataclass(frozen=True)
class HistogramResult:
    config: dict
    rows: tuple
    summary: dict


def histogram_study(cfg: ExperimentConfig) -> HistogramResult:
    """Empirical distribution of the three sup statistics over the replicates."""
    sups = [_sups(sw) for sw in _replicates(cfg)]
    rows = tuple((i, seed) + sup for i, (seed, sup) in enumerate(zip(cfg.replicate_seeds(), sups)))
    arr = np.array(sups, dtype=float)
    quantiles = {}
    for j, name in enumerate(("sup_raw", "sup_psi", "sup_psi_hat")):
        qs = np.quantile(arr[:, j], QUANTILE_LEVELS)
        quantiles[name] = {f"q{int(100 * q):02d}": float(v) for q, v in zip(QUANTILE_LEVELS, qs)}
    med_raw = quantiles["sup_raw"]["q50"]
    med_psi = quantiles["sup_psi"]["q50"]
    med_psi_hat = quantiles["sup_psi_hat"]["q50"]
    summary = {
        "replicates": cfg.replicates,
        "quantiles": quantiles,
        "flags": {
            "psi_median_below_raw": med_psi < med_raw,
            "plugin_sup_within_2x": med_psi_hat <= 2.0 * med_psi,
        },
    }
    return HistogramResult(config=cfg.snapshot(), rows=rows, summary=summary)


def eigenvalue_localization_check(cfg: ExperimentConfig, epsilon: float = 0.5):
    """Largest excursion of any coherency eigenvalue beyond the MP support.

    Returns (passed, worst_excursion); failure is an outcome, not an error.
    """
    if (isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real)
            or not math.isfinite(epsilon) or epsilon <= 0):
        raise InvalidArgumentError(f"epsilon must be a positive finite real, got {epsilon!r}")
    lcfg = cfg.lss_config()
    mp = MPModel(lcfg.c_N)
    one = functools.partial(_localization_worst, cfg.model(), lcfg,
                            mp.lambda_minus, mp.lambda_plus)
    worst = max(max(_parallel_map(one, cfg.replicate_seeds(), cfg.threads)), 0.0)
    return worst <= epsilon, worst


def _localization_worst(model: ModelSpec, lcfg: LssConfig, lm: float, lp: float,
                        seed: int) -> float:
    """Largest excursion beyond [lm, lp] of one replicate's coherency
    eigenvalues on the grid, and 0.0 if none leaves it.

    A window is solved with eigvalsh only when Cholesky cannot certify that
    its eigenvalues lie inside [lm - worst + delta, lp + worst - delta],
    worst being the running excursion. A Cholesky that completes on a
    Hermitian A proves A + E positive definite with
    ||E||_2 <= M(M+1) eps max a_ii (Demmel 1989; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), and eigvalsh is backward
    stable, so its eigenvalues are exact for C + F with ||F||_2 a small
    multiple of M^2 eps ||C||_2. Both read only the lower triangle of C, so
    they see one Hermitian matrix. Every diagonal entry of the shifted
    matrices is at most 1 + lp + worst, and so is ||C||_2 on a certified
    window, so delta = 4 (M+1)^2 eps (1 + lp + worst) dominates both errors:
    a certified window's computed excursion is at most worst, and skipping it
    leaves the running max, and with it the result, with the same bits as an
    eigensolve at every window.
    """
    windows = spectral._Windows(simulate_panel(model, lcfg.M, lcfg.N, seed), lcfg.B)
    margin = 4.0 * (lcfg.M + 1) ** 2 * np.finfo(float).eps
    worst = 0.0
    for nu in lcfg.grid:
        c = spectral._normalize(windows.periodogram(nu))
        delta = margin * (1.0 + lp + worst)
        if _certified_inside(c, lm - worst + delta, lp + worst - delta):
            continue
        eigs = np.linalg.eigvalsh(c)
        worst = max(worst, lm - float(eigs[0]), float(eigs[-1]) - lp)
    return worst


def _certified_inside(c: np.ndarray, lo: float, hi: float) -> bool:
    """Whether Cholesky factors hi I - C and, when lo > 0, C - lo I.

    C is a coherency matrix, whose diagonal is exactly 1.
    """
    shifted = np.negative(c)
    diagonal = spectral._diagonal(shifted)
    diagonal[...] = hi - 1.0
    try:
        np.linalg.cholesky(shifted)
        if lo > 0.0:
            np.copyto(shifted, c)
            diagonal[...] = 1.0 - lo
            np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _dirichlet_sum(K, delta: float):
    """g_K(delta) = sum_{j=0}^{K-1} exp(-2 i pi j delta), vectorized in K."""
    K = np.asarray(K, dtype=float)
    if abs(delta - round(delta)) < 1e-15:
        return K.astype(complex)
    q = np.exp(-2j * np.pi * delta)
    return (1.0 - q ** K) / (1.0 - q)


def dft_covariance_check(model: ModelSpec, N_list, nu1: float, nu2: float):
    """Exact |E[xi(nu1) conj(xi(nu2))] - s(nu1) delta_{nu1=nu2}| per N.

    Uses the O(N) split over the autocovariance lag u (truncated where
    |r_u| < 1e-16); rows are (N, deviation, deviation * N).
    """
    if not isinstance(N_list, (list, tuple)) or not N_list or not all(
            isinstance(N, numbers.Integral) and not isinstance(N, bool) and N > 0
            for N in N_list):
        raise InvalidArgumentError(
            f"N_list must be a nonempty list of positive integers, got {N_list!r}")
    nu1, nu2 = spectral._check_frequency(nu1), spectral._check_frequency(nu2)
    rows = []
    for N in N_list:
        N = int(N)
        for nu in (nu1, nu2):
            k = nu * N
            if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
                raise InvalidArgumentError(
                    f"frequency {nu} is not on the length-{N} Fourier grid"
                )
        delta = nu1 - nu2
        U = 0
        while U + 1 < N and abs(autocovariance(model, U + 1)) >= 1e-16:
            U += 1
        u = np.arange(0, U + 1)
        r_u = np.array([autocovariance(model, int(x)) for x in u], dtype=complex)
        g_fwd = _dirichlet_sum(N - u, delta)
        fwd = np.sum(r_u * np.exp(-2j * np.pi * u * nu1) * g_fwd)
        v = u[1:]
        g_rev = _dirichlet_sum(N - v, delta)
        rev = np.sum(np.conj(r_u[1:]) * np.exp(2j * np.pi * v * nu2) * g_rev)
        expected = (fwd + rev) / N
        same = abs(delta * N - round(delta * N)) < 1e-9 and round(delta * N) % N == 0
        target = spectral_density(model, nu1) if same else 0.0
        deviation = abs(expected - target)
        rows.append((N, float(deviation), float(deviation * N)))
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# _format_cell of a cell whose type is exactly float or int; bool, a
# subclass of int, is looked up by its own type and so never lands here
_CELL_FORMATS = {float: float.__repr__, int: int.__repr__}


def _metadata_lines(config: dict) -> list[str]:
    return [f"# coherlss {__version__}",
            "# config " + json.dumps(config, sort_keys=True)]


def write_table_csv(path, header, rows, config: dict, extra_comments=()) -> None:
    """CSV with a metadata comment block; floats use shortest round-trip repr."""
    lines = _metadata_lines(config)
    lines.extend(extra_comments)
    lines.append(",".join(header))
    cell_format = _CELL_FORMATS.get
    lines.extend(",".join([cell_format(type(v), _format_cell)(v) for v in row]) for row in rows)
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_json(path, config: dict, summary: dict,
                       artifact: str = "summary") -> None:
    payload = {"artifact": artifact, "version": __version__,
               "config": config, "summary": summary}
    pathlib.Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                                  encoding="utf-8")


def write_sweep_outputs(result: SweepResult, out_dir) -> tuple[pathlib.Path, pathlib.Path]:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    rows = [row for rec in result.records for row in rec.rows]
    rows.extend(result.mean_rows)
    write_table_csv(csv_path, SWEEP_HEADER, rows, result.config,
                    extra_comments=("# rows with seed=-1 are cross-seed means",))
    json_path = out / "sweep_summary.json"
    write_summary_json(json_path, result.config, result.summary, artifact="sweep_summary")
    return csv_path, json_path


def write_scaling_outputs(result: ScalingResult, out_dir) -> tuple[pathlib.Path, pathlib.Path]:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "scaling.csv"
    rows = [[row[name] for name in SCALING_HEADER] for row in result.rows]
    write_table_csv(csv_path, SCALING_HEADER, rows, result.config)
    json_path = out / "scaling_summary.json"
    write_summary_json(json_path, result.config, result.summary, artifact="scaling_summary")
    return csv_path, json_path


def write_histogram_outputs(result: HistogramResult, out_dir) -> tuple[pathlib.Path, pathlib.Path]:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "histogram.csv"
    write_table_csv(csv_path, HISTOGRAM_HEADER, result.rows, result.config)
    json_path = out / "histogram_summary.json"
    write_summary_json(json_path, result.config, result.summary, artifact="histogram_summary")
    return csv_path, json_path
