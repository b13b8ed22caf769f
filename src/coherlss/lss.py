"""Corrected linear spectral statistics of coherency matrices.

For a coherency matrix C(nu) built from an M x N panel with smoothing span B,
the raw statistic is

    lss_raw(nu) = (1/M) tr f(C(nu)) - int f dmu_MP^{c_N},   c_N = M/(B+1),

and the corrected statistic subtracts the deterministic O((B/N)^2) term

    psi(nu) = lss_raw(nu) - r(nu) * phi(f) * v_N * [alpha > 2/3],

where v_N = (1/(B+1)) sum_{|b|<=B/2} (b/N)^2, phi(f) = <D, f> is the
distribution action of the p-transform at c_N, and r(nu) is either the model
value ((1/M) sum_m s'_m/s_m)^2 (oracle) or its lag-window plug-in estimate
(plugin).  The correction is only active when the smoothing span grows fast
enough, B ~ N^alpha with alpha > 2/3; below that the term is asymptotically
negligible and is suppressed.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import rmt, spectral
from .errors import (
    ConfigError,
    DegenerateEstimateError,
    DomainError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .rmt import MPModel, SpectralFunction, spectral_function
from .signal import ModelSpec, TimeSeriesPanel, spectral_density, spectral_density_derivative

CORRECTION_MODES = ("none", "oracle", "plugin")

# r-hat floor: rows whose lag-window density estimate falls below this
# fraction of the best row are floored instead of dividing by ~0
_S_FLOOR_FRACTION = 1e-6
_LOG_EIG_FLOOR = 1e-12
# diag(S) range in which the squared moduli of S neither underflow nor overflow
_DIAG_RANGE = (2.0 ** -400, 2.0 ** 400)
_DEFAULT_GRID_SIZE = 512


def _check_positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value}")
    return value


def check_alpha(alpha) -> float:
    """The growth exponent of B = N^alpha as a float in (1/2, 1)."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.5 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (1/2, 1), got {alpha!r}")
    return float(alpha)


def default_lag_window_size(N: int) -> int:
    """Bandwidth L = round(N^(1/7))."""
    return max(1, int(round(N ** (1.0 / 7))))


def grid_stride(N: int, stride: int | None = None) -> int:
    """The validated stride, by default the smallest keeping <= 512 points."""
    if stride is None:
        return max(1, math.ceil(N / _DEFAULT_GRID_SIZE))
    return _check_positive_int(stride, "grid stride")


def default_grid(N: int, stride: int | None = None) -> tuple:
    """Fourier frequencies k*stride/N, stride keeping the grid at <= 512 points."""
    N = _check_positive_int(N, "N")
    return tuple(float(k) / N for k in range(0, N, grid_stride(N, stride)))


@dataclasses.dataclass(frozen=True)
class LssConfig:
    """Validated parameter set for one statistic run.

    alpha defaults to log B / log N (the observable stand-in for the growth
    exponent of B = N^alpha); L defaults to the lag-window bandwidth for an
    AR-type model; grid defaults to a <=512-point Fourier subgrid.
    """

    N: int
    B: int
    M: int
    alpha: float | None = None
    L: int | None = None
    f: SpectralFunction | str = "square_centered"
    correction_mode: str = "oracle"
    grid: tuple | None = None

    def __post_init__(self):
        N = _check_positive_int(self.N, "N")
        B = _check_positive_int(self.B, "B")
        M = _check_positive_int(self.M, "M")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "M", M)
        if B % 2 != 0:
            raise ConfigError(f"B must be even, got {B}")
        c = M / (B + 1)
        if not 0.0 < c < 1.0:
            raise ConfigError(f"c_N = M/(B+1) must lie in (0, 1), got {c:.6g}")
        if N < 2:
            raise ConfigError("N must be at least 2")
        if B + 1 > N:
            raise ConfigError(f"the window of B+1={B + 1} DFT columns must not exceed N={N}")

        alpha = self.alpha
        if alpha is None:
            alpha = math.log(B) / math.log(N)
        object.__setattr__(self, "alpha", check_alpha(alpha))

        L = self.L
        if L is None:
            L = default_lag_window_size(N)
        L = _check_positive_int(L, "L")
        if L >= N:
            raise ConfigError(f"L must satisfy 1 <= L < N, got L={L}, N={N}")
        object.__setattr__(self, "L", L)

        try:
            f = spectral_function(self.f)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "f", f)

        if self.correction_mode not in CORRECTION_MODES:
            raise ConfigError(
                f"correction_mode must be one of {CORRECTION_MODES}, got {self.correction_mode!r}"
            )

        grid = self.grid
        if grid is None:
            grid = default_grid(N)
        else:
            try:
                grid = tuple(spectral._check_frequency(nu) for nu in grid)
            except (InvalidArgumentError, TypeError) as exc:
                raise ConfigError(f"grid must be a sequence of frequencies: {exc}") from exc
            if not grid:
                raise ConfigError("grid must be nonempty")
        object.__setattr__(self, "grid", grid)

    @property
    def c_N(self) -> float:
        return self.M / (self.B + 1)

    @property
    def correction_active(self) -> bool:
        return self.alpha > 2.0 / 3.0

    @property
    def grid_array(self) -> np.ndarray:
        return np.asarray(self.grid, dtype=float)


@dataclasses.dataclass(frozen=True)
class LssRecord:
    """One evaluated frequency: raw statistic, correction pieces, psi."""

    nu: float
    lss_raw: float
    v_n: float
    u_n: float
    r_term: float
    phi: float
    psi: float
    mode: str
    floored: int = 0


def hermitian_eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues; rejects inputs that are not finite, numeric and
    Hermitian to 1e-10.

    A SpectralMatrix is trusted: its constructor checked it to 1e-12 and its
    values are read-only.
    """
    if isinstance(A, spectral.SpectralMatrix):
        return np.linalg.eigvalsh(A.values)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {A.shape}")
    if A.dtype.kind not in "biufc":
        raise InvalidArgumentError(f"expected a numeric matrix, got dtype {A.dtype}")
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError("matrix entries must be finite")
    defect = np.linalg.norm(A - A.conj().T)
    if defect > 1e-10 * max(1.0, np.linalg.norm(A)):
        raise InvalidArgumentError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh(A)


def _mean_f(eigs: np.ndarray, f: SpectralFunction) -> float:
    """(1/M) sum_i f(lambda_i) of ascending eigenvalues; log demands
    eigenvalues > 1e-12, loudly."""
    if f.positive_domain:
        low = float(eigs[0])
        if low <= _LOG_EIG_FLOOR:
            raise DomainError(
                f"{f.label} trace functional needs eigenvalues > {_LOG_EIG_FLOOR}, got {low:.3e}",
                value=low,
            )
    return float(np.mean(f(eigs)))


def trace_functional(C, f) -> float:
    """(1/M) sum_i f(lambda_i(C)).  log demands eigenvalues > 1e-12, loudly."""
    return _mean_f(hermitian_eigenvalues(C), spectral_function(f))


def v_n(B: int, N: int) -> float:
    """(1/(B+1)) sum_{b=-B/2}^{B/2} (b/N)^2, by direct summation."""
    if B % 2 != 0 or B < 0:
        raise InvalidArgumentError(f"B must be a nonnegative even integer, got {B}")
    if N < 1:
        raise InvalidArgumentError(f"N must be positive, got {N}")
    half = B // 2
    b = np.arange(-half, half + 1, dtype=float)
    return float(np.mean((b / N) ** 2))


def u_n(B: int, N: int) -> float:
    """Convergence rate 1/B + sqrt(B)/N + (B/N)^3 of the corrected statistic."""
    if B < 1 or N < 1:
        raise InvalidArgumentError("B and N must be positive")
    return 1.0 / B + math.sqrt(B) / N + (B / N) ** 3


def r_n_true(model: ModelSpec, M: int, nu):
    """Model value ((1/M) sum_m s'_m/s_m)^2; rows share one model here."""
    ratio = spectral_density_derivative(model, nu) / spectral_density(model, nu)
    out = ratio ** 2
    return float(out) if np.isscalar(nu) or np.asarray(nu).ndim == 0 else out


def r_hat_grid(panel: TimeSeriesPanel, L: int, nus: np.ndarray,
               strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in estimate of r at each frequency and its count of floored rows.

    Where every row's density estimate is <= 0, r cannot be formed: strict
    raises DegenerateEstimateError, and otherwise r is NaN there, with no
    floored row.
    """
    s, sp = spectral.lag_window_grid(spectral.lag_covariances(panel.data, L), nus)
    s_max = s.max(axis=0)
    degenerate = s_max <= 0.0
    if strict and degenerate.any():
        bad = np.flatnonzero(degenerate)
        k = bad[0]
        raise DegenerateEstimateError(
            f"all lag-window density estimates are nonpositive at {bad.size} of {s_max.size} "
            f"frequencies (L={L}); the first is nu={float(nus[k])!r}, where the largest row "
            f"estimate is {s_max[k]:.3e}"
        )
    # a degenerate frequency divides by 1 instead of ~0, and its r is dropped
    floor = np.where(degenerate, 1.0, _S_FLOOR_FRACTION * s_max)
    ratio = sp / np.maximum(s, floor)
    # a mean along the contiguous axis sums in the same order as the 1-D mean
    # over one frequency's rows; the square is taken on Python floats (libm
    # pow), which can differ from numpy's x * x in the last bit, so that
    # output files stay byte-stable
    means = np.mean(np.ascontiguousarray(ratio.T), axis=1)
    r = np.array([m ** 2 for m in means.tolist()])
    r[degenerate] = np.nan
    return r, np.where(degenerate, 0, np.count_nonzero(s < floor, axis=0))


_MP_CACHE: dict = {}


def mp_integral_value(c: float, f) -> float:
    f = spectral_function(f)
    key = (float(c), f)
    if key not in _MP_CACHE:
        _MP_CACHE[key] = rmt.mp_integral(MPModel(c), f)
    return _MP_CACHE[key]


def phi_value(c: float, f) -> float:
    """phi(f) = <D, f>, the frequency-independent correction factor."""
    return rmt.distribution_action("p", MPModel(c), f)


def assemble_psi(lss_raw, r_term, phi: float, vn: float, active: bool):
    # single assembly point, scalar or elementwise, so psi is the same bits
    # whichever entry point produced it
    return lss_raw - r_term * phi * vn * (1.0 if active else 0.0)


def _raw_at(s: np.ndarray, f: SpectralFunction, mp_val: float) -> float:
    """lss_raw from a smoothed periodogram S; overwrites s.

    For square_centered no coherency matrix is formed: C - I has the
    entries S_ij / sqrt(S_ii S_jj) off the diagonal and 0 on it, so
    (1/M) tr (C - I)^2 = (1/M) sum_{i != j} |S_ij|^2 / (S_ii S_jj), which is
    u^T X u / M with u = 1/diag(S) and X the squared moduli of S with a zero
    diagonal. One min and one max of diag(S) serve both its positivity
    check and its range check. Other f take the eigenvalues of C.
    """
    m = s.shape[0]
    if f.kind == "square_centered":
        diagonal = spectral._diagonal(s)
        diag = diagonal.real
        low, high = float(diag.min()), float(diag.max())
        if low <= 0.0:
            spectral._positive_diagonal(s)  # raises DegenerateSpectrumError
        if low < _DIAG_RANGE[0] or high > _DIAG_RANGE[1]:
            # |S_ij|^2 would underflow or overflow; rows and columns scaled
            # by exact powers of two bring diag(S) into [1/2, 2) and leave
            # every ratio |S_ij|^2 / (S_ii S_jj) as it was (diag is a view)
            p = np.ldexp(1.0, -(np.frexp(diag)[1] // 2))
            s *= np.outer(p, p)
        u = 1.0 / diag
        diagonal[...] = 0.0
        x = s.view(np.float64)
        x *= x
        value = float(u @ (x @ u.repeat(2))) / m
    else:
        value = _mean_f(np.linalg.eigvalsh(spectral._normalize(s)), f)
    raw = value - mp_val
    if not math.isfinite(raw):
        raise NumericalFailureError(f"non-finite {f.label} statistic {raw!r}")
    return raw


def _raw_grid(panel: TimeSeriesPanel, cfg: LssConfig, nus: np.ndarray) -> np.ndarray:
    """lss_raw at each frequency, each from its own window alone, so a
    frequency gets the same bits on any grid and from psi_at.

    One FFT table, built at the first on-grid frequency, serves the grid;
    an off-grid frequency walks a frequency-shifted table of its own.
    """
    mp_val = mp_integral_value(cfg.c_N, cfg.f)
    windows = spectral._Windows(panel, cfg.B)
    return np.array([_raw_at(windows.periodogram(nu), cfg.f, mp_val) for nu in nus.tolist()])


def sup_abs(nu: np.ndarray, values) -> tuple[float, float]:
    """(max |values|, its frequency), skipping NaN values, and (NaN, NaN)
    when every value is NaN; ties break to the smallest frequency, so the
    result is independent of grid ordering."""
    a = np.abs(values)
    defined = a[~np.isnan(a)]
    if not defined.size:
        return math.nan, math.nan
    best = defined.max()
    return float(best), float(np.min(nu[a == best]))


def _check_panel_matches(panel: TimeSeriesPanel, cfg: LssConfig):
    if not isinstance(panel, TimeSeriesPanel):
        raise InvalidArgumentError(f"need a TimeSeriesPanel, got {type(panel).__name__}")
    if panel.M != cfg.M or panel.N != cfg.N:
        raise InvalidArgumentError(
            f"panel is {panel.M} x {panel.N} but the config expects {cfg.M} x {cfg.N}"
        )


def _records(cfg: LssConfig, nus: np.ndarray, raw: np.ndarray,
             panel: TimeSeriesPanel) -> list[LssRecord]:
    """LssRecords at nus, computing only the r that cfg.correction_mode needs."""
    floored = np.zeros(len(nus), dtype=int)
    if cfg.correction_mode == "none":
        r = np.zeros(len(nus))
    elif cfg.correction_mode == "oracle":
        r = r_n_true(panel.model, cfg.M, nus)
    else:
        r, floored = r_hat_grid(panel, cfg.L, nus)
    vn = v_n(cfg.B, cfg.N)
    un = u_n(cfg.B, cfg.N)
    phi = phi_value(cfg.c_N, cfg.f)
    psi = assemble_psi(raw, r, phi, vn, cfg.correction_active)
    return [
        LssRecord(nu=nu_k, lss_raw=raw_k, v_n=vn, u_n=un, r_term=r_k, phi=phi, psi=psi_k,
                  mode=cfg.correction_mode, floored=fl_k)
        for nu_k, raw_k, r_k, psi_k, fl_k in zip(
            nus.tolist(), raw.tolist(), r.tolist(), psi.tolist(), floored.tolist())
    ]


def psi_at(panel: TimeSeriesPanel, cfg: LssConfig, nu: float) -> LssRecord:
    """Evaluate one frequency of a panel, with the same bits as that
    frequency's record on any grid.

    Oracle mode takes r from the panel's model; plugin mode estimates it
    from the panel's data.
    """
    _check_panel_matches(panel, cfg)
    nus = np.array([spectral._check_frequency(nu)])
    return _records(cfg, nus, _raw_grid(panel, cfg, nus), panel)[0]


class Sweep(NamedTuple):
    """The whole grid of one panel, one array entry per frequency, with
    both corrections: psi takes the oracle r and psi_hat the plug-in r,
    whatever the config's correction_mode.  v_n and phi are the scalars
    both share; floored counts r-hat's floored rows.  Unless the mode is
    plugin, r_plugin and psi_hat are NaN where every row's lag-window
    density estimate is <= 0 (see r_hat_grid)."""

    nu: np.ndarray
    lss_raw: np.ndarray
    v_n: float
    r_oracle: np.ndarray
    r_plugin: np.ndarray
    phi: float
    psi: np.ndarray
    psi_hat: np.ndarray
    floored: np.ndarray


def sweep_panel(panel: TimeSeriesPanel, cfg: LssConfig) -> Sweep:
    """Evaluate the whole grid with shared DFT and lag-window tables."""
    _check_panel_matches(panel, cfg)
    nus = cfg.grid_array
    raw = _raw_grid(panel, cfg, nus)
    r_oracle = r_n_true(panel.model, cfg.M, nus)
    r_plugin, floored = r_hat_grid(panel, cfg.L, nus, strict=cfg.correction_mode == "plugin")
    vn = v_n(cfg.B, cfg.N)
    phi = phi_value(cfg.c_N, cfg.f)
    return Sweep(
        nu=nus, lss_raw=raw, v_n=vn, r_oracle=r_oracle, r_plugin=r_plugin, phi=phi,
        psi=assemble_psi(raw, r_oracle, phi, vn, cfg.correction_active),
        psi_hat=assemble_psi(raw, r_plugin, phi, vn, cfg.correction_active),
        floored=floored,
    )


def sup_over_grid(panel: TimeSeriesPanel, cfg: LssConfig) -> tuple[float, float, list[LssRecord]]:
    """(max |psi| over the grid, its frequency, all records)."""
    _check_panel_matches(panel, cfg)
    nus = cfg.grid_array
    raw = _raw_grid(panel, cfg, nus)
    records = _records(cfg, nus, raw, panel)
    best, best_nu = sup_abs(nus, [rec.psi for rec in records])
    return best, best_nu, records
