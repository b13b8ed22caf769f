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
)
from .rmt import MPModel, SpectralFunction, spectral_function
from .signal import ModelSpec, TimeSeriesPanel, spectral_density, spectral_density_derivative

CORRECTION_MODES = ("none", "oracle", "plugin")

# r-hat floor: rows whose lag-window density estimate falls below this
# fraction of the best row are floored instead of dividing by ~0
_S_FLOOR_FRACTION = 1e-6
_LOG_EIG_FLOOR = 1e-12
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


def default_lag_window_size(N: int, gamma0: int = 3) -> int:
    """Bandwidth L = round(N^(1/(2*gamma0+1))) for a model of smoothness gamma0."""
    return max(1, int(round(N ** (1.0 / (2 * gamma0 + 1)))))


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
        if f.positive_domain and B + 1 < M:
            raise ConfigError(
                f"f={f.label} needs B+1 >= M (rank-deficient coherency otherwise), got B+1={B + 1}, M={M}"
            )

        if self.correction_mode not in CORRECTION_MODES:
            raise ConfigError(
                f"correction_mode must be one of {CORRECTION_MODES}, got {self.correction_mode!r}"
            )

        grid = self.grid
        if grid is None:
            grid = default_grid(N)
        else:
            grid = tuple(float(nu) for nu in grid)
            if not grid:
                raise ConfigError("grid must be nonempty")
            if not all(np.isfinite(grid)):
                raise ConfigError("grid frequencies must be finite")
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
    """Ascending eigenvalues; rejects inputs that are not Hermitian to 1e-10.

    A SpectralMatrix is trusted: its constructor checked it to 1e-12 and its
    values are read-only.
    """
    if isinstance(A, spectral.SpectralMatrix):
        return np.linalg.eigvalsh(A.values)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {A.shape}")
    defect = np.linalg.norm(A - A.conj().T)
    if defect > 1e-10 * max(1.0, np.linalg.norm(A)):
        raise InvalidArgumentError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh(A)


def trace_functional(C, f) -> float:
    """(1/M) sum_i f(lambda_i(C)).  log demands eigenvalues > 1e-12, loudly."""
    f = spectral_function(f)
    eigs = hermitian_eigenvalues(C)
    if f.positive_domain:
        low = float(eigs[0])
        if low <= _LOG_EIG_FLOOR:
            raise DomainError(
                f"{f.label} trace functional needs eigenvalues > {_LOG_EIG_FLOOR}, got {low:.3e}",
                value=low,
            )
    return float(np.mean(f(eigs)))


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


def r_hat_grid(panel: TimeSeriesPanel, L: int, nus) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in estimate of r at each frequency and its count of floored rows."""
    s, sp = spectral.lag_window_grid(spectral.lag_covariances(panel.data, L), nus)
    s_max = s.max(axis=0)
    if np.any(s_max <= 0.0):
        raise DegenerateEstimateError("all lag-window density estimates are nonpositive")
    floor = _S_FLOOR_FRACTION * s_max
    ratio = sp / np.maximum(s, floor)
    # a mean along the contiguous axis sums in the same order as the 1-D mean
    # over one frequency's rows; the square is taken on Python floats (libm
    # pow), which can differ from numpy's x * x in the last bit, so that
    # output files stay byte-stable
    means = np.mean(np.ascontiguousarray(ratio.T), axis=1)
    r = np.array([m ** 2 for m in means.tolist()])
    return r, np.count_nonzero(s < floor, axis=0)


def r_n_hat(panel: TimeSeriesPanel, L: int, nu: float) -> float:
    """Plug-in estimate of r at one frequency."""
    if not 1 <= L < panel.N:
        raise InvalidArgumentError(f"L must satisfy 1 <= L < N, got L={L}, N={panel.N}")
    return float(r_hat_grid(panel, L, [nu])[0][0])


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


def coherencies(panel: TimeSeriesPanel, nus, B: int, table: np.ndarray | None = None):
    """Yield the coherency matrix C(nu) at each frequency in turn.

    Pass a dft_grid table to share one FFT across on-grid frequencies;
    without one, each frequency computes its own DFT columns.
    """
    for nu in nus:
        yield spectral.coherency_matrix(spectral.smoothed_periodogram(panel, float(nu), B, grid=table))


def _lss_raw(cfg: LssConfig, matrices) -> np.ndarray:
    mp_val = mp_integral_value(cfg.c_N, cfg.f)
    return np.array([trace_functional(C, cfg.f) - mp_val for C in matrices])


def sup_abs(nu: np.ndarray, values) -> tuple[float, float]:
    """(max |values|, its frequency); ties break to the smallest frequency,
    so the result is independent of grid ordering."""
    a = np.abs(values)
    best = a.max()
    return float(best), float(np.min(nu[a == best]))


def _check_panel_matches(panel: TimeSeriesPanel, cfg: LssConfig):
    if panel.M != cfg.M or panel.N != cfg.N:
        raise InvalidArgumentError(
            f"panel is {panel.M} x {panel.N} but the config expects {cfg.M} x {cfg.N}"
        )


def _records(cfg: LssConfig, nus: np.ndarray, raw: np.ndarray,
             panel: TimeSeriesPanel | None, model: ModelSpec | None) -> list[LssRecord]:
    """LssRecords at nus, computing only the r that cfg.correction_mode needs."""
    floored = np.zeros(len(nus), dtype=int)
    if cfg.correction_mode == "none":
        r = np.zeros(len(nus))
    elif cfg.correction_mode == "oracle":
        if model is None:
            raise InvalidArgumentError("oracle correction needs a model")
        r = r_n_true(model, cfg.M, nus)
    else:
        if panel is None:
            raise InvalidArgumentError("plugin correction needs the panel, not just C(nu)")
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


def psi_at(source, cfg: LssConfig, nu: float, model: ModelSpec | None = None) -> LssRecord:
    """Evaluate one frequency from a panel or a precomputed coherency matrix.

    Oracle mode needs a model (taken from the panel when available); plugin
    mode needs the panel itself, since r-hat is estimated from the data.
    """
    nus = np.array([float(nu)])
    panel = None
    if isinstance(source, TimeSeriesPanel):
        panel = source
        _check_panel_matches(panel, cfg)
        if model is None:
            model = panel.model
        matrices = coherencies(panel, nus, cfg.B)
    elif isinstance(source, spectral.SpectralMatrix):
        C = source
        if C.kind != "coherency":
            raise InvalidArgumentError(f"need a coherency matrix, got kind={C.kind!r}")
        if C.B != cfg.B:
            raise InvalidArgumentError(f"matrix was smoothed with B={C.B}, config has B={cfg.B}")
        if abs(C.nu - nu) > 1e-12:
            raise InvalidArgumentError(f"matrix frequency {C.nu} does not match nu={nu}")
        if C.values.shape[0] != cfg.M:
            raise InvalidArgumentError(
                f"matrix is {C.values.shape[0]} x {C.values.shape[0]}, config expects M={cfg.M}"
            )
        matrices = [C]
    else:
        raise InvalidArgumentError("source must be a TimeSeriesPanel or a coherency SpectralMatrix")
    return _records(cfg, nus, _lss_raw(cfg, matrices), panel, model)[0]


class Sweep(NamedTuple):
    """lss_raw, both candidate r terms and r-hat's floored-row count, one
    array entry per grid frequency."""

    nu: np.ndarray
    lss_raw: np.ndarray
    r_oracle: np.ndarray
    r_plugin: np.ndarray
    floored: np.ndarray


def sweep_panel(panel: TimeSeriesPanel, cfg: LssConfig) -> Sweep:
    """Evaluate the whole grid with shared DFT and lag-window tables."""
    _check_panel_matches(panel, cfg)
    nus = cfg.grid_array
    raw = _lss_raw(cfg, coherencies(panel, nus, cfg.B, spectral.dft_grid(panel)))
    r_hat, floored = r_hat_grid(panel, cfg.L, nus)
    return Sweep(nus, raw, r_n_true(panel.model, cfg.M, nus), r_hat, floored)


def sup_over_grid(panel: TimeSeriesPanel, cfg: LssConfig) -> tuple[float, float, list[LssRecord]]:
    """(max |psi| over the grid, its frequency, all records)."""
    _check_panel_matches(panel, cfg)
    nus = cfg.grid_array
    raw = _lss_raw(cfg, coherencies(panel, nus, cfg.B, spectral.dft_grid(panel)))
    records = _records(cfg, nus, raw, panel, panel.model)
    best, best_nu = sup_abs(nus, [rec.psi for rec in records])
    return best, best_nu, records
