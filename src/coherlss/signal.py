"""Gaussian time-series panels and exact spectra of the generating models.

All models are complex circular Gaussian: N_C(0, s) has independent real and
imaginary parts, each N(0, s/2).  Panels are M x N with independent rows,
each row driven by its own counter-based random stream keyed on
(seed, row index), so generation order cannot change the output.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidArgumentError

MODEL_KINDS = ("white_noise", "ar1")

_SEED_MODULUS = 2**64


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidArgumentError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < _SEED_MODULUS:
        raise InvalidArgumentError("seed must fit in an unsigned 64-bit integer")
    return seed


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Generating model of a panel row: unit white noise or AR(1).

    theta is the AR(1) coefficient (real, |theta| < 1).  theta = 0 reduces
    ar1 to white_noise exactly, including the sample path for a given seed.
    gamma0 >= 3 is the regularity exponent that drives the default
    lag-window size L ~ N**(1/(2*gamma0+1)).  Complex theta is a possible
    extension but is not supported.
    """

    kind: str
    theta: float = 0.0
    gamma0: int = 3

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidArgumentError(
                f"kind must be one of {MODEL_KINDS}, got {self.kind!r}"
            )
        if isinstance(self.theta, bool) or not isinstance(self.theta, numbers.Real):
            raise InvalidArgumentError(f"theta must be a real number, got {self.theta!r}")
        theta = float(self.theta)
        object.__setattr__(self, "theta", theta)
        if self.kind == "white_noise" and theta != 0.0:
            raise InvalidArgumentError("white_noise does not take a theta")
        if abs(theta) >= 1.0:
            raise InvalidArgumentError(f"|theta| < 1 required, got {theta}")
        if not isinstance(self.gamma0, (int, np.integer)) or self.gamma0 < 3:
            raise InvalidArgumentError(f"gamma0 must be an integer >= 3, got {self.gamma0}")
        object.__setattr__(self, "gamma0", int(self.gamma0))

    @classmethod
    def white_noise(cls, gamma0: int = 3) -> "ModelSpec":
        return cls("white_noise", 0.0, gamma0)

    @classmethod
    def ar1(cls, theta: float, gamma0: int = 3) -> "ModelSpec":
        return cls("ar1", theta, gamma0)

    @property
    def is_white(self) -> bool:
        # ar1 with theta = 0 is white noise exactly
        return self.theta == 0.0


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a validated array: no copy, and the caller's
    array keeps its own flags."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclasses.dataclass(frozen=True)
class TimeSeriesPanel:
    """M x N complex sample matrix with its generating model and seed.

    ``data`` is a read-only view, so the validated samples cannot be
    changed through the panel.
    """

    data: np.ndarray
    model: ModelSpec
    seed: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidArgumentError(f"panel data must be M x N with M, N >= 1, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("panel data must be finite (no NaN or inf)")
        object.__setattr__(self, "data", _read_only(data))
        object.__setattr__(self, "seed", _check_seed(self.seed))

    @property
    def M(self) -> int:
        return self.data.shape[0]

    @property
    def N(self) -> int:
        return self.data.shape[1]


def spectral_density(model: ModelSpec, nu):
    """Spectral density s(nu) of the model, 1-periodic, strictly positive.

    For ar1 with coefficient theta: s(nu) = 1 / |1 - theta e^{-2 i pi nu}|^2.
    Accepts scalars or arrays.
    """
    nu_arr = np.asarray(nu, dtype=float)
    if model.is_white:
        out = np.ones_like(nu_arr)
    else:
        th = model.theta
        out = 1.0 / (1.0 - 2.0 * th * np.cos(2.0 * np.pi * nu_arr) + th * th)
    return float(out) if np.isscalar(nu) or nu_arr.ndim == 0 else out


def spectral_density_derivative(model: ModelSpec, nu):
    """Derivative ds/dnu; equals -4 pi theta sin(2 pi nu) * s(nu)^2 for ar1."""
    nu_arr = np.asarray(nu, dtype=float)
    if model.is_white:
        out = np.zeros_like(nu_arr)
    else:
        th = model.theta
        den = 1.0 - 2.0 * th * np.cos(2.0 * np.pi * nu_arr) + th * th
        out = -4.0 * np.pi * th * np.sin(2.0 * np.pi * nu_arr) / (den * den)
    return float(out) if np.isscalar(nu) or nu_arr.ndim == 0 else out


def autocovariance(model: ModelSpec, u: int) -> float:
    """Autocovariance r_u of the model; r_{-u} = conj(r_u) = r_u for real theta.

    ar1 closed form: r_u = theta^|u| / (1 - theta^2).
    """
    u = int(u)
    if model.is_white:
        return 1.0 if u == 0 else 0.0
    th = model.theta
    return th ** abs(u) / (1.0 - th * th)


def _complex_normal(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    """n draws of N_C(0, variance): independent re/im parts, each N(0, variance/2)."""
    g = rng.standard_normal(2 * n)
    scale = math.sqrt(variance / 2.0)
    return scale * (g[0::2] + 1j * g[1::2])


def _row_rng(seed: int, row: int) -> np.random.Generator:
    key = np.array([seed, row], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_panel(model: ModelSpec, M: int, N: int, seed: int) -> TimeSeriesPanel:
    """Draw an M x N panel of independent rows under the model.

    AR(1) rows start from the exact stationary law y_0 ~ N_C(0, 1/(1-theta^2))
    (no burn-in), then y_n = theta y_{n-1} + eps_n with eps_n ~ N_C(0, 1).
    Deterministic given (model, M, N, seed); row m depends only on (seed, m).
    """
    if M < 1 or N < 1:
        raise InvalidArgumentError(f"M, N >= 1 required, got M={M}, N={N}")
    seed = _check_seed(seed)
    data = np.empty((M, N), dtype=np.complex128)
    th = model.theta
    for m in range(M):
        rng = _row_rng(seed, m)
        if model.is_white:
            data[m] = _complex_normal(rng, N, 1.0)
        else:
            y0 = _complex_normal(rng, 1, 1.0 / (1.0 - th * th))[0]
            eps = _complex_normal(rng, N, 1.0)
            row, _ = lfilter([1.0], [1.0, -th], eps, zi=np.array([th * y0]))
            data[m] = row
    return TimeSeriesPanel(data=data, model=model, seed=seed)
