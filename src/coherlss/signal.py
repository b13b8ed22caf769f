"""Gaussian time-series panels and exact spectra of the generating models.

All models are complex circular Gaussian: N_C(0, s) has independent real and
imaginary parts, each N(0, s/2).  Panels are M x N with independent rows,
each row driven by its own counter-based random stream keyed on
(seed, row index), so generation order cannot change the output.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidArgumentError, check_int, check_real


def _check_seed(seed) -> int:
    """seed as an unsigned 64-bit Python int."""
    return check_int(seed, "seed", low=0, high=2**64 - 1)


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Generating model of a panel row: AR(1) with coefficient theta.

    theta is real with |theta| < 1.  theta = 0 is unit white noise exactly,
    including the sample path for a given seed.  Complex theta is a possible
    extension but is not supported.
    """

    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", check_real(self.theta, "theta", interval=(-1.0, 1.0)))

    @classmethod
    def white_noise(cls) -> "ModelSpec":
        return cls(0.0)

    @classmethod
    def ar1(cls, theta: float) -> "ModelSpec":
        return cls(theta)

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


def _frequencies(nu) -> np.ndarray:
    """nu as a float array: a scalar through check_real, an array only when
    every entry is finite, so no NaN or inf reaches np.cos or np.sin."""
    if not isinstance(nu, np.ndarray) and np.ndim(nu) == 0:
        return np.asarray(check_real(nu, "frequency"))
    nu_arr = np.asarray(nu, dtype=float)
    if not np.isfinite(nu_arr).all():
        raise InvalidArgumentError("every frequency must be a finite real number")
    return nu_arr


def spectral_density(model: ModelSpec, nu):
    """Spectral density s(nu) of the model, 1-periodic, strictly positive.

    For ar1 with coefficient theta: s(nu) = 1 / |1 - theta e^{-2 i pi nu}|^2.
    Accepts a finite real scalar or an array of them.
    """
    nu_arr = _frequencies(nu)
    if model.is_white:
        out = np.ones_like(nu_arr)
    else:
        th = model.theta
        out = 1.0 / (1.0 - 2.0 * th * np.cos(2.0 * np.pi * nu_arr) + th * th)
    return float(out) if nu_arr.ndim == 0 else out


def spectral_density_derivative(model: ModelSpec, nu):
    """Derivative ds/dnu; equals -4 pi theta sin(2 pi nu) * s(nu)^2 for ar1."""
    nu_arr = _frequencies(nu)
    if model.is_white:
        out = np.zeros_like(nu_arr)
    else:
        th = model.theta
        den = 1.0 - 2.0 * th * np.cos(2.0 * np.pi * nu_arr) + th * th
        out = -4.0 * np.pi * th * np.sin(2.0 * np.pi * nu_arr) / (den * den)
    return float(out) if nu_arr.ndim == 0 else out


def autocovariance(model: ModelSpec, u: int) -> float:
    """Autocovariance r_u of the model at an integer lag u, negative lags
    included: r_{-u} = conj(r_u) = r_u for real theta.

    ar1 closed form: r_u = theta^|u| / (1 - theta^2).
    """
    u = check_int(u, "lag", low=None)
    if model.is_white:
        return 1.0 if u == 0 else 0.0
    th = model.theta
    return th ** abs(u) / (1.0 - th * th)


def _complex_normal(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    """n draws of N_C(0, variance): independent re/im parts, each N(0, variance/2)."""
    # consecutive normal pairs are the (re, im) of one draw
    z = rng.standard_normal(2 * n).view(np.complex128)
    z *= math.sqrt(variance / 2.0)
    return z


def _row_stream(bit_generator: np.random.Philox, seed: int, row: int) -> None:
    """Reset the Philox to the stream of key (seed, row): a zero counter and
    an empty buffer, the state of a fresh Philox(key=[seed, row])."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed, row], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }


def simulate_panel(model: ModelSpec, M: int, N: int, seed: int) -> TimeSeriesPanel:
    """Draw an M x N panel of independent rows under the model.

    AR(1) rows start from the exact stationary law y_0 ~ N_C(0, 1/(1-theta^2))
    (no burn-in), then y_n = theta y_{n-1} + eps_n with eps_n ~ N_C(0, 1).
    Deterministic given (model, M, N, seed); row m depends only on (seed, m).
    """
    M, N, seed = check_int(M, "M"), check_int(N, "N"), _check_seed(seed)
    data = np.empty((M, N), dtype=np.complex128)
    th = model.theta
    y0 = np.empty(M, dtype=np.complex128)
    # one bit generator for the panel, reset to each row's key: building a
    # Philox per row costs several times more than the reset
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    # each normal pair is the (re, im) of an N_C(0, 1) draw, scaled once below
    parts = data.view(np.float64)
    for m in range(M):
        _row_stream(bit_generator, seed, m)
        if not model.is_white:
            y0[m] = _complex_normal(rng, 1, 1.0 / (1.0 - th * th))[0]
        rng.standard_normal(out=parts[m])
    parts *= math.sqrt(0.5)
    if not model.is_white:
        # y_n = eps_n + theta y_{n-1}, one time step at a time across all
        # rows, in place over the innovations: no second panel-sized buffer
        carry = th * y0
        for n in range(N):
            column = data[:, n]
            column += carry
            np.multiply(column, th, out=carry)
    return TimeSeriesPanel(data=data, model=model, seed=seed)
