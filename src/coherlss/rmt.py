"""Marcenko-Pastur distribution, its Stieltjes transforms, and the correction
transforms p and p_tilde with numerical evaluation of their distribution
actions.

With c in (0, 1), the MP law has density sqrt((l+ - x)(x - l-)) / (2 pi c x)
on [l-, l+], l+- = (1 +- sqrt(c))^2.  Its Stieltjes transform t(z) solves
c z t^2 + (z - 1 + c) t + 1 = 0 with Im t(z) > 0 for Im z > 0, and
t_tilde(z) = -1 / (z (1 + c t(z))) is the transform of c mu + (1-c) delta_0.
The correction transforms are, with w = z t t_tilde:

    p(z)       = -c w^3 / (1 - c w^2)
    p_tilde(z) = w^2 / (1 - c w^2)   (equals d(z t)/dz)

Each is the Stieltjes transform of a compactly supported distribution; the
action <D, f> is recovered either by the inversion formula
(1/pi) lim_{y->0} int f(x) Im p(x + i y) dx or, for analytic f, by a
clockwise rectangle contour integral (1/(2 pi i)) oint f(z) p(z) dz.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import (
    DomainError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularPointError,
)

FUNCTION_KINDS = ("square_centered", "log", "polynomial", "callable")
TRANSFORM_NAMES = ("p", "p_tilde")

_AXIS_NUDGE = 1e-12
_INVERSION_YS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
_QUAD_MAX_ERROR = 1e-7  # quad's own error estimate, as in mp_integral
_RICHARDSON_MAX_GAP = 1e-3  # between the last two extrapolants
_CONTOUR_NODES = 2048
_CONTOUR_HALF_HEIGHT = 0.5
_MARGIN = 0.1


@dataclasses.dataclass(frozen=True)
class MPModel:
    """Marcenko-Pastur parameter c in (0,1) with support endpoints."""

    c: float

    def __post_init__(self):
        c = float(self.c)
        if not 0.0 < c < 1.0:
            raise InvalidArgumentError(f"c must lie in (0, 1), got {c}")
        object.__setattr__(self, "c", c)

    @property
    def lambda_minus(self) -> float:
        return (1.0 - math.sqrt(self.c)) ** 2

    @property
    def lambda_plus(self) -> float:
        return (1.0 + math.sqrt(self.c)) ** 2


@dataclasses.dataclass(frozen=True)
class SpectralFunction:
    """Test function f acting on spectra, with smoothness metadata.

    ``analytic`` enables the contour method; ``positive_domain`` marks
    functions only defined on (0, inf) (log), enforced for real arguments.
    """

    kind: str
    coefficients: tuple | None = None
    fn: Callable | None = None
    analytic: bool = True
    positive_domain: bool = False
    label: str = ""

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise InvalidArgumentError(f"kind must be one of {FUNCTION_KINDS}, got {self.kind!r}")
        if self.kind == "polynomial":
            if not self.coefficients:
                raise InvalidArgumentError("polynomial needs a nonempty coefficient tuple")
            object.__setattr__(self, "coefficients", tuple(float(a) for a in self.coefficients))
        if self.kind == "callable" and not callable(self.fn):
            raise InvalidArgumentError("callable kind needs fn")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    @classmethod
    def square_centered(cls) -> "SpectralFunction":
        """f(x) = (x - 1)^2."""
        return cls(kind="square_centered")

    @classmethod
    def log(cls) -> "SpectralFunction":
        return cls(kind="log", positive_domain=True)

    @classmethod
    def polynomial(cls, coefficients) -> "SpectralFunction":
        """f(x) = sum_k coefficients[k] * x^k."""
        return cls(kind="polynomial", coefficients=tuple(coefficients))

    @classmethod
    def from_callable(cls, fn, analytic=False, positive_domain=False, label="callable") -> "SpectralFunction":
        return cls(kind="callable", fn=fn, analytic=analytic,
                   positive_domain=positive_domain, label=label)

    def __call__(self, x):
        arr = np.asarray(x)
        if self.positive_domain and not np.iscomplexobj(arr):
            low = float(np.min(arr)) if arr.size else 1.0
            if low <= 0.0:
                raise DomainError(f"{self.label} requires a strictly positive argument, got {low}", value=low)
        if self.kind == "square_centered":
            out = (arr - 1.0) ** 2
        elif self.kind == "log":
            out = np.log(arr)
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(arr, self.coefficients)
        else:
            out = self.fn(arr)
        if np.isscalar(x) or arr.ndim == 0:
            return complex(out) if np.iscomplexobj(np.asarray(out)) else float(out)
        return out


def spectral_function(spec) -> SpectralFunction:
    """Coerce a SpectralFunction or a name ('square_centered' or 'log')."""
    if isinstance(spec, SpectralFunction):
        return spec
    if spec == "square_centered":
        return SpectralFunction.square_centered()
    if spec == "log":
        return SpectralFunction.log()
    raise InvalidArgumentError(f"unknown spectral function {spec!r}")


def mp_density(model: MPModel, lam):
    """MP density at lam; zero outside [lambda_minus, lambda_plus]."""
    lam_arr = np.asarray(lam, dtype=float)
    lm, lp = model.lambda_minus, model.lambda_plus
    inside = (lam_arr >= lm) & (lam_arr <= lp)
    out = np.zeros_like(lam_arr)
    lam_in = np.where(inside, lam_arr, 1.0)
    val = np.sqrt(np.maximum((lp - lam_in) * (lam_in - lm), 0.0)) / (2.0 * np.pi * model.c * lam_in)
    out = np.where(inside, val, 0.0)
    return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out


def mp_integral(model: MPModel, f: SpectralFunction) -> float:
    """int f dmu_MP with the edge square roots removed by x = m + R sin t."""
    lm, lp = model.lambda_minus, model.lambda_plus
    center = 0.5 * (lp + lm)
    radius = 0.5 * (lp - lm)
    scale = radius * radius / (2.0 * np.pi * model.c)

    def integrand(t):
        lam = center + radius * math.sin(t)
        return float(f(lam)) * scale * math.cos(t) ** 2 / lam

    value, err = quad(integrand, -np.pi / 2.0, np.pi / 2.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    if not np.isfinite(value) or err > _QUAD_MAX_ERROR:
        raise NumericalFailureError(f"MP quadrature did not converge (error estimate {err:.2e})")
    return float(value)


def _mp_branch(c: float, z: np.ndarray) -> np.ndarray:
    """Root of c z t^2 + (z-1+c) t + 1 = 0 with Im t > 0, for Im z > 0.

    Stable quadratic formula; the second root comes from t1 t2 = 1/(cz).
    Entries where the sign test fails (it should not) fall back to 8
    fixed-point iterations from t0 = -1/z, which must reach Im t > 0.
    """
    a = c * z
    b = z - 1.0 + c
    root = np.sqrt(b * b - 4.0 * a)
    root = np.where((np.conj(b) * root).real < 0.0, -root, root)
    q = -0.5 * (b + root)
    t1 = q / a
    t2 = 1.0 / q
    t = np.where(t1.imag > 0.0, t1, t2)
    bad = ~(t.imag > 0.0)
    if np.any(bad):
        tb = -1.0 / z
        for _ in range(8):
            tb = 1.0 / (-z + 1.0 / (1.0 + c * tb))
        if not np.all(tb[bad].imag > 0.0):
            raise NumericalFailureError("Stieltjes fallback iteration left Im t <= 0")
        t = np.where(bad, tb, t)
    return t


def _require_upper_half_plane(z) -> np.ndarray:
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr.imag <= 0.0):
        raise InvalidArgumentError("Im z > 0 required")
    return z_arr


def _as_input_shape(z, out):
    return complex(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def mp_stieltjes(model: MPModel, z):
    """Stieltjes transform t(z) of the MP law, Im z > 0.

    Checked against the fixed-point form t = 1/(-z + 1/(1 + c t)).
    """
    z_arr = _require_upper_half_plane(z)
    t = _mp_branch(model.c, z_arr)
    fp = 1.0 / (-z_arr + 1.0 / (1.0 + model.c * t))
    if np.any(np.abs(t - fp) > 1e-12 * (1.0 + np.abs(t))):
        raise NumericalFailureError("Stieltjes branch failed its fixed-point residual check")
    return _as_input_shape(z, t)


def mp_stieltjes_tilde(model: MPModel, z):
    """t_tilde(z) = -1/(z (1 + c t(z))): transform of c mu + (1-c) delta_0."""
    z_arr = _require_upper_half_plane(z)
    t = mp_stieltjes(model, z_arr)
    return _as_input_shape(z, -1.0 / (z_arr * (1.0 + model.c * t)))


def _correction_transform(model: MPModel, z_arr: np.ndarray, which: str) -> np.ndarray:
    """p or p_tilde on the upper half-plane (no reflection)."""
    c = model.c
    t = _mp_branch(c, z_arr)
    tt = -1.0 / (z_arr * (1.0 + c * t))
    w = z_arr * t * tt
    den = 1.0 - c * w * w
    if np.any(np.abs(den) < 1e-14):
        raise SingularPointError("transform evaluated at a (numerical) pole of 1 - c w^2")
    if which == "p":
        return -c * w ** 3 / den
    return w * w / den


def p_stieltjes(model: MPModel, z):
    """Stieltjes transform of the first correction distribution."""
    z_arr = _require_upper_half_plane(z)
    return _as_input_shape(z, _correction_transform(model, z_arr, "p"))


def p_tilde_stieltjes(model: MPModel, z):
    """Stieltjes transform of the second correction distribution, (z t)'."""
    z_arr = _require_upper_half_plane(z)
    return _as_input_shape(z, _correction_transform(model, z_arr, "p_tilde"))


def _transform_anywhere(model: MPModel, z, which: str) -> np.ndarray:
    """p/p_tilde extended off the upper half-plane by Schwarz reflection.

    Points within 1e-12 of the real axis (they sit outside the support on
    the contour) are nudged to Im z = 1e-12.
    """
    z_arr = np.asarray(z, dtype=complex)
    upper = z_arr.imag >= 0.0
    zz = np.where(upper, z_arr, np.conj(z_arr))
    zz = np.where(zz.imag < _AXIS_NUDGE, zz.real + 1j * _AXIS_NUDGE, zz)
    val = _correction_transform(model, zz, which)
    return np.where(upper, val, np.conj(val))


def _action_interval(model: MPModel, f: SpectralFunction) -> tuple[float, float]:
    # the left margin shrinks for positive-domain f so the interval and the
    # contour stay inside the analyticity region of log for every c in (0,1)
    lm, lp = model.lambda_minus, model.lambda_plus
    left = min(_MARGIN, 0.5 * lm) if f.positive_domain else _MARGIN
    return lm - left, lp + _MARGIN


def _action_inversion(model, f, which, a1, a2) -> float:
    lm, lp = model.lambda_minus, model.lambda_plus

    def level(y):
        def integrand(lam):
            val = _correction_transform(model, np.asarray(lam + 1j * y, dtype=complex), which)
            return float(f(lam)) * float(val.imag)

        v, err = quad(integrand, a1, a2, points=[lm, lp], limit=400, epsabs=1e-10, epsrel=1e-10)
        if not err <= _QUAD_MAX_ERROR:
            raise NumericalFailureError(
                f"inversion quadrature at y={y:g} did not converge (error estimate {err:.2e})")
        return v / np.pi

    table = [level(y) for y in _INVERSION_YS]
    for j in range(1, len(table)):
        gap = abs(table[1] - table[0])  # on the last pass: the last two extrapolants
        weight = 2.0 ** j
        table = [(weight * table[k + 1] - table[k]) / (weight - 1.0) for k in range(len(table) - 1)]
    if not gap <= _RICHARDSON_MAX_GAP:
        raise NumericalFailureError(
            f"Richardson extrapolation did not converge (last two extrapolants {gap:.1e} apart)")
    return float(table[0])


def _action_contour(model, f, which, a1, a2) -> float:
    h = _CONTOUR_HALF_HEIGHT
    corners = (a1 + 1j * h, a2 + 1j * h, a2 - 1j * h, a1 - 1j * h, a1 + 1j * h)
    lengths = [abs(corners[i + 1] - corners[i]) for i in range(4)]
    perimeter = sum(lengths)
    total = 0.0 + 0.0j
    for i in range(4):
        za, zb = corners[i], corners[i + 1]
        n_nodes = max(64, int(round(_CONTOUR_NODES * lengths[i] / perimeter)))
        s = np.linspace(0.0, 1.0, n_nodes)
        zs = za + (zb - za) * s
        g = np.asarray(f(zs), dtype=complex) * _transform_anywhere(model, zs, which)
        total += (zb - za) * np.trapezoid(g, s)
    value = total / (2j * np.pi)
    if abs(value.imag) > 1e-6 * (1.0 + abs(value.real)):
        raise NumericalFailureError(
            f"contour action has a nonreal residue {value.imag:.3e}; the path may cross a singularity"
        )
    return float(value.real)


_ACTION_CACHE: dict = {}


def distribution_action(transform: str, model: MPModel, f: SpectralFunction, method: str = "auto") -> float:
    """<D, f> for the distribution behind ``transform`` ('p' or 'p_tilde').

    method='inversion' integrates f * Im(transform) just above the axis at
    y in {1e-2, 5e-3, 2.5e-3, 1.25e-3} and Richardson-extrapolates to y=0;
    method='contour' (analytic f only) integrates f * transform clockwise
    around the support rectangle with a 2048-node trapezoid rule;
    method='auto' picks contour for analytic f.  Values are cached per
    (transform, c, f, method).
    """
    if transform not in TRANSFORM_NAMES:
        raise InvalidArgumentError(f"transform must be one of {TRANSFORM_NAMES}, got {transform!r}")
    f = spectral_function(f)
    if method == "auto":
        method = "contour" if f.analytic else "inversion"
    if method not in ("inversion", "contour"):
        raise InvalidArgumentError(f"method must be 'inversion', 'contour' or 'auto', got {method!r}")
    if method == "contour" and not f.analytic:
        raise InvalidArgumentError("the contour method requires an analytic f")
    a1, a2 = _action_interval(model, f)
    if f.positive_domain and a1 <= 0.0:
        raise DomainError(f"{f.label} action needs a positive interval, got a1 = {a1}", value=a1)
    key = (transform, model.c, f, method)
    if key not in _ACTION_CACHE:
        if method == "inversion":
            _ACTION_CACHE[key] = _action_inversion(model, f, transform, a1, a2)
        else:
            _ACTION_CACHE[key] = _action_contour(model, f, transform, a1, a2)
    return _ACTION_CACHE[key]
