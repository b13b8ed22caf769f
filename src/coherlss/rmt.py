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

Each is the Stieltjes transform of a distribution on [l-, l+], whose
action <D, f> is (1/pi) int f(x) Im p(x + i0) dx over the support.  With
x = m + R cos(theta), m and R the centre and half-width of the support, the
boundary value is closed-form: t(x + i0) = (1 - c - x + i R sin(theta)) /
(2 c x) and w = -t / (1 + c t).  The factor R sin(theta) of dx cancels the
inverse-square-root edges of Im p, so for analytic f the integrand is
smooth in theta and the adaptive rule resolves it from one interval.  The
MP law is the distribution behind t itself, so int f dmu_MP is the same
integral with t in place of p (mp_integral): one rule for every integral
over the support.  For analytic f the action is also the clockwise
rectangle contour integral (1/(2 pi i)) oint f(z) p(z) dz.

Quadrature is numpy only, so a callable f must accept numpy arrays on
every route; distribution_action states each route's rule and check.  The
public transforms return finite values, or raise NumericalFailureError
where an intermediate over- or underflows (near z = 0).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularPointError,
    check_real,
)

FUNCTION_KINDS = ("square_centered", "log", "polynomial", "callable")
TRANSFORM_NAMES = ("p", "p_tilde")

_AXIS_NUDGE = 1e-12
_QUAD_MAX_ERROR = 1e-7  # bound on the integrator's own error estimate
_FIRST_PASS_INTERVALS = 1280  # qk21 nodes are then <= pi / 16384 apart
_REFINE_INTERVALS = 400  # bisections allowed beyond the first pass
_CONTOUR_NODES = 2048
_CONTOUR_MAX_GAP = 1e-3  # against half the nodes, relative to 1 + |value|
_CONTOUR_HALF_HEIGHT = 0.5
_MARGIN = 0.1


@dataclasses.dataclass(frozen=True)
class MPModel:
    """Marcenko-Pastur parameter c in (0,1) with support endpoints."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", check_real(self.c, "c", interval=(0.0, 1.0)))

    @property
    def lambda_minus(self) -> float:
        return (1.0 - math.sqrt(self.c)) ** 2

    @property
    def lambda_plus(self) -> float:
        return (1.0 + math.sqrt(self.c)) ** 2


@dataclasses.dataclass(frozen=True)
class SpectralFunction:
    """Test function f acting on spectra, with smoothness metadata.

    ``analytic`` (by default True, but False for a callable) enables the contour
    method; ``positive_domain`` marks functions only defined on (0, inf)
    (log), enforced for real arguments.
    """

    kind: str
    coefficients: tuple | None = None
    fn: Callable | None = None
    analytic: bool | None = None
    positive_domain: bool = False
    label: str = ""

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise InvalidArgumentError(f"kind must be one of {FUNCTION_KINDS}, got {self.kind!r}")
        if self.kind == "polynomial":
            if not isinstance(self.coefficients, (tuple, list)) or not self.coefficients:
                raise InvalidArgumentError(
                    f"polynomial needs a nonempty coefficient tuple, got {self.coefficients!r} "
                    "(SpectralFunction.polynomial takes any iterable)")
            object.__setattr__(self, "coefficients", tuple(
                check_real(a, "polynomial coefficient") for a in self.coefficients))
        if self.kind == "callable" and not callable(self.fn):
            raise InvalidArgumentError("callable kind needs fn")
        if self.analytic is None:
            object.__setattr__(self, "analytic", self.kind != "callable")
        if not self.label:
            object.__setattr__(self, "label", self.kind)
        try:
            hash(self)  # the action cache is keyed by f
        except TypeError as exc:
            raise InvalidArgumentError(f"a spectral function must be hashable: {exc}") from exc

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


# QUADPACK's qk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod nodes in (0, 1] with their weights; the odd entries are the nodes
# of the embedded 10-point Gauss rule, whose weights are _GAUSS_WEIGHTS
_KRONROD_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208445218080, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_KRONROD_CENTER_WEIGHT = 0.149445554002916905664936468389821
_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# QUADPACK's accumulation order: the Gauss-node pairs, then the others
_PAIR_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _qk21(fn: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk21 value and error estimate on each interval [lo_i, hi_i].

    ``fn`` is called once, on a 1-D array of the 21 nodes of every
    interval. Each interval's sums run over its nodes in QUADPACK's order
    with elementwise arithmetic only, so its bits do not depend on the other
    intervals.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    offsets = half[:, None] * _KRONROD_NODES
    nodes = np.concatenate([center[:, None] - offsets, center[:, None] + offsets, center[:, None]],
                           axis=1).ravel()
    values = np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape).reshape(lo.size, 21)
    if not np.all(np.isfinite(values)):
        raise NumericalFailureError("integrand is not finite at a quadrature node")
    left, right, fc = values[:, :10], values[:, 10:20], values[:, 20]
    pair = left + right
    size = np.abs(left) + np.abs(right)
    kronrod = _KRONROD_CENTER_WEIGHT * fc
    gauss = np.zeros_like(fc)
    absolute = np.abs(kronrod)
    for j in _PAIR_ORDER:
        if j % 2:
            gauss += _GAUSS_WEIGHTS[j // 2] * pair[:, j]
        kronrod += _KRONROD_WEIGHTS[j] * pair[:, j]
        absolute += _KRONROD_WEIGHTS[j] * size[:, j]
    mean = 0.5 * kronrod
    deviation = np.abs(left - mean[:, None]) + np.abs(right - mean[:, None])
    spread = _KRONROD_CENTER_WEIGHT * np.abs(fc - mean)
    for j in range(10):
        spread += _KRONROD_WEIGHTS[j] * deviation[:, j]
    width = np.abs(half)
    absolute, spread = absolute * width, spread * width
    err = np.abs((kronrod - gauss) * half)
    scaled = (spread != 0.0) & (err != 0.0)
    ratio = 200.0 * err / np.where(scaled, spread, 1.0)
    err = np.where(scaled, spread * np.minimum(1.0, ratio ** 1.5), err)
    err = np.where(absolute > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * absolute, err), err)
    return kronrod * half, err


def _sum_in_order(a: np.ndarray) -> float:
    """Left-to-right sum with no blocked or threaded reduction, so its bits
    are fixed by the values and their order."""
    return float(np.cumsum(a)[-1])


def _gauss_kronrod(fn: Callable, breakpoints, epsabs: float, epsrel: float,
                   limit: int) -> tuple[float, float]:
    """Adaptive qk21 integral of an array integrand over [breakpoints[0],
    breakpoints[-1]], returning (value, error estimate).

    The first pass applies qk21 between consecutive breakpoints. Each round
    then bisects every interval whose error exceeds its length's share of
    the tolerance, always including the worst one, and evaluates ``fn`` once
    on all new nodes. It stops when the total error is at most
    max(epsabs, epsrel |value|) or when ``limit`` intervals are reached;
    the caller judges the returned error. Totals are summed left to right
    in position order. A non-finite integrand value raises
    NumericalFailureError.
    """
    edges = np.asarray(breakpoints, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    value, err = _qk21(fn, lo, hi)
    while True:
        total, total_err = _sum_in_order(value), _sum_in_order(err)
        tol = max(epsabs, epsrel * abs(total))
        if total_err <= tol or lo.size >= limit:
            return total, total_err
        split = err > tol * (hi - lo) / (edges[-1] - edges[0])
        split[np.argmax(err)] = True
        room = limit - lo.size
        if np.count_nonzero(split) > room:
            split[:] = False
            split[np.argsort(-err, kind="stable")[:room]] = True
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate([lo[split], mid])
        child_hi = np.concatenate([mid, hi[split]])
        child_value, child_err = _qk21(fn, child_lo, child_hi)
        lo = np.concatenate([lo[~split], child_lo])
        order = np.argsort(lo, kind="stable")  # back to position order
        lo = lo[order]
        hi = np.concatenate([hi[~split], child_hi])[order]
        value = np.concatenate([value[~split], child_value])[order]
        err = np.concatenate([err[~split], child_err])[order]


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


def _upper_half_plane_value(z, evaluate: Callable):
    """evaluate(z as an array) for Im z > 0, shaped like z.

    Near z = 0 intermediates overflow (t_tilde ~ -(1-c)/z), and far out
    b^2 in _mp_branch does: no numpy warning escapes, and a value that is
    not finite raises NumericalFailureError. Finite values are as computed.
    """
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr.imag <= 0.0):
        raise InvalidArgumentError("Im z > 0 required")
    with np.errstate(all="ignore"):
        out = evaluate(z_arr)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("transform is not finite: it over- or underflowed at this z")
    return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def mp_stieltjes(model: MPModel, z):
    """Stieltjes transform t(z) of the MP law, Im z > 0.

    Checked against the fixed-point form t = 1/(-z + 1/(1 + c t)).
    """
    def evaluate(z_arr):
        t = _mp_branch(model.c, z_arr)
        fp = 1.0 / (-z_arr + 1.0 / (1.0 + model.c * t))
        if np.any(np.abs(t - fp) > 1e-12 * (1.0 + np.abs(t))):
            raise NumericalFailureError("Stieltjes branch failed its fixed-point residual check")
        return t

    return _upper_half_plane_value(z, evaluate)


def mp_stieltjes_tilde(model: MPModel, z):
    """t_tilde(z) = -1/(z (1 + c t(z))): transform of c mu + (1-c) delta_0."""
    return _upper_half_plane_value(
        z, lambda z_arr: -1.0 / (z_arr * (1.0 + model.c * mp_stieltjes(model, z_arr))))


def _correction_transform(model: MPModel, z_arr: np.ndarray, which: str) -> np.ndarray:
    """p or p_tilde on the upper half-plane (no reflection)."""
    c = model.c
    t = _mp_branch(c, z_arr)
    tt = -1.0 / (z_arr * (1.0 + c * t))
    return _from_w(c, z_arr * t * tt, which)


def _from_w(c: float, w: np.ndarray, which: str) -> np.ndarray:
    """p or p_tilde from w = z t t_tilde."""
    den = 1.0 - c * w * w
    if np.any(np.abs(den) < 1e-14):
        raise SingularPointError("transform evaluated at a (numerical) pole of 1 - c w^2")
    if which == "p":
        return -c * w ** 3 / den
    return w * w / den


def p_stieltjes(model: MPModel, z):
    """Stieltjes transform of the first correction distribution."""
    return _upper_half_plane_value(z, lambda z_arr: _correction_transform(model, z_arr, "p"))


def p_tilde_stieltjes(model: MPModel, z):
    """Stieltjes transform of the second correction distribution, (z t)'."""
    return _upper_half_plane_value(z, lambda z_arr: _correction_transform(model, z_arr, "p_tilde"))


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
    # the left margin shrinks for positive-domain f so the contour stays
    # inside the analyticity region of log for every c in (0,1)
    lm, lp = model.lambda_minus, model.lambda_plus
    left = min(_MARGIN, 0.5 * lm) if f.positive_domain else _MARGIN
    return lm - left, lp + _MARGIN


def _boundary_integrand(model: MPModel, f: SpectralFunction, which: str) -> Callable:
    """theta -> f(x) Im transform(x + i0) R sin(theta) / pi, x = m + R cos(theta),
    whose integral over [0, pi] is <D, f>, or int f dmu_MP for which = 't'.
    t(x + i0) is closed-form: the discriminant of _mp_branch cancels near
    the edges."""
    c, lm, lp = model.c, model.lambda_minus, model.lambda_plus
    center, radius = 0.5 * (lp + lm), 0.5 * (lp - lm)

    def integrand(theta):
        x = center + radius * np.cos(theta)
        height = radius * np.sin(theta)
        t = (1.0 - c - x + 1j * height) / (2.0 * c * x)
        value = t if which == "t" else _from_w(c, -t / (1.0 + c * t), which)
        return f(x) * value.imag * (height / np.pi)

    return integrand


def _action_inversion(model, f, which) -> float:
    # analytic f: one interval; otherwise a first pass whose qk21 nodes are
    # at most pi / 16384 apart
    edges = [0.0, np.pi] if f.analytic else np.linspace(0.0, np.pi, _FIRST_PASS_INTERVALS + 1)
    value, err = _gauss_kronrod(_boundary_integrand(model, f, which), edges, 1e-10, 1e-10,
                                len(edges) - 1 + _REFINE_INTERVALS)
    if not err <= _QUAD_MAX_ERROR:
        raise NumericalFailureError(f"inversion quadrature did not converge (error estimate {err:.2e})")
    return value


def _action_contour(model, f, which, a1, a2) -> float:
    h = _CONTOUR_HALF_HEIGHT
    corners = (a1 + 1j * h, a2 + 1j * h, a2 - 1j * h, a1 - 1j * h, a1 + 1j * h)
    lengths = [abs(corners[i + 1] - corners[i]) for i in range(4)]
    perimeter = sum(lengths)
    totals = [0.0 + 0.0j, 0.0 + 0.0j]  # on every node, and on half as many
    for i in range(4):
        za, zb = corners[i], corners[i + 1]
        n_nodes = max(64, int(round(_CONTOUR_NODES * lengths[i] / perimeter)))
        for k, n in enumerate((n_nodes, n_nodes // 2)):
            s = np.linspace(0.0, 1.0, n)
            zs = za + (zb - za) * s
            g = np.asarray(f(zs), dtype=complex) * _transform_anywhere(model, zs, which)
            totals[k] += (zb - za) * np.trapezoid(g, s)
    value, coarse = (total / (2j * np.pi) for total in totals)
    if abs(value.imag) > 1e-6 * (1.0 + abs(value.real)):
        raise NumericalFailureError(
            f"contour action has a nonreal residue {value.imag:.3e}; the path may cross a singularity"
        )
    # a path close to a singularity of f (log's at 0) is under-resolved, and
    # then the sum on half the nodes differs visibly
    gap = abs(value - coarse)
    if not gap <= _CONTOUR_MAX_GAP * (1.0 + abs(value)):
        raise NumericalFailureError(
            f"contour action is under-resolved: the sum on half the nodes is {gap:.2e} away")
    return float(value.real)


# f may be any callable, so the keys are not a finite set: the cache keeps a
# bound, well above the 12 keys of a validate run
@functools.lru_cache(maxsize=128)
def _action(which: str, model: MPModel, f: SpectralFunction, method: str) -> float:
    """The one cache of integrals over the support: the action of f by
    ``method`` on the distribution behind ``which`` (t for the MP law)."""
    if method == "inversion":
        return _action_inversion(model, f, which)
    return _action_contour(model, f, which, *_action_interval(model, f))


def mp_integral(model: MPModel, f: SpectralFunction) -> float:
    """int f dmu_MP: (1/pi) Im t(x + i0) is the MP density, so this is the
    inversion action of t, by the rule and check of distribution_action, and
    cached with the actions under the private name 't'. A callable f must
    accept numpy arrays."""
    return _action("t", model, spectral_function(f), "inversion")


def distribution_action(transform: str, model: MPModel, f: SpectralFunction, method: str = "auto") -> float:
    """<D, f> for the distribution behind ``transform`` ('p' or 'p_tilde').

    method='inversion' integrates f * Im(transform) over the support from the
    closed-form boundary value, in theta, by the adaptive Gauss-Kronrod rule
    from one interval for analytic f and from 1280 equal intervals
    otherwise, with 400 bisections beyond; its error estimate must be <= 1e-7;
    method='contour' (analytic f only) integrates f * transform clockwise
    around the support rectangle with a 2048-node trapezoid rule, which must
    agree with the rule on half the nodes to 1e-3 (1 + |value|);
    method='auto' picks contour for analytic f.  Every route applies f to
    numpy arrays, so a callable f must accept them.  Values are cached per
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
    a1 = _action_interval(model, f)[0]
    if f.positive_domain and a1 <= 0.0:
        raise DomainError(f"{f.label} action needs a positive interval, got a1 = {a1}", value=a1)
    return _action(transform, model, f, method)
