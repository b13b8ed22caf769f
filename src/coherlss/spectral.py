"""Renormalized DFTs, smoothed periodograms, coherency matrices, lag windows.

The renormalized DFT is xi(nu) = N**-0.5 * sum_n y_n e^{-2 i pi (n-1) nu},
1-periodic in nu.  The smoothed periodogram averages B+1 rank-one outer
products at the frequencies nu + b/N, b = -B/2..B/2, with B even; the
coherency matrix renormalizes it to a unit diagonal.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers

import numpy as np

from .errors import DegenerateSpectrumError, InvalidArgumentError, NumericalFailureError
from .signal import TimeSeriesPanel, _read_only

SPECTRAL_KINDS = ("smoothed_periodogram", "coherency")

_HERM_RTOL = 1e-12
_GRID_TOL = 1e-9
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float compares with any int exactly


@dataclasses.dataclass(frozen=True)
class SpectralMatrix:
    """M x M Hermitian spectral estimate at one frequency, tagged (nu, B).

    ``values`` is a read-only view of the validated matrix.
    """

    values: np.ndarray
    nu: float
    B: int
    kind: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvalidArgumentError(f"values must be square, got shape {values.shape}")
        if self.kind not in SPECTRAL_KINDS:
            raise InvalidArgumentError(f"kind must be one of {SPECTRAL_KINDS}, got {self.kind!r}")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("values must be finite")
        scale = np.linalg.norm(values)
        herm_defect = np.linalg.norm(values - values.conj().T)
        if herm_defect > _HERM_RTOL * max(scale, 1e-300):
            raise InvalidArgumentError(
                f"matrix is not Hermitian: relative defect {herm_defect / max(scale, 1e-300):.3e}"
            )
        if self.kind == "coherency":
            diag = values.diagonal()
            if np.max(np.abs(diag - 1.0)) > 1e-12:
                raise InvalidArgumentError("coherency matrix must have unit diagonal")
            if np.max(np.abs(values)) > 1.0 + 1e-12:
                raise InvalidArgumentError("coherency entries must satisfy |C_ij| <= 1")
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "B", int(self.B))

    @property
    def M(self) -> int:
        return self.values.shape[0]


def _dft(data: np.ndarray) -> np.ndarray:
    table = np.fft.fft(data, axis=1)
    table /= np.sqrt(data.shape[1])
    return table


def dft_grid(panel: TimeSeriesPanel) -> np.ndarray:
    """M x N table of xi at the Fourier frequencies k/N, via the FFT."""
    return _dft(panel.data)


def _check_frequency(nu) -> float:
    """nu as a float; anything but a finite real number (bool included) raises."""
    if isinstance(nu, bool) or not isinstance(nu, numbers.Real) or not abs(nu) <= _FLOAT_MAX:
        raise InvalidArgumentError(f"frequencies must be finite real numbers, got {nu!r}")
    return float(nu)


def _check_span(B: int, n: int) -> int:
    if not isinstance(B, (int, np.integer)) or B < 0 or B % 2 != 0:
        raise InvalidArgumentError(f"smoothing span B must be an even integer >= 0, got {B}")
    if B + 1 > n:
        # a longer window would take some DFT column twice
        raise InvalidArgumentError(f"the window of B+1={B + 1} columns exceeds N={n}")
    return int(B)


def _gram(w: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """W W^H, or W diag(coef) W^H for real column weights coef."""
    if coef is None:
        return w @ w.conj().T
    v = w.conj()
    v *= coef
    return w @ v.T


def _block_width(B: int) -> int:
    """The block width beta of the grid walk at span B."""
    return max(1, (B + 1) // 4)


@functools.lru_cache(maxsize=1024)
def _window_cut(k: int, B: int, n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The cut of the on-grid window at column k (0 <= k < n): the starts of
    its block Grams, the table columns of its signed product and their
    weights, both read-only. It depends on (k, B, n) alone, so one cache
    serves every panel of a configuration."""
    width = _block_width(B)
    scale = 1.0 / (B + 1)
    a = (k - B // 2) % n
    left = B + 1
    starts, added, subtracted = [], [], []
    while left:
        lo = a - a % width
        hi = min(n, lo + width)
        b = min(hi, a + left)
        if 2 * (b - a) > hi - lo:
            starts.append(lo)
            subtracted += [(c, d) for c, d in ((lo, a), (b, hi)) if c < d]
        else:
            added.append((a, b))
        left -= b - a
        a = b % n
    columns = np.array([j for c, d in added + subtracted for j in range(c, d)], dtype=np.intp)
    coef = np.full(columns.size, scale)
    coef[sum(d - c for c, d in added):] = -scale
    columns.flags.writeable = coef.flags.writeable = False
    return tuple(starts), columns, coef


class _Windows:
    """Smoothed periodograms S = W W^H / (B+1) of one panel at span B.

    On the Fourier grid a window's columns are cut at the multiples of the
    block width beta = max(1, (B+1)//4) of the column index k mod N, and at
    N where the window wraps. A block the window covers more than half of
    (a whole block, or a long ragged end) enters through the block's Gram;
    for a long ragged end the block's uncovered columns are subtracted
    again. The columns of the shorter ragged ends are added directly. So
    S = W_r diag(c) W_r^H + G in one signed product: W_r gathers the added
    columns, then the subtracted ones, at most floor(beta/2) of each per
    end, in window order; c is +1/(B+1) on the added and -1/(B+1) on the
    subtracted columns; and G is the window-order sum of the block Grams,
    scaled by 1/(B+1) once when it is summed. The cut, and with it every bit
    of S, depends on (k, B, N) alone: a frequency gets the same S on any
    grid, in any order and on its own, and _window_cut computes it once for
    all the panels of a configuration. Against one direct product
    W W^H / (B+1), S differs at the ulp level (a relative error of at most
    6.4e-16 in the Frobenius norm on the configs of the block-sum test).

    A block's Gram is kept while the next window still needs it: after each
    window only that window's Grams are held, at most ceil((B+1)/beta) + 1
    of them, together with G, which is summed again only when the window's
    tuple of block starts changes.

    Off the grid, with nu N = k0 + rho exactly (k0 an integer, 0 < rho < 1),
    a _Windows of its own walks window k0 of the FFT table of the panel
    modulated by e^{-2 i pi n rho/N}: nu and nu + 1 give the same bits.

    ``table`` is the panel's dft_grid output, computed at the first on-grid
    window when not given.
    """

    def __init__(self, panel: TimeSeriesPanel, B: int, table: np.ndarray | None = None):
        self.panel = panel
        self.B = _check_span(B, panel.N)
        self.width = _block_width(self.B)
        self.table = table
        self.grams: dict[int, np.ndarray] = {}
        self.block_sum: tuple[tuple, np.ndarray | None] = ((), None)

    def _on_grid(self, k: int) -> np.ndarray:
        if self.table is None:
            self.table = dft_grid(self.panel)
        n, width = self.panel.N, self.width
        key, columns, coef = _window_cut(k % n, self.B, n)
        if key != self.block_sum[0]:
            held = {}
            for lo in key:
                g = self.grams.get(lo)
                held[lo] = _gram(self.table[:, lo:min(n, lo + width)]) if g is None else g
            total = held[key[0]].copy()  # a held Gram must not be summed into
            for lo in key[1:]:
                total += held[lo]
            total *= 1.0 / (self.B + 1)
            self.grams, self.block_sum = held, (key, total)
        total = self.block_sum[1]
        if not columns.size:
            return total.copy()
        s = _gram(self.table.take(columns, axis=1), coef)
        s += total
        return s

    def periodogram(self, nu: float) -> np.ndarray:
        """S at nu as a new array, Hermitian to rounding."""
        n = self.panel.N
        k = nu * n
        if abs(k - round(k)) <= _GRID_TOL * max(1.0, abs(k)):
            s = self._on_grid(int(round(k)))
        else:
            # nu N = k0 + rho exactly, 0 < rho < 1, in integers (nu = p/q and
            # int / int rounds once): column k0 + b of the FFT table of
            # y_n e^{-2 i pi n rho/N} is xi at nu + b/N
            p, q = nu.as_integer_ratio()
            k0, r = divmod(p * n, q)
            shift = np.exp(-2j * np.pi * (np.arange(n) * (r / (q * n))))
            s = _Windows(self.panel, self.B, _dft(self.panel.data * shift))._on_grid(k0)
        # a NaN or inf anywhere in W reaches its row's diagonal entry, and a
        # finite diagonal bounds every entry (|S_ij|^2 <= S_ii S_jj)
        if not np.isfinite(s.diagonal()).all():
            raise NumericalFailureError(
                f"non-finite smoothed periodogram at nu={nu}; the panel data holds NaN or inf"
            )
        return s


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The diagonal of a square array as a writeable view; assigning
    through it is several times faster than np.fill_diagonal, which walks a
    flat iterator over the whole array."""
    return np.einsum("ii->i", a)


def _positive_diagonal(s: np.ndarray) -> np.ndarray:
    """The real diagonal of S, a view; a nonpositive entry raises."""
    diag = s.diagonal().real
    if np.any(diag <= 0.0):
        worst = float(diag.min())
        raise DegenerateSpectrumError(
            f"nonpositive spectral diagonal entry {worst:.3e}; "
            "the smoothing span B+1 is too small or the input is degenerate"
        )
    return diag


def _normalize(s: np.ndarray) -> np.ndarray:
    """diag(S)^{-1/2} S diag(S)^{-1/2} in place, with an exactly unit diagonal."""
    inv_root = 1.0 / np.sqrt(_positive_diagonal(s))
    s *= np.outer(inv_root, inv_root)
    _diagonal(s)[...] = 1.0
    return s


def smoothed_periodogram(panel: TimeSeriesPanel, nu: float, B: int) -> SpectralMatrix:
    """Average of the B+1 <= N rank-one DFT outer products at nu + b/N
    (mod 1), b = -B/2..B/2, as a validated matrix: the kernel's S, formed
    by the window walk of _Windows on and off the Fourier grid."""
    nu = _check_frequency(nu)
    return SpectralMatrix(values=_Windows(panel, B).periodogram(nu), nu=nu % 1.0, B=B,
                          kind="smoothed_periodogram")


def coherency_matrix(S: SpectralMatrix) -> SpectralMatrix:
    """diag(S)^{-1/2} S diag(S)^{-1/2}: unit diagonal, |entries| <= 1, PSD."""
    return SpectralMatrix(values=_normalize(np.array(S.values)), nu=S.nu, B=S.B,
                          kind="coherency")


def lag_covariances(data: np.ndarray, L: int) -> np.ndarray:
    """Biased autocovariances of every row at lags 0..L, shape (M, L+1)."""
    data = np.asarray(data, dtype=np.complex128)
    if data.ndim == 1:
        data = data[None, :]
    m, n = data.shape
    if not 0 <= L < n:
        raise InvalidArgumentError(f"0 <= L < N required, got L={L}, N={n}")
    out = np.empty((m, L + 1), dtype=np.complex128)
    conj = data.conj()
    for l in range(L + 1):
        out[:, l] = np.einsum("ij,ij->i", data[:, l:], conj[:, : n - l]) / n
    return out


def lag_window_grid(lags: np.ndarray, nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-window density and derivative of every row at each frequency.

    Returns (s, s'), each (M, K) real:
    s_m(nu) = sum_{l=-L}^{L} r_{m,l} e^{-2 i pi l nu} and its nu-derivative.
    Both are real by the r_{-l} = conj(r_l) pairing.  Every entry sums its
    lags one at a time, l = 1..L, in real elementwise arithmetic with no
    BLAS call, so a frequency gets the same bits on any grid.
    """
    lags = np.atleast_2d(np.asarray(lags, dtype=np.complex128))
    nus = np.asarray(nus, dtype=float).ravel()
    re = np.zeros((lags.shape[0], nus.shape[0]))
    im = np.zeros_like(re)
    for l in range(1, lags.shape[1]):
        phase = np.exp(-2j * np.pi * (l * nus))
        a, b = lags[:, l, None].real, lags[:, l, None].imag
        re += a * phase.real - b * phase.imag  # Re(r_l e^{-2 i pi l nu})
        im += l * (a * phase.imag + b * phase.real)  # l Im(r_l e^{-2 i pi l nu})
    return lags[:, :1].real + 2.0 * re, 4.0 * np.pi * im
