"""Renormalized DFTs, smoothed periodograms, coherency matrices, lag windows.

The renormalized DFT is xi(nu) = N**-0.5 * sum_n y_n e^{-2 i pi (n-1) nu},
1-periodic in nu.  The smoothed periodogram averages B+1 rank-one outer
products at the frequencies nu + b/N, b = -B/2..B/2, with B even; the
coherency matrix renormalizes it to a unit diagonal.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DegenerateSpectrumError, InvalidArgumentError, NumericalFailureError
from .signal import TimeSeriesPanel, _read_only

SPECTRAL_KINDS = ("smoothed_periodogram", "coherency")

_HERM_RTOL = 1e-12
_GRID_TOL = 1e-9


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


def dft_grid(panel: TimeSeriesPanel) -> np.ndarray:
    """M x N table of xi at the Fourier frequencies k/N, via the FFT."""
    n = panel.N
    return np.fft.fft(panel.data, axis=1) / np.sqrt(n)


def _check_span(B: int, n: int) -> int:
    if not isinstance(B, (int, np.integer)) or B < 0 or B % 2 != 0:
        raise InvalidArgumentError(f"smoothing span B must be an even integer >= 0, got {B}")
    if B + 1 > n:
        # a longer window would take some DFT column twice
        raise InvalidArgumentError(f"the window of B+1={B + 1} columns exceeds N={n}")
    return int(B)


def _gram(w: np.ndarray) -> np.ndarray:
    return w @ w.conj().T


class _Windows:
    """Smoothed periodograms S = W W^H / (B+1) of one panel at span B.

    On the Fourier grid a window's columns are cut at the multiples of the
    block width beta = max(1, (B+1)//4) of the column index k mod N, and at
    N where the window wraps. A block the window covers more than half of
    (a whole block, or a long ragged end) enters through the block's Gram;
    for a long ragged end the block's uncovered columns are subtracted
    again. The columns of the shorter ragged ends are added directly. So
    S = A A^H + G - D D^H, in that order: A gathers the added columns and D
    the subtracted ones, at most floor(beta/2) of each per end, in window
    order, and G is the window-order sum of the block Grams. The cut, and
    with it every bit of S, depends on (k, B, N) alone: a frequency gets
    the same S on any grid, in any order and on its own. Against one direct
    product W W^H, S differs at the ulp level (a relative error of at most
    7e-16 in the Frobenius norm on the configs of the block-sum test).

    A block's Gram is kept while the next window still needs it: after each
    window only that window's Grams are held, at most ceil((B+1)/beta) + 1
    of them, together with G, which is summed again only when the window's
    tuple of block starts changes.

    ``table`` is the panel's dft_grid output, computed at the first on-grid
    window when not given.
    """

    def __init__(self, panel: TimeSeriesPanel, B: int, table: np.ndarray | None = None):
        self.panel = panel
        self.B = _check_span(B, panel.N)
        self.width = max(1, (self.B + 1) // 4)
        self.table = table
        self.grams: dict[int, np.ndarray] = {}
        self.block_sum: tuple[tuple, np.ndarray | None] = ((), None)

    def _gram_of_spans(self, spans: list) -> np.ndarray | None:
        """A A^H of the columns in the spans [a, b), or None when there are none."""
        if not spans:
            return None
        cols = [self.table[:, a:b] for a, b in spans]
        return _gram(cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1))

    def _on_grid(self, k: int) -> np.ndarray:
        if self.table is None:
            self.table = dft_grid(self.panel)
        n, width = self.panel.N, self.width
        a = (k - self.B // 2) % n
        left = self.B + 1
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
        key = tuple(starts)
        if key != self.block_sum[0]:
            held = {}
            for lo in key:
                g = self.grams.get(lo)
                held[lo] = _gram(self.table[:, lo:min(n, lo + width)]) if g is None else g
            total = held[key[0]].copy()  # a held Gram must not be summed into
            for lo in key[1:]:
                total += held[lo]
            self.grams, self.block_sum = held, (key, total)
        total = self.block_sum[1]
        s = self._gram_of_spans(added)
        if s is None:
            s = total.copy()
        else:
            s += total
        d = self._gram_of_spans(subtracted)
        if d is not None:
            s -= d
        return s

    def periodogram(self, nu: float) -> np.ndarray:
        """S at nu as a new array, Hermitian to rounding."""
        n = self.panel.N
        k = nu * n
        if abs(k - round(k)) <= _GRID_TOL * max(1.0, abs(k)):
            s = self._on_grid(int(round(k)))
        else:
            freqs = nu + np.arange(-(self.B // 2), self.B // 2 + 1) / n
            phases = np.exp(-2j * np.pi * np.outer(np.arange(n), freqs)) / np.sqrt(n)
            s = _gram(self.panel.data @ phases)
        # the same bits as dividing by B+1 (numpy divides a complex array by a
        # real scalar through its reciprocal), without the complex division
        s *= 1.0 / (self.B + 1)
        # a NaN or inf anywhere in W reaches its row's diagonal entry, and a
        # finite diagonal bounds every entry (|S_ij|^2 <= S_ii S_jj)
        if not np.all(np.isfinite(s.diagonal())):
            raise NumericalFailureError(
                f"non-finite smoothed periodogram at nu={nu}; the panel data holds NaN or inf"
            )
        return s

    def coherency(self, nu: float) -> np.ndarray:
        """The coherency matrix at nu as a new array."""
        return _normalize(self.periodogram(nu))


def periodogram_values(
    panel: TimeSeriesPanel, nu: float, B: int, grid: np.ndarray | None = None
) -> np.ndarray:
    """The smoothed periodogram W W^H / (B+1) at nu as a plain array,
    Hermitian to rounding; smoothed_periodogram is the checked public form.

    W holds the B+1 <= N DFT columns at nu + b/N (mod 1), b = -B/2..B/2. On
    the Fourier grid they come from the FFT table (pass a precomputed
    dft_grid output as ``grid`` to reuse it across frequencies) and S is
    summed over fixed column blocks, as in a sweep of the grid; off the grid
    each column is an O(N) direct sum.
    """
    return _Windows(panel, B, grid).periodogram(float(nu))


def _normalize(s: np.ndarray) -> np.ndarray:
    """diag(S)^{-1/2} S diag(S)^{-1/2} in place, with an exactly unit diagonal."""
    diag = s.diagonal().real
    if np.any(diag <= 0.0):
        worst = float(diag.min())
        raise DegenerateSpectrumError(
            f"nonpositive spectral diagonal entry {worst:.3e}; "
            "the smoothing span B+1 is too small or the input is degenerate"
        )
    inv_root = 1.0 / np.sqrt(diag)
    s *= np.outer(inv_root, inv_root)
    np.fill_diagonal(s, 1.0)
    return s


def smoothed_periodogram(
    panel: TimeSeriesPanel, nu: float, B: int, grid: np.ndarray | None = None
) -> SpectralMatrix:
    """Average of B+1 rank-one DFT outer products at nu + b/N (mod 1), as a
    validated matrix; see periodogram_values."""
    return SpectralMatrix(values=periodogram_values(panel, nu, B, grid), nu=float(nu) % 1.0,
                          B=B, kind="smoothed_periodogram")


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
    for l in range(L + 1):
        out[:, l] = np.einsum("ij,ij->i", data[:, l:], data[:, : n - l].conj()) / n
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
