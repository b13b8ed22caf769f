"""Renormalized DFTs, smoothed periodograms, coherency matrices, lag windows.

The renormalized DFT is xi(nu) = N**-0.5 * sum_n y_n e^{-2 i pi (n-1) nu},
1-periodic in nu.  The smoothed periodogram averages B+1 rank-one outer
products at the frequencies nu + b/N, b = -B/2..B/2, with B even; the
coherency matrix renormalizes it to a unit diagonal.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DegenerateSpectrumError, InvalidArgumentError
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


def renormalized_dft(y, nu: float) -> complex:
    """xi(nu) = N**-0.5 * sum_{n=1}^{N} y_n e^{-2 i pi (n-1) nu}."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    n = y.shape[0]
    if n < 1:
        raise InvalidArgumentError("series must have length >= 1")
    phase = np.exp(-2j * np.pi * float(nu) * np.arange(n))
    return complex(y @ phase / np.sqrt(n))


def dft_grid(panel: TimeSeriesPanel) -> np.ndarray:
    """M x N table of xi at the Fourier frequencies k/N, via the FFT."""
    n = panel.N
    return np.fft.fft(panel.data, axis=1) / np.sqrt(n)


def _check_even_span(B: int) -> int:
    if not isinstance(B, (int, np.integer)) or B < 0 or B % 2 != 0:
        raise InvalidArgumentError(f"smoothing span B must be an even integer >= 0, got {B}")
    return int(B)


def smoothed_periodogram(
    panel: TimeSeriesPanel, nu: float, B: int, grid: np.ndarray | None = None
) -> SpectralMatrix:
    """Average of B+1 rank-one DFT outer products at nu + b/N (mod 1).

    On the Fourier grid the columns come from the FFT table (pass a
    precomputed dft_grid output as ``grid`` to reuse it across frequencies);
    off the grid each column is an O(N) direct sum.
    """
    B = _check_even_span(B)
    n = panel.N
    nu = float(nu)
    k = nu * n
    offsets = np.arange(-(B // 2), B // 2 + 1)
    if abs(k - round(k)) <= _GRID_TOL * max(1.0, abs(k)):
        table = dft_grid(panel) if grid is None else grid
        idx = (int(round(k)) + offsets) % n
        w = table[:, idx]
    else:
        freqs = nu + offsets / n
        phases = np.exp(-2j * np.pi * np.outer(np.arange(n), freqs)) / np.sqrt(n)
        w = panel.data @ phases
    s = w @ w.conj().T / (B + 1)
    s = 0.5 * (s + s.conj().T)
    return SpectralMatrix(values=s, nu=nu % 1.0, B=B, kind="smoothed_periodogram")


def coherency_matrix(S: SpectralMatrix) -> SpectralMatrix:
    """diag(S)^{-1/2} S diag(S)^{-1/2}: unit diagonal, |entries| <= 1, PSD."""
    values = S.values
    diag = values.diagonal().real
    if np.any(diag <= 0.0):
        worst = float(diag.min())
        raise DegenerateSpectrumError(
            f"nonpositive spectral diagonal entry {worst:.3e}; "
            "the smoothing span B+1 is too small or the input is degenerate"
        )
    inv_root = 1.0 / np.sqrt(diag)
    c = values * np.outer(inv_root, inv_root)
    c = 0.5 * (c + c.conj().T)
    np.fill_diagonal(c, 1.0)
    return SpectralMatrix(values=c, nu=S.nu, B=S.B, kind="coherency")


def biased_autocovariance(y, l: int) -> complex:
    """(1/N) sum_{n=1}^{N-l} y_{n+l} conj(y_n); zero when l >= N.

    Negative lags follow by conjugation and are not stored.
    """
    if l < 0:
        raise InvalidArgumentError("lag must be >= 0; negative lags follow by conjugation")
    y = np.asarray(y, dtype=np.complex128).ravel()
    n = y.shape[0]
    if l >= n:
        return 0.0 + 0.0j
    return complex(np.vdot(y[: n - l], y[l:]) / n)


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
    Both are real by the r_{-l} = conj(r_l) pairing.
    """
    lags = np.atleast_2d(np.asarray(lags, dtype=np.complex128))
    nus = np.asarray(nus, dtype=float).ravel()
    L = lags.shape[1] - 1
    r0 = lags[:, 0].real[:, None]
    if L == 0:
        k = nus.shape[0]
        return np.broadcast_to(r0, (lags.shape[0], k)).copy(), np.zeros((lags.shape[0], k))
    lvec = np.arange(1, L + 1)
    phases = np.exp(-2j * np.pi * np.outer(lvec, nus))
    s = r0 + 2.0 * (lags[:, 1:] @ phases).real
    sp = 4.0 * np.pi * ((lags[:, 1:] * lvec) @ phases).imag
    return s, sp
