"""Corrected linear spectral statistics of frequency-smoothed coherency
matrices of high-dimensional Gaussian time series.

The package simulates complex Gaussian panels, forms smoothed-periodogram
coherency matrices, evaluates Marcenko-Pastur integrals and the correction
transforms numerically, assembles the corrected statistics psi / psi_hat,
and runs reproducible Monte Carlo studies behind a small CLI.
"""

from ._version import __version__
from .errors import (
    CoherlssError,
    ConfigError,
    DegenerateEstimateError,
    DegenerateSpectrumError,
    DomainError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularPointError,
)
from .signal import (
    ModelSpec,
    TimeSeriesPanel,
    autocovariance,
    simulate_panel,
    spectral_density,
    spectral_density_derivative,
)
from .spectral import (
    SpectralMatrix,
    coherency_matrix,
    dft_grid,
    smoothed_periodogram,
)
from .rmt import (
    MPModel,
    SpectralFunction,
    distribution_action,
    mp_density,
    mp_integral,
    mp_stieltjes,
    mp_stieltjes_tilde,
    p_stieltjes,
    p_tilde_stieltjes,
    spectral_function,
)
from .lss import (
    LssConfig,
    LssRecord,
    assemble_psi,
    default_grid,
    default_lag_window_size,
    hermitian_eigenvalues,
    psi_at,
    r_n_true,
    sup_over_grid,
    sweep_panel,
    trace_functional,
    u_n,
    v_n,
)
from .experiments import (
    ExperimentConfig,
    dft_covariance_check,
    eigenvalue_localization_check,
    frequency_sweep,
    histogram_study,
    scaling_study,
    split_seed,
)

__all__ = [
    "__version__",
    "CoherlssError", "ConfigError", "DegenerateEstimateError", "DegenerateSpectrumError",
    "DomainError", "InvalidArgumentError", "NumericalFailureError", "SingularPointError",
    "ModelSpec", "TimeSeriesPanel", "autocovariance", "simulate_panel",
    "spectral_density", "spectral_density_derivative",
    "SpectralMatrix", "coherency_matrix", "dft_grid", "smoothed_periodogram",
    "MPModel", "SpectralFunction", "distribution_action", "mp_density", "mp_integral",
    "mp_stieltjes", "mp_stieltjes_tilde", "p_stieltjes", "p_tilde_stieltjes",
    "spectral_function",
    "LssConfig", "LssRecord", "assemble_psi", "default_grid", "default_lag_window_size",
    "hermitian_eigenvalues", "psi_at",
    "r_n_true", "sup_over_grid", "sweep_panel", "trace_functional", "u_n", "v_n",
    "ExperimentConfig", "dft_covariance_check", "eigenvalue_localization_check",
    "frequency_sweep", "histogram_study", "scaling_study", "split_seed",
]
