"""Photon-number statistics of a pulsed pair source through a lossy detector.

Simulation of the gated acquisition chain, pulse-area histogram fitting,
a provable classicality bound on the two-photon fraction, and reconstruction
of the pre-loss distribution by truncated inversion of the detector model.

The pipeline that chains these layers (``analyze_histogram``, ``reconstruct``,
``pump_sweep``, ``RunConfig``) and the command line live in
:mod:`photonstats.cli`, which this package does not import.
"""

from .distributions import (
    PhotonDistribution,
    SourceSpec,
    TruncationLossError,
    make_distribution,
)
from .channel import (
    ConditionNumberWarning,
    NegativityReport,
    TransferMatrix,
    detector_matrix,
    invert_channel,
    truncation_diagnostics,
)
from .nonclassical import (
    GammaReport,
    ParityReport,
    classical_gamma_bound,
    eta_from_ratio,
    gamma,
    gamma_significance,
    gamma_under_loss,
    parity_test,
)
from .acquisition import (
    DEFAULT_PAIRS_PER_UW,
    AreaHistogram,
    DetectorModel,
    PumpModel,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
from .fitting import (
    FittedPeak,
    PeakFitResult,
    areas_to_probabilities,
    fit_comb,
)

__version__ = "0.1.0"

__all__ = [
    "AreaHistogram",
    "ConditionNumberWarning",
    "DEFAULT_PAIRS_PER_UW",
    "DetectorModel",
    "FittedPeak",
    "GammaReport",
    "NegativityReport",
    "ParityReport",
    "PeakFitResult",
    "PhotonDistribution",
    "PumpModel",
    "SourceSpec",
    "TransferMatrix",
    "TruncationLossError",
    "areas_to_probabilities",
    "bin_mass",
    "classical_gamma_bound",
    "detector_matrix",
    "eta_from_ratio",
    "fit_comb",
    "gamma",
    "gamma_significance",
    "gamma_under_loss",
    "invert_channel",
    "make_distribution",
    "parity_test",
    "simulate_gate_counts",
    "synthesize_histogram",
    "truncation_diagnostics",
]
