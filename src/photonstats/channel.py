"""Detector transfer matrices: binomial loss, additive dark counts, inversion.

The forward model maps a source distribution p to a detected distribution
f = M p. Loss acts as independent survival of each photon with probability
eta (binomial thinning); dark counts add a Poisson-distributed number of
extra counts per gate. The full detector is the composition of the two.
Reconstruction solves the truncated linear system directly; negative entries
in the solution are preserved and reported, not clipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (
    LOST_MASS_TOL,
    MIN_CUTOFF,
    SUM_TOL,
    PhotonDistribution,
    TruncationLossError,
    _log_factorials,
)

DEFAULT_CUTOFF = 10
COND_WARN_THRESHOLD = 1e12


class ConditionNumberWarning(UserWarning):
    """Reconstruction system is ill-conditioned; the solve proceeds anyway."""


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """(cutoff+1) x (cutoff+1) linear map from true to detected photon number.

    Row index is the detected count, column index the true count. ``eta`` and
    ``dark_mean`` record the physical parameters the entries were built from.
    """

    entries: np.ndarray
    eta: float
    dark_mean: float
    cutoff: int

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        n = self.cutoff + 1
        if m.shape != (n, n):
            raise ValueError(f"entries shape {m.shape} does not match cutoff {self.cutoff}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("transfer matrix entries must be finite and nonnegative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.eta}")
        if self.dark_mean < 0:
            raise ValueError(f"dark count mean must be >= 0, got {self.dark_mean}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def _check_cutoff(cutoff: int) -> None:
    if cutoff < MIN_CUTOFF:
        raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {cutoff}")


def binomial_loss_matrix(eta: float, cutoff: int = DEFAULT_CUTOFF) -> TransferMatrix:
    """Binomial thinning matrix: entry (i, j) = C(j, i) eta^i (1-eta)^(j-i).

    Upper triangular (a detector cannot see more photons than arrived); each
    column sums to 1, and the diagonal is eta^j. Binomial coefficients are
    formed from cumulative log-factorials so the construction stays accurate
    through cutoffs of order 64.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    _check_cutoff(cutoff)
    n = cutoff + 1
    if eta == 1.0:
        m = np.eye(n)
    elif eta == 0.0:
        m = np.zeros((n, n))
        m[0, :] = 1.0
    else:
        logfact = _log_factorials(n)
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        diff = np.clip(j - i, 0, None)
        logm = (
            logfact[j]
            - logfact[i]
            - logfact[diff]
            + i * math.log(eta)
            + diff * math.log1p(-eta)
        )
        m = np.where(j >= i, np.exp(logm), 0.0)
    return TransferMatrix(m, eta=eta, dark_mean=0.0, cutoff=cutoff)


def dark_convolution_matrix(dark_mean: float, cutoff: int = DEFAULT_CUTOFF) -> TransferMatrix:
    """Additive dark-count matrix: entry (i, j) = e^-nu nu^(i-j) / (i-j)! for i >= j.

    Lower triangular Poisson shift with per-gate mean ``dark_mean``. Columns
    sum to less than 1 because counts pushed past the cutoff leave the
    truncated space; apply_channel reports that mass as leakage.
    """
    if dark_mean < 0:
        raise ValueError(f"dark count mean must be >= 0, got {dark_mean}")
    _check_cutoff(cutoff)
    n = cutoff + 1
    if dark_mean == 0.0:
        m = np.eye(n)
    else:
        logfact = _log_factorials(n)
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        diff = np.clip(i - j, 0, None)
        logm = -dark_mean + diff * math.log(dark_mean) - logfact[diff]
        m = np.where(i >= j, np.exp(logm), 0.0)
    return TransferMatrix(m, eta=1.0, dark_mean=dark_mean, cutoff=cutoff)


def compose(outer: TransferMatrix, inner: TransferMatrix) -> TransferMatrix:
    """Matrix product outer @ inner; the composed channel applies inner first.

    Efficiencies multiply and dark means add, which is exact for the
    canonical factors (loss carries no dark counts and vice versa).
    """
    if outer.cutoff != inner.cutoff:
        raise ValueError(f"cutoff mismatch: outer {outer.cutoff} vs inner {inner.cutoff}")
    return TransferMatrix(
        outer.entries @ inner.entries,
        eta=outer.eta * inner.eta,
        dark_mean=outer.dark_mean + inner.dark_mean,
        cutoff=outer.cutoff,
    )


def detector_matrix(
    eta: float,
    dark_mean: float,
    cutoff: int = DEFAULT_CUTOFF,
    *,
    dark_after_loss: bool = True,
) -> TransferMatrix:
    """Full detector model: loss thinning and dark-count addition composed.

    The default order adds dark counts after loss (dark events originate in
    the detector and are not attenuated); ``dark_after_loss=False`` swaps the
    order, which is equivalent to thinning the dark counts as well.
    """
    loss = binomial_loss_matrix(eta, cutoff)
    dark = dark_convolution_matrix(dark_mean, cutoff)
    return compose(dark, loss) if dark_after_loss else compose(loss, dark)


def apply_channel(m: TransferMatrix, p: PhotonDistribution) -> PhotonDistribution:
    """Forward map f = M p.

    The output is physical; it is not renormalized, so its total is the input
    total minus the leakage past the cutoff. Leakage above LOST_MASS_TOL is an
    error because the truncated window can no longer represent the channel
    output faithfully.
    """
    if m.cutoff != p.cutoff:
        raise ValueError(f"cutoff mismatch: matrix {m.cutoff} vs distribution {p.cutoff}")
    f = m.entries @ p.probs
    leak = float(p.probs.sum() - f.sum())
    if leak > LOST_MASS_TOL:
        raise TruncationLossError(leak, context="channel application")
    return PhotonDistribution(
        f,
        normalized=abs(f.sum() - 1.0) <= SUM_TOL,
        signed=False,
    )


def invert_channel(
    m: TransferMatrix,
    f: PhotonDistribution,
    *,
    cond_threshold: float = COND_WARN_THRESHOLD,
) -> PhotonDistribution:
    """Solve M p = f for the pre-detector distribution on the truncated space.

    Direct dense solve, no regularization: truncation artifacts show up as
    small negative entries in the result, which is flagged ``signed`` so they
    are preserved for diagnosis. An ill-conditioned system triggers a
    :class:`ConditionNumberWarning` but still returns the solution.
    """
    if m.cutoff != f.cutoff:
        raise ValueError(f"cutoff mismatch: matrix {m.cutoff} vs distribution {f.cutoff}")
    if m.eta == 0.0:
        raise ValueError("channel with zero efficiency is singular and cannot be inverted")
    cond = float(np.linalg.cond(m.entries))
    if not math.isfinite(cond) or cond > cond_threshold:
        warnings.warn(
            f"transfer matrix condition number {cond:.3e} exceeds {cond_threshold:.1e}; "
            "reconstruction may amplify noise",
            ConditionNumberWarning,
            stacklevel=2,
        )
    p = np.linalg.solve(m.entries, f.probs)
    return PhotonDistribution(
        p,
        normalized=abs(p.sum() - 1.0) <= SUM_TOL,
        signed=True,
    )


@dataclass(frozen=True)
class NegativityReport:
    """Summary of truncation artifacts in a reconstructed distribution."""

    most_negative: float
    index: int
    negative_mass: float
    sum_deviation: float


def truncation_diagnostics(p: PhotonDistribution) -> NegativityReport:
    """Report the most-negative entry, total negative mass, and sum deviation."""
    probs = p.probs
    idx = int(np.argmin(probs))
    neg = probs[probs < 0]
    return NegativityReport(
        most_negative=float(min(probs[idx], 0.0)),
        index=idx,
        negative_mass=float(-neg.sum()) if neg.size else 0.0,
        sum_deviation=float(probs.sum() - 1.0),
    )
