"""The detector law, its transfer matrix, and the matrix's inversion.

The forward model maps a source distribution p to a detected distribution
f = M p. Loss acts as independent survival of each photon with probability
eta (binomial thinning); dark counts add a Poisson-distributed number of
extra counts per gate. Both are written once, in ``_detect``: the sampler in
:mod:`photonstats.acquisition` applies it to a source law, and
:func:`detector_matrix` applies it to the identity. Reconstruction solves the
truncated linear system directly; negative entries in the solution are
preserved and reported, not clipped.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import MIN_CUTOFF, PhotonDistribution, _log_factorials, _poisson_pmf

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


@functools.lru_cache(maxsize=4)
def _loss_matrix(eta: float, n: int) -> np.ndarray:
    """Binomial thinning on photon numbers 0..n-1: entry (i, j) = C(j, i)
    eta^i (1-eta)^(j-i).

    Upper triangular (a detector cannot see more photons than arrived); each
    column sums to 1, and the diagonal is eta^j. Binomial coefficients are
    formed from cumulative log-factorials so the construction stays accurate
    through cutoffs of order 64. Every power of a sweep asks for the same
    matrix, so the last four are kept, read-only.
    """
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
    m.setflags(write=False)
    return m


def _detect(x: np.ndarray, eta: float, dark_mean: float, dark_after_loss: bool) -> np.ndarray:
    """The detector law applied along axis 0 of a vector or matrix ``x`` over
    photon numbers 0..len(x)-1: each photon survives with probability ``eta``
    (binomial thinning), and Poisson(``dark_mean``) dark counts are added by
    convolution, cut at len(x).

    Dark counts are added after the loss (they originate in the detector and
    are not attenuated), or before it when ``dark_after_loss`` is False, which
    thins them as well. Mass pushed past len(x) by the dark counts is lost.
    A vector, the sampler's case, is convolved in one call.
    """
    n = len(x)
    loss = _loss_matrix(eta, n)
    dark = _poisson_pmf(dark_mean, n)

    def add_dark(y):
        if y.ndim == 1:
            return np.convolve(y, dark)[:n]
        return np.apply_along_axis(lambda col: np.convolve(col, dark)[:n], 0, y)

    return add_dark(loss @ x) if dark_after_loss else loss @ add_dark(x)


def detector_matrix(
    eta: float,
    dark_mean: float,
    cutoff: int = DEFAULT_CUTOFF,
    *,
    dark_after_loss: bool = True,
) -> TransferMatrix:
    """Full detector model on photon numbers 0..cutoff: the detector law
    applied to the identity, so column j is the detected-count law of j
    photons. Dark counts pushed past the cutoff leave the truncated space,
    so columns sum to at most 1.

    The default order adds dark counts after loss; ``dark_after_loss=False``
    swaps the order, which is equivalent to thinning the dark counts as well.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    if dark_mean < 0:
        raise ValueError(f"dark count mean must be >= 0, got {dark_mean}")
    if cutoff < MIN_CUTOFF:
        raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {cutoff}")
    m = _detect(np.eye(cutoff + 1), eta, dark_mean, dark_after_loss)
    return TransferMatrix(m, eta=eta, dark_mean=dark_mean, cutoff=cutoff)


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
    return PhotonDistribution(p, signed=True)


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
