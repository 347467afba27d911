"""The detector law, its transfer matrix, and the matrix's inversion.

The forward model maps a source distribution p to a detected distribution
f = M p. Loss acts as independent survival of each photon with probability
eta (binomial thinning); dark counts add a Poisson-distributed number of
extra counts per gate. Both are written once, in ``_detect``: the sampler in
:mod:`photonstats.acquisition` applies it to a source law, and
:func:`detector_matrix` applies it to each column of the identity.
Reconstruction solves the truncated linear system directly; negative entries
in the solution are preserved and reported, not clipped.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import MIN_CUTOFF, PhotonDistribution, _log_factorials, _poisson_pmf

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
        _check_detector_law(self.eta, self.dark_mean)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def _check_detector_law(eta: float, dark_mean: float) -> None:
    """Require an efficiency in [0, 1] and a nonnegative dark count mean."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    if dark_mean < 0:
        raise ValueError(f"dark count mean must be >= 0, got {dark_mean}")


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


def _detect(p: np.ndarray, eta: float, dark_mean: float, dark_after_loss: bool) -> np.ndarray:
    """The detector law applied to a law ``p`` on photon numbers
    0..len(p)-1: each photon survives with probability ``eta`` (binomial
    thinning), and Poisson(``dark_mean``) dark counts are added by
    convolution, cut at len(p).

    Dark counts are added after the loss (they originate in the detector and
    are not attenuated), or before it when ``dark_after_loss`` is False, which
    thins them as well. Mass pushed past len(p) by the dark counts is lost.
    """
    n = len(p)
    loss = _loss_matrix(eta, n)
    dark = _poisson_pmf(dark_mean, n)
    if dark_after_loss:
        return np.convolve(loss @ p, dark)[:n]
    return loss @ np.convolve(p, dark)[:n]


def detector_matrix(
    eta: float,
    dark_mean: float,
    cutoff: int,
    *,
    dark_after_loss: bool = True,
) -> TransferMatrix:
    """Full detector model on photon numbers 0..cutoff: the detector law
    applied to each column of the identity, so column j is the detected-count
    law of j photons. Dark counts pushed past the cutoff leave the truncated
    space, so columns sum to at most 1.

    The default order adds dark counts after loss; ``dark_after_loss=False``
    swaps the order, which is equivalent to thinning the dark counts as well.
    """
    _check_detector_law(eta, dark_mean)
    if cutoff < MIN_CUTOFF:
        raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {cutoff}")
    m = np.apply_along_axis(_detect, 0, np.eye(cutoff + 1), eta, dark_mean, dark_after_loss)
    return TransferMatrix(m, eta=eta, dark_mean=dark_mean, cutoff=cutoff)


def invert_channel(m: TransferMatrix, f: PhotonDistribution) -> np.ndarray:
    """Solve M p = f for the pre-detector distribution on the truncated space.

    Direct dense solve, no regularization: the solution is returned as a
    read-only array, and truncation artifacts show up in it as small negative
    entries, preserved for diagnosis. A matrix that is singular in floating
    point, or a solution that is not finite, raises ValueError. A condition
    number above COND_WARN_THRESHOLD triggers a
    :class:`ConditionNumberWarning` but still returns the solution.
    """
    if m.cutoff != f.cutoff:
        raise ValueError(f"cutoff mismatch: matrix {m.cutoff} vs distribution {f.cutoff}")
    if m.eta == 0.0:
        raise ValueError("channel with zero efficiency is singular and cannot be inverted")
    cond = float(np.linalg.cond(m.entries))
    if not math.isfinite(cond) or cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"transfer matrix condition number {cond:.3e} exceeds {COND_WARN_THRESHOLD:.1e}; "
            "reconstruction may amplify noise",
            ConditionNumberWarning,
            stacklevel=2,
        )
    try:
        p = np.linalg.solve(m.entries, f.probs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"the channel at efficiency {m.eta} and cutoff {m.cutoff} is singular "
                         "in floating point and cannot be inverted") from exc
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector contains non-finite entries")
    p.setflags(write=False)
    return p


@dataclass(frozen=True)
class NegativityReport:
    """Summary of truncation artifacts in a reconstructed distribution."""

    most_negative: float
    index: int
    negative_mass: float
    sum_deviation: float


def truncation_diagnostics(probs: np.ndarray) -> NegativityReport:
    """Report the most-negative entry, total negative mass, and sum deviation
    of a reconstructed probability vector."""
    idx = int(np.argmin(probs))
    neg = probs[probs < 0]
    return NegativityReport(
        most_negative=float(min(probs[idx], 0.0)),
        index=idx,
        negative_mass=float(-neg.sum()) if neg.size else 0.0,
        sum_deviation=float(probs.sum() - 1.0),
    )
