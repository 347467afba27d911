"""Finite photon-number distributions and the source models that produce them.

A distribution is a plain probability vector over photon number n = 0..cutoff.
Sources are described declaratively by :class:`SourceSpec` and realized by
:func:`make_distribution`; pair-emitting sources put mass only on even photon
numbers (two photons per pair).

The simulator and both comb fits take the binned cell law of a pulse-area
comb (``_comb_cells``), the count of its teeth in a range
(``_teeth_in_range``) and its resolvability rule (``_check_resolvable``)
from here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ioutil import real_number, whole_number

SUM_TOL = 1e-12
LOST_MASS_TOL = 1e-6
MIN_CUTOFF = 3

SOURCE_KINDS = ("poisson", "pdc_pairs", "fock", "mixture")
PAIR_STATISTICS = ("poissonian", "thermal")
# math.erfc(x) is exactly 2.0 for x <= _ERFC_TWO and exactly 0.0 for
# x >= _ERFC_ZERO, so only the band between them needs the call.
_ERFC_TWO = -6.5
_ERFC_ZERO = 27.5


class TruncationLossError(ValueError):
    """Raised when a cutoff is too small to hold the required probability mass.

    Carries the mass that fell outside the truncation window in ``lost_mass``.
    """

    def __init__(self, lost_mass: float, context: str = ""):
        self.lost_mass = float(lost_mass)
        where = f" in {context}" if context else ""
        super().__init__(
            f"probability mass {self.lost_mass:.3e} lost beyond the cutoff{where} "
            f"(tolerance {LOST_MASS_TOL:.0e}); increase the cutoff"
        )


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Probability vector over photon number 0..cutoff: nonnegative, validated
    on construction and read-only. Its entries need not sum to 1: a measured
    distribution sums to what its data give."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"probability vector must be 1-D, got shape {p.shape}")
        if p.size < MIN_CUTOFF + 1:
            raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {p.size - 1}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probability vector contains non-finite entries")
        if np.any(p < 0):
            raise ValueError("probability vector contains negative entries")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def cutoff(self) -> int:
        return self.probs.size - 1


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of a photon-number source.

    kind:
        ``poisson``   -- coherent-light statistics; ``mean`` photons per gate.
        ``pdc_pairs`` -- pair emitter; ``mean`` pairs per gate, photon number
                         is twice the pair number, pair number follows
                         ``pair_statistics`` ("poissonian" or "thermal").
        ``fock``      -- point mass at photon number ``n``.
        ``mixture``   -- convex combination of ``components`` with ``weights``.
    """

    kind: str
    cutoff: int
    mean: float | None = None
    pair_statistics: str = "poissonian"
    n: int | None = None
    weights: tuple[float, ...] | None = None
    components: tuple["SourceSpec", ...] = field(default=None)

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}; expected one of {SOURCE_KINDS}")
        object.__setattr__(self, "cutoff", whole_number("source cutoff", self.cutoff))
        if self.n is not None:
            object.__setattr__(self, "n", whole_number("source n", self.n))
        if self.cutoff < MIN_CUTOFF:
            raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {self.cutoff}")
        if self.kind in ("poisson", "pdc_pairs"):
            if self.mean is None or real_number("source mean", self.mean) < 0:
                raise ValueError(f"{self.kind} source needs a finite mean >= 0, got {self.mean}")
            if self.kind == "pdc_pairs":
                _check_pair_statistics(self.pair_statistics)
        elif self.kind == "fock":
            if self.n is None or self.n < 0:
                raise ValueError(f"fock source needs n >= 0, got {self.n}")
            if self.n > self.cutoff:
                raise ValueError(f"fock n={self.n} exceeds cutoff {self.cutoff}")
        elif self.kind == "mixture":
            if not self.weights or not self.components:
                raise ValueError("mixture source needs weights and components")
            weights = tuple(real_number("mixture weights", w) for w in self.weights)
            object.__setattr__(self, "weights", weights)
            object.__setattr__(self, "components", tuple(self.components))
            if len(self.weights) != len(self.components):
                raise ValueError("mixture weights and components differ in length")
            if any(w < 0 for w in self.weights):
                raise ValueError("mixture weights must be nonnegative")
            if abs(math.fsum(self.weights) - 1.0) > SUM_TOL:
                raise ValueError(f"mixture weights sum to {math.fsum(self.weights)!r}, not 1")
            for c in self.components:
                if c.cutoff != self.cutoff:
                    raise ValueError("mixture components must share the mixture cutoff")


def _check_pair_statistics(statistics) -> None:
    """Require one of PAIR_STATISTICS as the law of the pair number."""
    if statistics not in PAIR_STATISTICS:
        raise ValueError(f"pair_statistics must be one of {PAIR_STATISTICS}, got {statistics!r}")


def _gaussian_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF elementwise, as 0.5 erfc(-z / sqrt 2), which keeps
    the lower tail that 0.5 (1 + erf(z / sqrt 2)) rounds to zero. Far tails
    underflow to subnormals or zero, which are their right values."""
    x = -np.asarray(z, dtype=np.float64) / math.sqrt(2.0)
    low = x <= _ERFC_TWO
    out = np.where(low, 2.0, 0.0)
    band = ~(low | (x >= _ERFC_ZERO))
    inside = x[band]
    out[band] = np.fromiter(map(math.erfc, inside.tolist()), np.float64, inside.size)
    with np.errstate(under="ignore"):
        return 0.5 * out


def _comb_cells(center: np.ndarray, width: np.ndarray, edges: np.ndarray):
    """The binned cell law of a pulse-area comb, one row per tooth with a
    Gaussian area of mean ``center`` and standard deviation ``width``: z at
    the upper edge of each bin of ``edges``, the first edge read as -inf so
    that areas below the range fall in the first bin; the normal CDF at those
    edges; and the tooth's mass in each bin, with the overflow above the last
    edge last, so that each row sums to one. Returns (z, cdf, mass)."""
    z = (edges[1:] - center[:, None]) / width[:, None]
    cdf = _gaussian_cdf(z)
    return z, cdf, np.diff(cdf, prepend=0.0, append=1.0)


def _teeth_in_range(top: float, offset: float, gain: float) -> int:
    """The number of comb teeth, at offset + k gain for k = 0, 1, ..., whose
    centers lie at or below ``top``: none when the offset lies above it."""
    return max(int((top - offset) // gain) + 1, 0)


def _check_resolvable(gain: float, widest: float, photon_number: int) -> None:
    """Require gain > 4 x ``widest``, the width of the widest peak, at photon
    number ``photon_number``, so that neighbouring peaks separate."""
    if gain <= 4.0 * widest:
        raise ValueError(f"peaks unresolvable: gain {gain} must exceed 4 x width "
                         f"{widest:.3f} at photon number {photon_number}")


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n-1, as cumulative sums of logs. Every power of a
    sweep asks for the same sizes, so the last eight are kept, read-only."""
    logfact = np.zeros(n)
    logfact[1:] = np.cumsum(np.log(np.arange(1, n, dtype=np.float64)))
    logfact.setflags(write=False)
    return logfact


def _poisson_pmf(mean: float, size: int) -> np.ndarray:
    """Poisson(mean) probabilities of 0..size-1, not renormalized:
    exp(k log(mean) - mean - log(k!)), a point mass at 0 for mean 0."""
    if mean == 0.0:
        p = np.zeros(size)
        p[0] = 1.0
        return p
    k = np.arange(size)
    return np.exp(k * math.log(mean) - mean - _log_factorials(size))


def _pair_number_pmf(mean: float, statistics: str, max_pairs: int) -> np.ndarray:
    """Pair-count pmf over 0..max_pairs, not renormalized."""
    if statistics == "poissonian":
        return _poisson_pmf(mean, max_pairs + 1)
    k = np.arange(max_pairs + 1)
    # Bose-Einstein occupation: P(k) = mean^k / (1 + mean)^(k + 1)
    return np.exp(k * np.log(mean) - (k + 1) * np.log1p(mean)) if mean > 0 else (k == 0).astype(float)


def make_distribution(spec: SourceSpec) -> PhotonDistribution:
    """Realize a source spec as a normalized, physical distribution.

    The distribution is truncated at ``spec.cutoff`` and silently renormalized
    only when the mass lost to truncation is below LOST_MASS_TOL; otherwise a
    :class:`TruncationLossError` is raised.
    """
    return PhotonDistribution(_source_pmf(spec, spec.cutoff))


def _source_pmf(spec: SourceSpec, cutoff: int) -> np.ndarray:
    """The law of ``spec`` on photon numbers 0..``cutoff``, whatever
    ``spec.cutoff`` says: the one place each source law is written, for
    ``make_distribution`` and for the sampler, which widens the window
    until the law fits.

    Raises ValueError for a Fock number above ``cutoff``, and
    TruncationLossError when more than LOST_MASS_TOL of the law lies beyond
    it; otherwise the law is renormalized on the window.
    """
    size = cutoff + 1
    if spec.kind == "fock":
        if spec.n > cutoff:
            raise ValueError(f"fock n={spec.n} exceeds cutoff {cutoff}")
        p = np.zeros(size)
        p[spec.n] = 1.0
        return p

    if spec.kind == "mixture":
        w = np.asarray(spec.weights)
        w = w / w.sum()
        p = np.zeros(size)
        for wi, component in zip(w, spec.components):
            p += wi * _source_pmf(component, cutoff)
        return p

    if spec.kind == "poisson":
        raw = _poisson_pmf(spec.mean, size)
    else:  # pdc_pairs: photon number = 2 * pair number
        raw = np.zeros(size)
        pair_pmf = _pair_number_pmf(spec.mean, spec.pair_statistics, cutoff // 2)
        raw[0 : 2 * (cutoff // 2) + 1 : 2] = pair_pmf

    lost = 1.0 - raw.sum()
    if lost > LOST_MASS_TOL:
        raise TruncationLossError(lost, context=f"{spec.kind} source at cutoff {cutoff}")
    return raw / raw.sum()
