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
    """log(k!) for k = 0..n-1, as cumulative sums of logs. ``detector_matrix``
    asks for one size once per column, so the last eight are kept, read-only."""
    logfact = np.zeros(n)
    logfact[1:] = np.cumsum(np.log(np.arange(1, n, dtype=np.float64)))
    logfact.setflags(write=False)
    return logfact


def _poisson_pmf(mean: float, size: int) -> np.ndarray:
    """Poisson(mean) probabilities of 0..size-1, not renormalized:
    exp(k log(mean) - mean - log(k!)), a point mass at 0 for mean 0."""
    k = np.arange(size)
    if mean == 0.0:
        return (k == 0).astype(float)
    return np.exp(k * math.log(mean) - mean - _log_factorials(size))


def _panjer(a: tuple, b: tuple, log_p0: float, size: int, floor: float) -> np.ndarray:
    """Panjer's (a, b, 0) recursion (Panjer, ASTIN Bulletin 12, 22, 1981) on
    0..size-1: p_n = ((a_1 n + b_1) p_{n-1} + (a_2 n + b_2) p_{n-2}) / n from
    p_0 = exp(``log_p0``), a form in which a binomial's terms past its top are
    0. The terms run from p_0 = 1, divided by any that passes 1e250 so that
    none underflows or overflows, and stop once two in a row (a pair law's odd
    terms vanish at unit efficiency) fall below ``floor`` times their sum."""
    p, total = [0.0, 1.0], 1.0  # p_{-1} = 0, then p_0 scaled to 1
    for n in range(1, size):
        t = ((a[0] * n + b[0]) * p[-1] + (a[1] * n + b[1]) * p[-2]) / n
        if t > 1e250:
            p, total, log_p0 = [x / t for x in p], total / t, log_p0 + math.log(t)
            t = 1.0
        p.append(t)
        total += t
        if t + p[-2] < floor * total:
            break
    return np.array(p[1:]) * math.exp(log_p0)


def _count_law(spec: SourceSpec, eta: float, dark: float, size: int, floor: float) -> np.ndarray:
    """The law of counts 0..size-1, not renormalised, when each photon of
    ``spec`` survives with probability ``eta`` and Poisson(``dark``) counts
    are added, from ``_panjer`` with ``floor``. A pair gives 0, 1 or 2 counts
    with probabilities ((1-eta)^2, 2 eta (1-eta), eta^2). Poisson light and
    Poissonian pairs, with the dark counts, are one compound Poisson law;
    thermal pairs (compound geometric) and a Fock state (binomial) are
    convolved with the dark counts; a mixture sums its weighted components."""
    if spec.kind == "mixture":
        laws = [w * _count_law(c, eta, dark, size, floor)
                for w, c in zip(spec.weights, spec.components)]
        n = max(map(len, laws))
        return sum(np.pad(law, (0, n - law.size)) for law in laws)
    dark_law = functools.partial(_panjer, (0.0, 0.0), (dark, 0.0), -dark)
    if spec.kind == "fock" and eta == 1.0:  # a point mass, so the dark law shifted
        point = np.arange(min(spec.n + 1, size)) == spec.n
        return np.convolve(point, dark_law(size, floor))[:size]
    if spec.kind == "fock":
        r = eta / (1.0 - eta)
        a, b, log_p0 = (-r, 0.0), ((spec.n + 1) * r, 0.0), spec.n * math.log1p(-eta)
    else:
        pairs = spec.mean if spec.kind == "pdc_pairs" else 0.0
        one, two = (spec.mean - pairs) * eta + 2.0 * pairs * eta * (1.0 - eta), pairs * eta**2
        if spec.kind == "poisson" or spec.pair_statistics == "poissonian":
            return _panjer((0.0, 0.0), (one + dark, 2.0 * two), -(one + dark + two), size, floor)
        d = 1.0 + one + two
        a, b, log_p0 = (one / d, two / d), (0.0, 0.0), -math.log(d)
    # The terms either factor leaves out below floor would reach counts the
    # other one spans, so both are rerun without it, to their convolution's length.
    n = min(len(_panjer(a, b, log_p0, size, floor)) + len(dark_law(size, floor)) - 1, size)
    return np.convolve(_panjer(a, b, log_p0, n, 0.0), dark_law(n, 0.0))[:n]


def _photon_mean(spec: SourceSpec) -> float:
    """The mean photon number of ``spec``, uncut."""
    if spec.kind == "mixture":
        return sum(w * _photon_mean(c) for w, c in zip(spec.weights, spec.components))
    return spec.n if spec.kind == "fock" else spec.mean * (2 if spec.kind == "pdc_pairs" else 1)


def make_distribution(spec: SourceSpec) -> PhotonDistribution:
    """Realize a source spec as a normalized, physical distribution: its law
    (``_count_law`` with no loss and no dark counts) on 0..``spec.cutoff``,
    renormalized there unless more than LOST_MASS_TOL of it lies beyond,
    which raises :class:`TruncationLossError`."""
    raw = _count_law(spec, 1.0, 0.0, spec.cutoff + 1, 0.0)
    lost = 1.0 - raw.sum()
    if lost > LOST_MASS_TOL:
        raise TruncationLossError(lost, context=f"{spec.kind} source at cutoff {spec.cutoff}")
    return PhotonDistribution(raw / raw.sum())
