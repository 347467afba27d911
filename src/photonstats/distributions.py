"""Finite photon-number distributions and the source models that produce them.

A distribution is a plain probability vector over photon number n = 0..cutoff.
Sources are described declaratively by :class:`SourceSpec` and realized by
:func:`make_distribution`; pair-emitting sources put mass only on even photon
numbers (two photons per pair).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

SUM_TOL = 1e-12
LOST_MASS_TOL = 1e-6
MIN_CUTOFF = 3

SOURCE_KINDS = ("poisson", "pdc_pairs", "fock", "mixture")
PAIR_STATISTICS = ("poissonian", "thermal")


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
    """Probability vector over photon number 0..cutoff.

    ``signed`` permits negative entries (reconstructed distributions only) and
    is validated on construction; the underlying array is made read-only. The
    entries need not sum to 1: a measured or reconstructed distribution sums
    to what its data give.
    """

    probs: np.ndarray
    signed: bool = False

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"probability vector must be 1-D, got shape {p.shape}")
        if p.size < MIN_CUTOFF + 1:
            raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {p.size - 1}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probability vector contains non-finite entries")
        if not self.signed and np.any(p < 0):
            raise ValueError("negative entries in a distribution not flagged signed")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def cutoff(self) -> int:
        return self.probs.size - 1

    def to_csv(self) -> str:
        out = StringIO()
        out.write("n,probability\n")
        for n, p in enumerate(self.probs):
            out.write(f"{n},{float(p)!r}\n")
        return out.getvalue()


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
        if self.cutoff < MIN_CUTOFF:
            raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {self.cutoff}")
        if self.kind in ("poisson", "pdc_pairs"):
            if self.mean is None or not math.isfinite(self.mean) or self.mean < 0:
                raise ValueError(f"{self.kind} source needs a finite mean >= 0, got {self.mean}")
            if self.kind == "pdc_pairs" and self.pair_statistics not in PAIR_STATISTICS:
                raise ValueError(
                    f"pair_statistics must be one of {PAIR_STATISTICS}, got {self.pair_statistics!r}"
                )
        elif self.kind == "fock":
            if self.n is None or self.n < 0:
                raise ValueError(f"fock source needs n >= 0, got {self.n}")
            if self.n > self.cutoff:
                raise ValueError(f"fock n={self.n} exceeds cutoff {self.cutoff}")
        elif self.kind == "mixture":
            if not self.weights or not self.components:
                raise ValueError("mixture source needs weights and components")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
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
    size = spec.cutoff + 1
    if spec.kind == "fock":
        p = np.zeros(size)
        p[spec.n] = 1.0
        return PhotonDistribution(p)

    if spec.kind == "mixture":
        parts = [make_distribution(c) for c in spec.components]
        w = np.asarray(spec.weights)
        w = w / w.sum()
        p = np.zeros(size)
        for wi, di in zip(w, parts):
            p += wi * di.probs
        return PhotonDistribution(p)

    if spec.kind == "poisson":
        raw = _poisson_pmf(spec.mean, size)
    else:  # pdc_pairs: photon number = 2 * pair number
        raw = np.zeros(size)
        pair_pmf = _pair_number_pmf(spec.mean, spec.pair_statistics, spec.cutoff // 2)
        raw[0 : 2 * (spec.cutoff // 2) + 1 : 2] = pair_pmf

    lost = 1.0 - raw.sum()
    if lost > LOST_MASS_TOL:
        raise TruncationLossError(lost, context=f"{spec.kind} source at cutoff {spec.cutoff}")
    return PhotonDistribution(raw / raw.sum())

