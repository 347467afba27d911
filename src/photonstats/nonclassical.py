"""Classicality tests on photon-number distributions.

The central statistic is the two-photon fraction gamma = P2 / (P1 + P2 + P3).
Any mixture of Poisson distributions (the statistics of every classical
field) satisfies gamma <= 3 / (3 + 2 sqrt(6)) ~= 0.3798, saturated by the
single Poisson distribution with mean sqrt(6); measuring a larger value is
therefore a direct witness of nonclassical light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import PhotonDistribution


def gamma(d: PhotonDistribution) -> float:
    """Two-photon fraction P2 / (P1 + P2 + P3)."""
    p = d.probs
    denom = float(p[1] + p[2] + p[3])
    if denom <= 0.0:
        raise ZeroDivisionError("P1 + P2 + P3 is zero; the ratio is undefined")
    return float(p[2]) / denom


def classical_gamma_bound() -> float:
    """Largest gamma attainable by any mixture of Poisson distributions.

    A single Poisson distribution of mean m has gamma = 3 m / (6 + 3 m + m^2),
    largest at m = sqrt(6). A mixture with weights w_k has
    gamma = sum_k w_k a_k / sum_k w_k b_k, where a_k = P2 and b_k = P1 + P2 + P3
    of component k: a ratio of two linear functions of the weights. It is the
    mean of the component ratios a_k / b_k under the weights w_k b_k, so it
    never exceeds the largest of them, and its maximum over any mixture is
    reached at a single component. The scan over single Poisson means
    therefore proves the bound for every classical field.
    """
    return 3.0 / (3.0 + 2.0 * math.sqrt(6.0))


def gamma_under_loss(eta: float) -> float:
    """Gamma of an ideal pair source seen through efficiency eta, weak-pump limit.

    A lone photon pair thinned binomially gives P1 = 2 eta (1-eta), P2 = eta^2,
    P3 = 0, hence gamma = eta / (2 - eta). Crosses the classical bound at
    eta = 3 / (3 + sqrt(6)) ~= 0.5505.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {eta}")
    return eta / (2.0 - eta)


def eta_from_ratio(p1: float, p2: float) -> float:
    """Detection efficiency estimated from the one- and two-count probabilities.

    In the weak-pump limit of a pair source, eta = 2 r / (1 + 2 r) with
    r = p2 / p1.
    """
    if p1 <= 0.0:
        raise ValueError(f"p1 must be positive, got {p1}")
    if p2 < 0.0:
        raise ValueError(f"p2 must be nonnegative, got {p2}")
    r = p2 / p1
    return 2.0 * r / (1.0 + 2.0 * r)


@dataclass(frozen=True)
class GammaReport:
    """Gamma with its uncertainty and position relative to the classical bound."""

    gamma: float
    std_error: float
    n_std_above_classical: float
    classical_bound: float
    violated: bool
    counts_basis: tuple[int, int, int, int] | None = None


def gamma_significance(counts) -> GammaReport:
    """Gamma and its significance from the three peak event counts (N1, N2, N3).

    First-order multinomial propagation on the restricted sample
    S = N1 + N2 + N3 gives Var(gamma) = gamma (1 - gamma) / S. The number of
    standard deviations above the classical bound is signed, so values below
    the bound come out negative. With zero variance (gamma exactly 0 or 1) the
    significance is +-inf by the sign of the excess, or 0 on the bound itself.
    """
    n1, n2, n3 = (float(c) for c in counts)
    if min(n1, n2, n3) < 0:
        raise ValueError(f"counts must be nonnegative, got {counts}")
    total = n1 + n2 + n3
    if total <= 0:
        raise ValueError("all three counts are zero; gamma is undefined")
    g = n2 / total
    se = math.sqrt(g * (1.0 - g) / total)
    bound = classical_gamma_bound()
    if se > 0:
        n_std = (g - bound) / se
    else:
        n_std = math.copysign(math.inf, g - bound) if g != bound else 0.0
    return GammaReport(
        gamma=g,
        std_error=se,
        n_std_above_classical=n_std,
        classical_bound=bound,
        violated=g - bound > 0,
        counts_basis=(round(n1), round(n2), round(n3), round(total)),
    )


@dataclass(frozen=True)
class ParityReport:
    """Even/odd photon-number balance of a distribution."""

    p_even: float
    p_odd: float
    parity: float
    nonclassical: bool


def parity_test(d: PhotonDistribution) -> ParityReport:
    """Flag a distribution whose odd photon numbers outweigh the even ones.

    A Poisson mixture has parity sum_k w_k exp(-2 mean_k) > 0, so a strictly
    negative parity cannot come from a classical field. Only the sign is
    tested; positive parity is inconclusive.
    """
    p_even = float(d.probs[0::2].sum())
    p_odd = float(d.probs[1::2].sum())
    parity = p_even - p_odd
    return ParityReport(
        p_even=p_even,
        p_odd=p_odd,
        parity=parity,
        nonclassical=parity < 0,
    )
