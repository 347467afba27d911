"""Reference physics for the benchmark, written with numpy and math only.

The benchmark checks photonstats against these computations, so nothing here
imports photonstats. Two things are provided:

* the closed-form forward model: source photon-number law (Poisson photons,
  or Poisson/thermal pairs with two photons per pair), binomial thinning by
  the detection efficiency, then additive Poisson dark counts;
* a per-gate sampler that draws the same chain gate by gate and digitizes one
  Gaussian pulse area per gate, for inputs whose true counts must be known.
"""

from __future__ import annotations

import math

import numpy as np

CLASSICAL_GAMMA_BOUND = 3.0 / (3.0 + 2.0 * math.sqrt(6.0))
TAIL_TOL = 1e-15


def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def poisson_pmf(mean: float, size: int) -> np.ndarray:
    """Poisson(mean) probabilities of 0..size-1."""
    k = np.arange(size, dtype=np.float64)
    if mean == 0.0:
        return (k == 0).astype(np.float64)
    return np.exp(k * math.log(mean) - mean - _log_factorials(size))


def source_pmf(kind: str, mean: float, size: int, pair_statistics: str = "poissonian") -> np.ndarray:
    """Photon-number probabilities of 0..size-1 before the detector.

    ``kind`` is ``poisson`` (mean photons) or ``pdc_pairs`` (mean pairs, two
    photons per pair, pair number Poisson or thermal).
    """
    if kind == "poisson":
        return poisson_pmf(mean, size)
    if kind != "pdc_pairs":
        raise ValueError(f"unsupported source kind {kind!r}")
    n_pairs = (size + 1) // 2
    if pair_statistics == "poissonian":
        pairs = poisson_pmf(mean, n_pairs)
    elif pair_statistics == "thermal":
        k = np.arange(n_pairs, dtype=np.float64)
        pairs = (mean / (1.0 + mean)) ** k / (1.0 + mean)
    else:
        raise ValueError(f"unsupported pair statistics {pair_statistics!r}")
    p = np.zeros(size)
    p[0::2] = pairs
    return p


def detector_matrix(eta: float, dark_mean: float, size: int) -> np.ndarray:
    """Column j is the detected-count law for j photons: thinning, then dark counts.

    Entries are exact on 0..size-1; a column's mass pushed above size-1 by dark
    counts is missing from it.
    """
    logf = _log_factorials(size)
    i = np.arange(size)[:, None]
    j = np.arange(size)[None, :]
    d = np.clip(j - i, 0, None)
    with np.errstate(divide="ignore"):
        log_eta = math.log(eta) if eta > 0 else -np.inf
        log_miss = math.log1p(-eta) if eta < 1 else -np.inf
        logb = logf[j] - logf[i] - logf[d] + np.where(i > 0, i * log_eta, 0.0)
        logb = logb + np.where(d > 0, d * log_miss, 0.0)
    thin = np.where(j >= i, np.exp(logb), 0.0)
    dark = np.zeros((size, size))
    dark_pmf = poisson_pmf(dark_mean, size)
    for col in range(size):
        dark[col:, col] = dark_pmf[: size - col]
    return dark @ thin


def detected_pmf(kind: str, mean: float, eta: float, dark_mean: float,
                 pair_statistics: str = "poissonian") -> np.ndarray:
    """Detected-count probabilities, on a window grown until the tail is below 1e-15."""
    size = 16
    while True:
        p = source_pmf(kind, mean, size, pair_statistics)
        if 1.0 - math.fsum(p) < TAIL_TOL and p[-4:].max() < TAIL_TOL:
            break
        size *= 2
    return detector_matrix(eta, dark_mean, size) @ p


def gamma(f) -> float:
    """Two-photon fraction f2 / (f1 + f2 + f3)."""
    return float(f[2] / (f[1] + f[2] + f[3]))


def gamma_weak_pump(eta: float) -> float:
    """Gamma of a lone thinned pair: P1 = 2 eta (1-eta), P2 = eta^2, P3 = 0."""
    return eta / (2.0 - eta)


def calibrate_pairs_per_uw(target_p1: float = 0.0818, eta: float = 0.67,
                           dark_mean: float = 4e-4) -> float:
    """Mean pairs per gate at 1 uW that put the one-count probability at ``target_p1``.

    Bisection on [1e-6, 2] pairs, where the one-count probability crosses the
    target once.
    """
    def p1(mu):
        return detected_pmf("pdc_pairs", mu, eta, dark_mean)[1]

    lo, hi = 1e-6, 2.0
    if not p1(lo) < target_p1 < p1(hi):
        raise ValueError("target one-count probability is not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p1(mid) < target_p1:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def sample_gates(rng: np.random.Generator, kind: str, mean: float, eta: float,
                 dark_mean: float, n_gates: int, pair_statistics: str = "poissonian") -> np.ndarray:
    """Detected count of each of ``n_gates`` gates, drawn gate by gate."""
    if kind == "poisson":
        photons = rng.poisson(mean, n_gates)
    elif pair_statistics == "poissonian":
        photons = 2 * rng.poisson(mean, n_gates)
    else:
        photons = 2 * (rng.geometric(1.0 / (1.0 + mean), n_gates) - 1)
    return rng.binomial(photons, eta) + rng.poisson(dark_mean, n_gates)


def digitize_areas(rng: np.random.Generator, counts: np.ndarray, *, gain: float, offset: float,
                   sigma0: float, sigma_per_photon: float, adc_max: float, bins: int):
    """One Gaussian pulse area per gate, binned on [offset - 5 sigma0, adc_max].

    Peak k is centred at offset + k gain with width sqrt(sigma0^2 + k
    sigma_per_photon^2). Areas above adc_max are overflow; areas below the
    range land in the first bin, as on a clamped digitizer. Returns
    (bin_edges, bin_counts, overflow).
    """
    areas = rng.normal(offset + counts * gain, np.sqrt(sigma0**2 + counts * sigma_per_photon**2))
    low = offset - 5.0 * sigma0
    edges = np.linspace(low, adc_max, bins + 1)
    over = areas > adc_max
    kept = np.maximum(areas[~over], low)
    return edges, np.histogram(kept, bins=edges)[0], int(over.sum())
