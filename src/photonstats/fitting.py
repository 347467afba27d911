"""Recover photon-number probabilities from a pulse-area histogram.

Peaks in the histogram correspond to photon numbers. Each is a Gaussian; the
area under a peak counts the events at that photon number, and normalizing
the areas by their total yields the probability per gate.

``fit_comb`` fits the expected gate count at each tooth of the detector's
comb (offset + k gain) by Poisson maximum likelihood, in ``_poisson_em``, the
EM kernel on a design matrix, so tooth k is photon number k by construction.
It fits a stack of histograms at once; a lone histogram is a stack of one.
When the detector's pulse-area response is not known, ``_fit_unknown_comb``
first fits the comb itself to the counts, by the same Poisson likelihood on
the same model, with the comb free (``_comb_ecm``). The module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (MIN_CUTOFF, PhotonDistribution, _check_resolvable, _comb_cells,
                            _teeth_in_range)

SQRT_2PI = math.sqrt(2.0 * math.pi)
XTOL = 1e-8
MAX_ITER = 200


@dataclass(frozen=True)
class FittedPeak:
    photon_number: int
    center: float
    width: float
    area: float
    area_std_error: float


@dataclass(frozen=True)
class PeakFitResult:
    """Comb fit: per-tooth center, width and fitted gate count, the norm of
    the residuals (count - expected) / sqrt(max(count, 1)), and convergence
    status."""

    peaks: tuple[FittedPeak, ...]
    residual_norm: float
    converged: bool


def _weighted_line(k, y, w, slope, floor):
    """Weighted least-squares line a + b k through the points (k, y), with
    weights w and b held at or above ``floor`` (a is then the best for that
    b); through a single point the line keeps ``slope``. Returns (a, b)."""
    total = w.sum()
    k_mean, y_mean = w @ k / total, w @ y / total
    if k.size > 1:
        slope = max((w * (k - k_mean)) @ (y - y_mean) / (w @ (k - k_mean) ** 2), floor)
    return y_mean - slope * k_mean, slope


def _comb_ecm(edges, y, k, lam, comb, floors):
    """Poisson maximum-likelihood comb for counts ``y`` on the bins of
    ``edges``, by expectation-conditional maximisation for a binned Gaussian
    mixture (McLachlan & Jones, Biometrics 44, 571, 1988; Meng & Rubin,
    Biometrika 80, 267, 1993). Tooth k of ``k`` holds lam_k events whose
    areas are N(offset + k gain, var0 + k v), with comb = (offset, gain,
    var0, v) and the start ``lam``.

    The E-step gives each tooth's expected events and their sums of z and
    z^2, z = (area - center) / width, from the cell law of ``_comb_cells``
    and the normal density at the same edges, with r_ik / mass_ik written as
    lam_k y_i / mu_i so that far tails give no 0/0; a bin whose mu_i is so
    small that y_i / mu_i overflows raises ValueError. Areas below the first
    edge fall in the first bin, as in ``bin_mass``; above the last edge
    nothing is observed, so its areas enter at their expected values. The
    CM-steps set lam to the expected events and take the teeth holding at
    least one (ValueError when none does): offset and gain are the weighted
    line of their mean areas on k (weights events / width^2), then var0 and
    v take one Fisher-scoring step, the weighted line of their mean squared
    deviations from the new centers on k (weights events / width^4).
    ``floors`` bounds the gain and var0 from below, and v stays at or above
    0. The fit has converged once no comb parameter moves by more than XTOL
    of the gain (of its square, for var0 and v); MAX_ITER iterations are
    allowed.

    Returns (comb, lam, converged).
    """
    comb = np.array(comb, dtype=np.float64)
    # tails far from a tooth underflow to zero, which is their right value
    with np.errstate(under="ignore"):
        for _ in range(MAX_ITER):
            offset, gain, var0, v = comb
            center, width = offset + k * gain, np.sqrt(var0 + k * v)
            z, cdf, mass = _comb_cells(center, width, edges)
            pdf = np.exp(-0.5 * z * z) / SQRT_2PI
            mu = lam @ mass[:, :-1]
            with np.errstate(over="ignore"):  # refused just below
                ratio = np.divide(y, mu, out=np.zeros(mu.shape), where=mu > 0.0)
            lost = np.isinf(ratio)
            if lost.any():
                i = lost.argmax()
                raise ValueError(f"cannot fit a comb: the bin at area "
                                 f"{0.5 * (edges[i] + edges[i + 1]):.6g} holds counts where "
                                 f"the comb expects only {mu[i]:.3g}")
            # a cell's events per unit of a tooth's mass in it: y / mu in a
            # bin, and all of them above the range
            share = np.append(ratio, 1.0)
            # a tooth's sum over the cells of share x (F(upper) - F(lower)),
            # summed by parts: F at the upper edges times step, plus F(inf)
            step = share[:-1] - share[1:]
            sum_z, sum_z2 = -lam * (pdf @ step), lam * ((cdf - z * pdf) @ step + 1.0)
            lam = lam * (cdf @ step + 1.0)
            held = lam >= 1.0
            if not held.any():  # the CM-steps would divide 0 by 0
                raise ValueError("too few counts to fit a comb: no tooth holds one expected event")
            kh, n, w = k[held], lam[held], width[held]
            offset, gain = _weighted_line(kh, center[held] + w * sum_z[held] / n, n / w**2,
                                          gain, floors[0])
            shift = (center[held] - (offset + kh * gain)) / w
            spread = w**2 * (sum_z2[held] + shift * (2.0 * sum_z[held] + shift * n)) / n
            var0, v = _weighted_line(kh, spread, n / w**4, v, 0.0)
            new = np.array([offset, gain, max(var0, floors[1]), v])
            moved = np.abs(new - comb)
            comb = new
            if np.all(moved <= XTOL * gain * np.array([1.0, 1.0, gain, gain])):
                return comb, lam, True
    return comb, lam, False


def _fit_unknown_comb(h) -> tuple[float, float, float, float, bool]:
    """Poisson maximum-likelihood fit of the comb of an unknown detector to
    the histogram, on the model of ``fit_comb``: tooth k holds lam_k gates,
    each with a Gaussian area at offset + k gain and variance
    sigma0^2 + k v, v = sigma_per_photon^2, and its areas below the range
    clipped into the first bin, as ``bin_mass`` clips them. ``_comb_ecm``
    fits it. Counts in fewer than three bins raise ValueError: two teeth
    narrowed to the width floor, or a pedestal pushed below the range, match
    any two bins exactly, so the comb is not identified.

    The fit starts with the gain at the first maximum of the counts'
    autocorrelation past its zero-lag lobe (the highest one sits at twice the
    gain when two-count events outnumber one-count ones), or, for a single
    peak, at the end of the lobe; the offset at the lowest comb position in
    the range through the tallest bin; sigma0 and sigma_per_photon at gain/8
    and gain/32. Each tooth starts with the counts nearest to it; teeth with
    none are dropped, and the lowest left is tooth 0 of the width law. The
    gain stays above half its start, so that teeth cannot crowd onto one peak
    to fit its noise, and sigma0 at or above a tenth of a bin. A start comb
    that is not resolvable over the gains the counts span (noise, not
    photon-number peaks) raises ValueError before the fit runs.

    Returns (offset, gain, sigma0, sigma_per_photon, converged), with offset
    and sigma0 those of the pedestal: the lowest tooth holding at least one
    fitted event.
    """
    y = h.counts.astype(np.float64)
    if y.sum() == 0:
        raise ValueError("empty histogram: no counts to fit")
    held = np.flatnonzero(y)
    if held.size < 3:  # two teeth at the width floor, or below the range, match two bins
        raise ValueError("too few counts to fit a comb: fewer than three bins hold counts")
    x = h.bin_centers
    bw = h.bin_width
    bottom, top = h.bin_edges[0], h.bin_edges[-1]

    auto = np.correlate(h.counts, h.counts, mode="full")[y.size - 1 :]
    step = np.diff(auto)
    rises = np.flatnonzero(step > 0)
    if rises.size:
        falls = np.flatnonzero(step[rises[0] :] < 0)
        lag = rises[0] + (falls[0] if falls.size else step.size - rises[0])
    else:  # one peak: the lobe never rises again, and ends where the counts do
        lag = np.count_nonzero(auto)
    gain = bw * lag
    tallest = x[np.argmax(y)]
    offset = tallest - gain * ((tallest - bottom) // gain)
    teeth = _teeth_in_range(top, offset, gain)
    sigma0, per_photon = gain / 8.0, gain / 32.0
    # the rule of DetectorModel.check_resolvable, held to the start comb
    # over the gains the counts span (empty bins around them do not count):
    # these start widths fail it from 48 gains on, which noise reaches and
    # photon-number peaks do not, and the fit would spend seconds crowding
    # such a comb
    spanned = int((x[held[-1]] - x[held[0]]) // gain)
    _check_resolvable(gain, math.sqrt(sigma0**2 + spanned * per_photon**2), spanned)

    nearest = np.clip(np.rint((x - offset) / gain).astype(int), 0, teeth - 1)
    lam = np.bincount(nearest, weights=y, minlength=teeth)
    k = np.flatnonzero(lam)
    (offset, gain, var0, v), lam, converged = _comb_ecm(
        h.bin_edges, y, k - k[0], lam[k], (offset + k[0] * gain, gain, sigma0**2, per_photon**2),
        (gain / 2.0, (bw / 10.0) ** 2))
    pedestal = k[np.argmax(lam >= 1.0)] - k[0]
    return (float(offset + pedestal * gain), float(gain), math.sqrt(var0 + pedestal * v),
            math.sqrt(v), converged)


def fit_comb(y: np.ndarray, mass: np.ndarray, det) -> list[PeakFitResult]:
    """Poisson maximum-likelihood fit of the expected gate count at each tooth
    of a known detector comb, for each row of ``y``: a stack of histograms'
    counts, recorded on the comb of ``det`` and binned alike.

    ``mass[k]`` holds the probability that a gate with k detected counts
    lands in each bin, where ``det`` places tooth k at ``peak_center(k)``
    with width ``peak_width(k)``. The expected bin counts of a row are
    lam @ mass, and lam is fitted by ``_poisson_em`` with ``mass`` as its
    design. An empty row fits to no events. The matrix products group their
    sums by the stack's shape, so a row's areas can differ from those of a
    stack of one in the last digits.

    Returns one PeakFitResult per row, whose peak k is photon number k, with
    area lam_k and standard error the larger of its Fisher-information error
    and sqrt(max(lam_k, 1)). Teeth 0 up to the last with at least one fitted
    event are reported. ``residual_norm`` is the norm of the residuals
    (count - expected) / sqrt(max(count, 1)), with Neyman weights. A count
    in a bin where every tooth's mass is 0 raises ValueError.
    """
    if mass.shape[0] == 0:
        raise ValueError("no tooth of the detector comb lies in the histogram's range")
    unreachable = np.logical_or.reduce(y, axis=0) & ~np.logical_or.reduce(mass, axis=0)
    if unreachable.any():
        raise ValueError(f"bin {unreachable.argmax()} holds counts that no tooth of the "
                         "detector comb reaches")
    lam, cov, converged = _poisson_em(y, mass)
    # a near-empty tooth's variance underflows to zero, which is its right value
    with np.errstate(under="ignore"):
        std = np.sqrt(np.maximum(lam * cov.diagonal(0, 1, 2), np.maximum(lam, 1.0)))
        resid = (y - lam @ mass) / np.sqrt(np.maximum(y, 1.0))

    teeth = np.arange(mass.shape[0])
    centers, widths = det.peak_center(teeth).tolist(), det.peak_width(teeth).tolist()
    fits = []
    for lam_p, std_p, resid_p, converged_p in zip(lam, std, resid, converged.tolist()):
        fitted = (lam_p >= 1.0).nonzero()[0]
        n = fitted[-1] + 1 if fitted.size else 1
        peaks = tuple(map(FittedPeak, range(n), centers[:n], widths[:n],
                          lam_p[:n].tolist(), std_p[:n].tolist()))
        fits.append(PeakFitResult(peaks, float(np.linalg.norm(resid_p)), converged_p))
    return fits


def _poisson_em(y: np.ndarray, design: np.ndarray):
    """Poisson maximum-likelihood weights lam >= 0 for each row of ``y``, a
    stack of counts whose expected values are lam @ ``design``.

    Every outcome that a weight can reach must be a column of ``design``:
    counts lost to an overflow are a column too, or the weights that reach
    it soak up the wrong mass. Expectation-maximisation,
    lam <- lam * design (y / lam design) / design 1 (Richardson, JOSA 62, 55,
    1972; Shepp & Vardi, IEEE TMI 1, 113, 1982), runs over the columns where
    any row holds counts, from each row's total spread equally. A row has
    converged, and keeps its lam, once no weight moves by more than
    XTOL * max(lam_j, 1); MAX_ITER iterations are allowed. An all-zero row
    stays at lam = 0.

    Returns (lam, cov, converged): cov[p] inverts row p's Fisher information
    scaled by sqrt(lam_j lam_k), so lam_j has variance lam_j cov_jj, and a
    weight whose scaled diagonal is zero or subnormal gets a unit diagonal,
    so its variance is about lam_j: none. Each row's information is built
    and inverted on its own, and only an exactly singular one by its
    pseudo-inverse.
    """
    totals = y.sum(axis=1)
    # one row, so that a stack of one divides by it without broadcasting
    reach = design.sum(axis=1)[None, :]
    held = np.logical_or.reduce(y, axis=0).nonzero()[0]
    held_design = design[:, held]
    held_design_t = held_design.T
    lam = np.empty((totals.size, reach.size))
    lam[:] = (totals / reach.size)[:, None]
    converged = np.zeros(totals.size, dtype=bool)
    # the rows still iterating, with their lam and their counts in the held columns
    rows, part, counts = np.arange(totals.size), lam, y[:, held]
    # tails far from every weight's mass underflow to zero, their right value
    with np.errstate(under="ignore"):
        for _ in range(MAX_ITER):
            mu = part @ held_design
            ratio = np.divide(counts, mu, out=np.zeros(mu.shape), where=mu > 0.0)
            step = part * (ratio @ held_design_t) / reach - part
            part = part + step
            going = np.logical_or.reduce(np.abs(step) > XTOL * np.maximum(part, 1.0), axis=1)
            left = np.count_nonzero(going)
            if left < rows.size:  # some rows have met the rule: freeze them
                lam[rows] = part
                if not left:
                    converged[rows] = True
                    break
                converged[rows[~going]] = True
                rows, part, counts = rows[going], part[going], counts[going]
        else:
            lam[rows] = part
        # Fisher information of each row's lam, sum_i design_ji design_ki / mu_i,
        # scaled by sqrt(lam_j lam_k) before the division so that every entry
        # lies in [0, 1]; a weight whose diagonal is zero or subnormal (its
        # lam underflows the scaling) gets a unit diagonal
        cov = np.empty((totals.size, reach.size, reach.size))
        for p, (lam_p, mu_p) in enumerate(zip(lam, lam @ design)):
            scaled = design * np.sqrt(lam_p)[:, None]
            info = np.divide(scaled, mu_p, out=np.zeros(scaled.shape), where=mu_p > 0.0) @ scaled.T
            empty = (info.diagonal() < np.finfo(np.float64).tiny).nonzero()[0]
            info[empty, empty] = 1.0
            try:
                cov[p] = np.linalg.inv(info)
            except np.linalg.LinAlgError:  # exactly singular: two weights, one design row
                cov[p] = np.linalg.pinv(info)
    return lam, cov, converged


def areas_to_probabilities(fit: PeakFitResult):
    """Normalize fitted peak areas into per-gate probabilities.

    Probabilities are indexed by the peaks' photon numbers and padded with
    zeros up to the minimum usable cutoff. Returns the distribution together
    with the integer-rounded event counts behind each probability.
    """
    if not fit.converged:
        raise ValueError("fit did not converge; refusing to normalize its areas")
    areas = np.array([p.area for p in fit.peaks])
    total = areas.sum()
    if total <= 0:
        raise ValueError("total fitted area is zero")
    size = max(areas.size, MIN_CUTOFF + 1)
    probs = np.zeros(size)
    probs[: areas.size] = areas / total
    event_counts = np.zeros(size, dtype=np.int64)
    event_counts[: areas.size] = np.rint(areas).astype(np.int64)
    return PhotonDistribution(probs), event_counts
