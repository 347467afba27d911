"""Recover photon-number probabilities from a pulse-area histogram.

Peaks in the histogram correspond to photon numbers. Each is a Gaussian; the
area under a peak counts the events at that photon number, and normalizing
the areas by their total yields the probability per gate.

``fit_comb`` fits the expected gate count at each tooth of the detector's
comb (offset + k gain) by Poisson maximum likelihood, in ``_poisson_em``, the
EM kernel on a design matrix, so tooth k is photon number k by construction.
It fits a stack of histograms at once; a lone histogram is a stack of one.
When the detector's pulse-area response is not known, ``_fit_unknown_comb``
first fits the comb itself to the counts: a sum of Gaussians whose centers
and widths are tied to the comb (``_comb_gaussians``), by Neyman-weighted
least squares with the projected Levenberg-Marquardt solver written here in
numpy. The module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MIN_CUTOFF, PhotonDistribution

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


def _comb_gaussians(x: np.ndarray, y: np.ndarray, k: np.ndarray):
    """The Neyman-weighted residuals (sum of Gaussians - y) / sqrt(max(y, 1))
    of an unknown comb at bin centers ``x`` with counts ``y``, as a function
    of p = (heights of teeth ``k``, offset, gain, sigma0, v): tooth k sits at
    offset + k gain with width w = sqrt(sigma0^2 + k v), v = sigma_per_photon^2.

    Each call computes z = (x - center) / w and g = exp(-z^2 / 2) once and
    returns the residuals with a function that builds their Jacobian from the
    same z and g, so a caller pays for it only at the points it keeps. Its
    columns are d/d height, the center derivatives summed (offset) and
    weighted by k (gain), and the width derivatives weighted by sigma0 / w
    (sigma0) and k / 2w (v).
    """
    sigma = np.sqrt(np.maximum(y, 1.0))

    def evaluate(p: np.ndarray):
        height = p[:-4]
        offset, gain, sigma0, v = p[-4:]
        width = np.sqrt(sigma0**2 + k * v)
        z = (x[:, None] - (offset + k * gain)) / width
        g = np.exp(-0.5 * z * z)

        def jacobian() -> np.ndarray:
            d_height = g / sigma[:, None]
            d_center = d_height * z * (height / width)
            d_width = d_center * z
            return np.column_stack((d_height, d_center.sum(axis=1), d_center @ k,
                                    d_width @ (sigma0 / width), d_width @ (k / (2.0 * width))))

        return (g @ height - y) / sigma, jacobian

    return evaluate


def _levenberg_marquardt(evaluate, p0, lo, hi, max_nfev):
    """Minimize ||r(p)||^2 over lo <= p <= hi by projected
    Levenberg-Marquardt (More, Lecture Notes in Mathematics 630, 105, 1978).

    Each step solves the damped normal equations (J'J + lam diag(J'J)) d = -J'r,
    where diag(J'J) keeps the largest value each column has had so far, and
    clips p + d into the bounds. A parameter held at a bound by its gradient
    is left out of the step, as in projected Newton methods (Bertsekas, SIAM
    J. Control Optim. 20, 221, 1982), so the others are solved with it fixed.
    An accepted step (lower cost) divides lam by 10 and a rejected one
    multiplies it by 10. The fit has converged when a step is shorter than
    XTOL relative to p, or an accepted step lowers the cost by less than 1e-12
    of it; it has not when ``max_nfev`` evaluations of r run out first.

    ``evaluate(p)`` returns r(p) and a function that builds the Jacobian of r
    at p; it is called only for p0 and the accepted points.

    Returns (p, r(p), Jacobian at p, converged).
    """
    p = np.clip(p0, lo, hi)
    r, jacobian = evaluate(p)
    jac = jacobian()
    cost = r @ r
    scale = np.zeros(p.size)
    lam = 1e-3
    nfev = 1
    while nfev < max_nfev:
        grad = jac.T @ r
        jtj = jac.T @ jac
        scale = np.maximum(scale, np.diag(jtj))
        # a column that has always been zero gets unit damping and no step
        damping = np.where(scale > 0.0, scale, 1.0)
        free = ~(((p <= lo) & (grad > 0.0)) | ((p >= hi) & (grad < 0.0)))
        step = np.zeros(p.size)
        try:
            step[free] = np.linalg.solve(
                jtj[np.ix_(free, free)] + lam * np.diag(damping[free]), -grad[free]
            )
        except np.linalg.LinAlgError:  # lam too small to lift a singular J'J
            lam *= 10.0
            continue
        trial = np.clip(p + step, lo, hi)
        step_norm = np.linalg.norm(trial - p)
        r_trial, trial_jacobian = evaluate(trial)
        nfev += 1
        cost_trial = r_trial @ r_trial
        if cost_trial < cost:
            small_gain = cost - cost_trial <= 1e-12 * cost
            p, r, cost = trial, r_trial, cost_trial
            jac = trial_jacobian()
            lam /= 10.0
            if small_gain:
                return p, r, jac, True
        else:
            lam *= 10.0
        if step_norm <= XTOL * (XTOL + np.linalg.norm(p)):
            return p, r, jac, True
    return p, r, jac, False


def _fit_unknown_comb(h) -> tuple[float, float, float, float, bool]:
    """Least-squares fit of the comb of an unknown detector to the histogram.

    The model is ``_comb_gaussians``, fitted by ``_levenberg_marquardt`` with
    heights >= 0, the offset within a bin of the range, sigma0 between a
    tenth of a bin and the range, and v = sigma_per_photon^2 in [0, range^2]:
    unlike sigma_per_photon, v can leave 0 once a step reaches it.

    The fit starts with the gain at the first maximum of the counts'
    autocorrelation past its zero-lag lobe (the highest one sits at twice the
    gain when two-count events outnumber one-count ones), or, for a single
    peak, at the end of the lobe; the offset at the lowest comb position in
    the range through the tallest bin; sigma0 and sigma_per_photon at gain/8
    and gain/32; and each height at the count in the bin under its tooth. The
    gain stays above half its start, so that teeth cannot crowd onto one peak
    to fit its noise. A start comb that is not resolvable over the gains the
    counts span (noise, not photon-number peaks) raises ValueError before
    the solver runs.

    Returns (offset, gain, sigma0, sigma_per_photon, converged), with offset
    and sigma0 those of the pedestal: the lowest tooth holding at least one
    fitted event.
    """
    y = h.counts.astype(np.float64)
    if y.sum() == 0:
        raise ValueError("empty histogram: no counts to fit")
    x = h.bin_centers
    bw = h.bin_width
    bottom, top = h.bin_edges[0], h.bin_edges[-1]
    span = top - bottom

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
    k = np.arange(int((top - offset) // gain) + 1)
    sigma0, per_photon = gain / 8.0, gain / 32.0
    # the rule of DetectorModel.check_resolvable, gain > 4 x the widest width,
    # held to the start comb over the gains the counts span (empty bins
    # around them do not count): these start widths fail it from 48 gains
    # on, which noise reaches and photon-number peaks do not, and the solver
    # would spend seconds crowding such a comb
    held = np.flatnonzero(y)
    spanned = int((x[held[-1]] - x[held[0]]) // gain)
    widest = math.sqrt(sigma0**2 + spanned * per_photon**2)
    if gain <= 4.0 * widest:
        raise ValueError(f"peaks unresolvable: the start comb's gain {gain} must exceed "
                         f"4 x width {widest:.3f} at photon number {spanned}")
    under = np.clip(np.rint((offset + k * gain - x[0]) / bw).astype(int), 0, y.size - 1)

    p0 = np.concatenate((y[under], [offset, gain, sigma0, per_photon**2]))
    lo = np.concatenate((np.zeros(k.size), [x[0] - bw, gain / 2.0, bw / 10.0, 0.0]))
    hi = np.concatenate((np.full(k.size, np.inf), [x[-1] + bw, span, span, span**2]))
    # tails far from every tooth underflow to zero, which is their right value
    with np.errstate(under="ignore"):
        p, _, _, converged = _levenberg_marquardt(_comb_gaussians(x, y, k), p0, lo, hi,
                                                  MAX_ITER * (p0.size + 1))

    offset, gain, sigma0, v = (float(value) for value in p[-4:])
    areas = p[:-4] * np.sqrt(sigma0**2 + k * v) * SQRT_2PI / bw
    pedestal = int(np.argmax(areas >= 1.0))
    return (offset + pedestal * gain, gain, math.sqrt(sigma0**2 + pedestal * v),
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
    (count - expected) / sqrt(max(count, 1)), with Neyman weights.
    """
    if mass.shape[0] == 0:
        raise ValueError("no tooth of the detector comb lies in the histogram's range")
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
    scaled by sqrt(lam_j lam_k), so lam_j has variance lam_j cov_jj and a zero
    weight (unit diagonal) has none. Each row's information is built and
    inverted on its own, and only an exactly singular one by its
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
        # lies in [0, 1]; a zero weight's zero row and column get a unit diagonal
        cov = np.empty((totals.size, reach.size, reach.size))
        for p, (lam_p, mu_p) in enumerate(zip(lam, lam @ design)):
            scaled = design * np.sqrt(lam_p)[:, None]
            info = np.divide(scaled, mu_p, out=np.zeros(scaled.shape), where=mu_p > 0.0) @ scaled.T
            empty = (lam_p == 0.0).nonzero()[0]
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
