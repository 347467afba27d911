"""Recover photon-number probabilities from a pulse-area histogram.

Peaks in the histogram correspond to photon numbers. Each is a Gaussian; the
area under a peak counts the events at that photon number, and normalizing
the areas by their total yields the probability per gate.

``fit_comb`` fits the expected gate count at each tooth of the detector's
comb (offset + k gain) by Poisson maximum likelihood, so tooth k is photon
number k by construction. When the detector's pulse-area response is not
known, ``_fit_unknown_comb`` first fits the comb itself to the counts: a sum
of Gaussians whose centers and widths are tied to the comb, solved by the
projected Levenberg-Marquardt solver written here in numpy. ``fit_peaks``
fits a free sum of Gaussians with the same solver and labels its peaks by
rank. The module needs no scipy.
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
    """Sum-of-Gaussians fit: per-peak parameters plus convergence status."""

    peaks: tuple[FittedPeak, ...]
    residual_norm: float
    converged: bool


def _weighted_gaussians(x: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """The fit's objective as a function of the flat (height, center, width)
    parameters of a sum of Gaussians at ``x``.

    Each call computes z = (x - center) / width and g = exp(-z^2 / 2) once and
    returns the weighted residuals (sum of Gaussians - y) / sigma together
    with a function that builds their Jacobian from the same z and g, so a
    caller pays for the Jacobian only at the points it keeps.
    """

    def evaluate(params: np.ndarray):
        height, center, width = params.reshape(-1, 3).T
        z = (x[:, None] - center) / width
        g = np.exp(-0.5 * z * z)

        def jacobian() -> np.ndarray:
            d_height = g / sigma[:, None]
            d_center = d_height * z * (height / width)
            return np.stack((d_height, d_center, d_center * z), axis=-1).reshape(x.size, -1)

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


def _area_uncertainties(jac: np.ndarray, params: np.ndarray, bin_width: float) -> np.ndarray:
    """Per-peak area standard errors from the curvature of the weighted
    objective, given its Jacobian ``jac`` at the solution ``params``."""
    try:
        cov = np.linalg.pinv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return np.zeros(params.size // 3)
    # area = height * width * sqrt(2 pi) / bin_width depends on two parameters
    # per peak, so its variance needs three entries of cov per peak
    i_h, i_w = np.arange(0, params.size, 3), np.arange(2, params.size, 3)
    height, width = params[i_h], params[i_w]
    var = (SQRT_2PI / bin_width) ** 2 * (
        width**2 * cov[i_h, i_h] + 2.0 * height * width * cov[i_h, i_w] + height**2 * cov[i_w, i_w]
    )
    return np.sqrt(np.where(np.isfinite(var) & (var > 0.0), var, 0.0))


def fit_peaks(h, guesses) -> PeakFitResult:
    """Weighted nonlinear least squares of a sum of Gaussians to the histogram.

    All peaks are fitted jointly, so overlapping tails are shared between
    neighbours. Residuals carry Neyman weights sqrt(max(count, 1)); heights
    stay nonnegative, centers within a bin of the histogram's range and
    widths between a tenth of a bin and the range. The solver is a projected
    Levenberg-Marquardt iteration on the model's analytic Jacobian, which
    also gives the area standard errors.

    Args:
        h: AreaHistogram to fit.
        guesses: iterable of (center, width, height) initial guesses.

    Returns:
        PeakFitResult with peak areas in event-count units. When the budget
        of MAX_ITER * (parameters + 1) model evaluations runs out, the best
        iterate is returned with converged=False.
    """
    guesses = sorted(guesses, key=lambda g: g[0])
    if not guesses:
        raise ValueError("need at least one peak guess")

    x = h.bin_centers
    y = h.counts.astype(np.float64)
    sigma = np.sqrt(np.maximum(y, 1.0))
    bw = h.bin_width

    p0 = np.array([v for (c, w, amp) in guesses for v in (amp, c, w)])
    lo = np.tile([0.0, x[0] - bw, bw / 10.0], len(guesses))
    hi = np.tile([np.inf, x[-1] + bw, x[-1] - x[0]], len(guesses))
    params, resid, jac, converged = _levenberg_marquardt(
        _weighted_gaussians(x, y, sigma),
        p0,
        lo,
        hi,
        MAX_ITER * (p0.size + 1),
    )
    area_stds = _area_uncertainties(jac, params, bw)

    peaks = []
    for rank, k in enumerate(np.argsort(params[1::3])):
        height, center, width = params[3 * k : 3 * k + 3]
        width = abs(width)
        area = height * width * SQRT_2PI / bw
        std = max(area_stds[k], math.sqrt(max(area, 0.0)))
        peaks.append(FittedPeak(rank, float(center), float(width), float(area), float(std)))
    return PeakFitResult(
        tuple(peaks),
        residual_norm=float(np.linalg.norm(resid)),
        converged=converged,
    )


def _fit_unknown_comb(h) -> tuple[float, float, float, float, bool]:
    """Least-squares fit of the comb of an unknown detector to the histogram.

    The model is a sum of Gaussians tied to a comb: tooth k sits at
    offset + k gain with width sqrt(sigma0^2 + k sigma_per_photon^2), and has
    a free height. Residuals, bounds and solver are those of ``fit_peaks``,
    with its Jacobian composed with the comb by the chain rule.

    The fit starts with the gain at the first maximum of the counts'
    autocorrelation past its zero-lag lobe (the highest one sits at twice the
    gain when two-count events outnumber one-count ones), or, for a single
    peak, at the end of the lobe; the offset at the lowest comb position in
    the range through the tallest bin; sigma0 and sigma_per_photon at gain/8
    and gain/32 (from zero, sigma_per_photon would never move); and each
    height at the count in the bin under its tooth. The gain stays above
    half its start, so that teeth cannot crowd onto one peak to fit its noise.
    A start comb that is not resolvable over the gains the counts span
    (noise, not photon-number peaks) raises ValueError before the solver
    runs.

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

    gaussians = _weighted_gaussians(x, y, np.sqrt(np.maximum(y, 1.0)))

    def evaluate(p: np.ndarray):
        offset, gain, sigma0, per_photon = p[-4:]
        width = np.sqrt(sigma0**2 + k * per_photon**2)
        r, jacobian = gaussians(np.column_stack((p[:-4], offset + k * gain, width)).ravel())

        def comb_jacobian() -> np.ndarray:
            jac = jacobian()
            d_center, d_width = jac[:, 1::3], jac[:, 2::3]
            return np.column_stack((
                jac[:, 0::3],
                d_center.sum(axis=1),
                d_center @ k,
                d_width @ (sigma0 / width),
                d_width @ (k * per_photon / width),
            ))

        return r, comb_jacobian

    p0 = np.concatenate((y[under], [offset, gain, sigma0, per_photon]))
    lo = np.concatenate((np.zeros(k.size), [x[0] - bw, gain / 2.0, bw / 10.0, 0.0]))
    hi = np.concatenate((np.full(k.size, np.inf), [x[-1] + bw, span, span, span]))
    # tails far from every tooth underflow to zero, which is their right value
    with np.errstate(under="ignore"):
        p, _, _, converged = _levenberg_marquardt(evaluate, p0, lo, hi, MAX_ITER * (p0.size + 1))

    offset, gain, sigma0, per_photon = (float(v) for v in p[-4:])
    areas = p[:-4] * np.sqrt(sigma0**2 + k * per_photon**2) * SQRT_2PI / bw
    pedestal = int(np.argmax(areas >= 1.0))
    return (offset + pedestal * gain, gain, math.sqrt(sigma0**2 + pedestal * per_photon**2),
            per_photon, converged)


def fit_comb(h, mass: np.ndarray) -> PeakFitResult:
    """Poisson maximum-likelihood fit of the expected gate count at each tooth
    of a known detector comb.

    ``mass[k]`` holds the probability that a gate with k detected counts
    lands in each bin of ``h``, whose ``detector`` places tooth k at
    ``peak_center(k)`` with width ``peak_width(k)``. The expected bin counts
    are lam @ mass, and lam is estimated by expectation-maximisation,
    lam <- lam * mass (y / lam mass) / mass 1, over the bins that hold counts
    and whose expected count is positive (an empty bin adds nothing to
    mass (y / lam mass))
    (Richardson, JOSA 62, 55, 1972; Shepp & Vardi, IEEE TMI 1, 113, 1982),
    which keeps lam nonnegative. It starts from equal counts on every tooth
    and has converged once no tooth moves by more than XTOL * max(lam, 1);
    MAX_ITER iterations are allowed.

    Returns a PeakFitResult whose peak k is photon number k, with area lam_k
    and standard error the larger of its Fisher-information error and
    sqrt(max(lam_k, 1)). The Fisher information is inverted directly; a
    tooth with lam_k = 0 gets no variance from it. Teeth 0 up to the last
    with at least one fitted event are reported. ``residual_norm`` uses the
    Neyman weights of ``fit_peaks``.
    """
    y = h.counts.astype(np.float64)
    if mass.shape[0] == 0:
        raise ValueError("no tooth of the detector comb lies in the histogram's range")
    if y.sum() == 0:
        raise ValueError("empty histogram: no counts to fit")
    reach = mass.sum(axis=1)
    held = y > 0.0
    counts, held_mass = y[held], mass[:, held]
    lam = np.full(reach.size, y.sum() / reach.size)
    converged = False
    # tails far from every tooth underflow to zero, which is their right value
    with np.errstate(under="ignore"):
        for _ in range(MAX_ITER):
            mu = lam @ held_mass
            ratio = np.divide(counts, mu, out=np.zeros_like(mu), where=mu > 0.0)
            step = lam * (held_mass @ ratio) / reach - lam
            lam = lam + step
            if (np.abs(step) <= XTOL * np.maximum(lam, 1.0)).all():
                converged = True
                break
        # Fisher information of lam, sum_i mass_ji mass_ki / mu_i, scaled by
        # sqrt(lam_j lam_k) before the division so that every entry lies in
        # [0, 1]; an empty tooth's zero row and column get a unit diagonal
        mu = lam @ mass
        scaled = mass * np.sqrt(lam)[:, None]
        info = np.divide(scaled, mu, out=np.zeros_like(scaled), where=mu > 0.0) @ scaled.T
        empty = np.flatnonzero(lam == 0.0)
        info[empty, empty] = 1.0
        try:
            cov = np.linalg.inv(info)
        except np.linalg.LinAlgError:  # exactly singular: teeth with one bin mass
            cov = np.linalg.pinv(info)
        variance = lam * np.diag(cov)
    std = np.sqrt(np.maximum(variance, np.maximum(lam, 1.0)))

    fitted = np.flatnonzero(lam >= 1.0)
    ks = range(fitted[-1] + 1 if fitted.size else 1)
    det = h.detector
    peaks = tuple(
        FittedPeak(k, center, width, area, err)
        for k, center, width, area, err in zip(
            ks, det.peak_center(ks).tolist(), det.peak_width(ks).tolist(),
            lam.tolist(), std.tolist())
    )
    resid = (y - mu) / np.sqrt(np.maximum(y, 1.0))
    return PeakFitResult(peaks, residual_norm=float(np.linalg.norm(resid)), converged=converged)


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
