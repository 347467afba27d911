import json
import math
from dataclasses import replace

import numpy as np
import pytest

from photonstats.acquisition import (
    AreaHistogram,
    DetectorModel,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
from photonstats.cli import analyze_histogram
from photonstats.distributions import SourceSpec
from photonstats.fitting import (
    MAX_ITER,
    XTOL,
    _fit_unknown_comb,
    _levenberg_marquardt,
    _weighted_gaussians,
    areas_to_probabilities,
    fit_comb,
    fit_peaks,
)
from photonstats.ioutil import dumps_canonical

DET = DetectorModel(eta=0.67, dark_mean=4e-4)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_comb(edges, peaks):
    """Noiseless histogram: sum of Gaussians evaluated at bin centers.

    peaks: list of (height, center, width).
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    y = np.zeros_like(centers)
    for height, center, width in peaks:
        y += height * np.exp(-0.5 * ((centers - center) / width) ** 2)
    counts = np.rint(y).astype(np.int64)
    return AreaHistogram(edges, counts, n_gates=int(counts.sum()) + 1)


def comb_guesses(h, det):
    """(center, width, height) guesses for fit_peaks at the teeth of ``det``'s
    comb whose center bin holds at least 9 counts: a free Gaussian given a
    tooth of a few events is ill-determined."""
    teeth = np.arange(int((h.bin_edges[-1] - det.offset) // det.gain) + 1)
    guesses = []
    for k in teeth:
        center = float(det.peak_center(k))
        i = int(np.searchsorted(h.bin_edges, center, side="right")) - 1
        if 0 <= i < h.counts.size and h.counts[i] >= 9:
            guesses.append((center, float(det.peak_width(k)), float(h.counts[i])))
    return guesses


def gaussians_on_comb(offset, width):
    """The comb, gain 10, of gaussian_comb peaks of one width from ``offset`` up."""
    return DetectorModel(offset=offset, sigma0=width, sigma_per_photon=0.0, adc_max=100.0)


class TestFitPeaks:
    def test_analytic_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(31)
        x = np.linspace(-5.0, 60.0, 260)
        y = np.random.default_rng(32).poisson(40.0, x.size).astype(np.float64)
        evaluate = _weighted_gaussians(x, y, np.sqrt(np.maximum(y, 1.0)))
        for _ in range(20):
            n = int(rng.integers(1, 6))
            params = np.column_stack([rng.uniform(10.0, 1e4, n), rng.uniform(0.0, 55.0, n),
                                      rng.uniform(0.5, 3.0, n)]).ravel()
            jac = evaluate(params)[1]()
            numeric = np.empty_like(jac)
            for j in range(params.size):
                step = 1e-6 * max(abs(params[j]), 1.0)
                up, down = params.copy(), params.copy()
                up[j] += step
                down[j] -= step
                numeric[:, j] = (evaluate(up)[0] - evaluate(down)[0]) / (2 * step)
            # relative to each column's scale, since most entries are ~0
            assert np.all(np.abs(jac - numeric) <= 1e-6 * np.abs(jac).max(axis=0))

    def test_jacobian_built_only_at_accepted_points(self):
        # a guess far off the one peak: the solver rejects some trial steps
        edges = np.linspace(-5, 25, 121)
        h = gaussian_comb(edges, [(1000.0, 10.0, 1.5)])
        x = h.bin_centers
        y = h.counts.astype(np.float64)
        evaluate = _weighted_gaussians(x, y, np.sqrt(np.maximum(y, 1.0)))
        evaluated, built = [], []

        def counting(params):
            r, jacobian = evaluate(params)
            evaluated.append((params, r @ r))

            def counted_jacobian():
                built.append(params)
                return jacobian()

            return r, counted_jacobian

        lo = np.array([0.0, x[0] - 0.25, 0.025])
        hi = np.array([np.inf, x[-1] + 0.25, x[-1] - x[0]])
        *_, converged = _levenberg_marquardt(counting, np.array([100.0, 4.0, 3.0]), lo, hi, 800)
        assert converged
        kept = [evaluated[0]]
        for params, cost in evaluated[1:]:
            if cost < kept[-1][1]:
                kept.append((params, cost))
        assert len(evaluated) - len(kept) >= 1  # at least one rejected step
        assert len(built) == len(kept)
        for b, (k, _) in zip(built, kept):
            np.testing.assert_array_equal(b, k)

    def test_exact_single_gaussian_recovered(self):
        edges = np.linspace(-5, 25, 121)
        h = gaussian_comb(edges, [(5e6, 10.0, 1.5)])
        fit = fit_peaks(h, [(10.4, 1.1, 4e6)])
        assert fit.converged
        peak = fit.peaks[0]
        assert peak.center == pytest.approx(10.0, rel=1e-6)
        assert peak.width == pytest.approx(1.5, rel=1e-6)
        true_area = 5e6 * 1.5 * SQRT_2PI / h.bin_width
        assert peak.area == pytest.approx(true_area, rel=1e-6)

    def test_zero_height_guess_recovered(self):
        # at zero height the center and width columns of the Jacobian vanish
        edges = np.linspace(-5, 25, 121)
        h = gaussian_comb(edges, [(1000.0, 10.0, 1.5)])
        fit = fit_peaks(h, [(9.0, 1.0, 0.0)])
        assert fit.converged
        assert fit.peaks[0].center == pytest.approx(10.0, abs=0.01)
        assert fit.peaks[0].area == pytest.approx(1000.0 * 1.5 * SQRT_2PI / h.bin_width, rel=1e-3)

    def test_poisson_light_histogram_matches_poisson(self):
        # coherent source: fitted, normalized areas must look Poissonian
        mean = 1.8
        src = SourceSpec(kind="poisson", cutoff=20, mean=mean)
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        n = 400_000
        frequencies = simulate_gate_counts(src, det, n, seed=22)
        h = synthesize_histogram(frequencies, det, 500, seed=22)
        fit = fit_peaks(h, comb_guesses(h, det))
        assert fit.converged
        dist, _ = areas_to_probabilities(fit)
        for k in range(6):
            expected = math.exp(-mean) * mean**k / math.factorial(k)
            sigma = math.sqrt(expected * (1 - expected) / n) + fit.peaks[k].area_std_error / n
            assert abs(dist.probs[k] - expected) < 3 * sigma

    def test_pdc_histogram_matches_channel_probabilities(self):
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.21)
        frequencies = simulate_gate_counts(src, DET, 500_000, seed=23)
        h = synthesize_histogram(frequencies, DET, 500, seed=23)
        fit = fit_peaks(h, comb_guesses(h, DET))
        dist, _ = areas_to_probabilities(fit)
        emp = frequencies / frequencies.sum()
        assert np.abs(dist.probs[: emp.size] - emp[: dist.probs.size]).max() < 0.02

    def test_area_std_error_floored_at_sqrt_area(self):
        edges = np.linspace(-5, 25, 121)
        h = gaussian_comb(edges, [(100.0, 10.0, 1.0)])
        fit = fit_peaks(h, comb_guesses(h, gaussians_on_comb(10.0, 1.0)))
        for p in fit.peaks:
            assert p.area_std_error >= math.sqrt(p.area) - 1e-9

    def test_affine_rescaling_invariance(self):
        # shifting and scaling the area axis must not change areas/probabilities
        src = SourceSpec(kind="poisson", cutoff=16, mean=1.2)
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        frequencies = simulate_gate_counts(src, det, 200_000, seed=25)
        h = synthesize_histogram(frequencies, det, 400, seed=25)
        scale, shift = 3.7, -11.0
        h2 = AreaHistogram(scale * h.bin_edges + shift, h.counts,
                           n_gates=h.n_gates, overflow=h.overflow)
        guesses = comb_guesses(h, det)
        fit1 = fit_peaks(h, guesses)
        fit2 = fit_peaks(h2, [(scale * c + shift, scale * w, a) for c, w, a in guesses])
        d1, _ = areas_to_probabilities(fit1)
        d2, _ = areas_to_probabilities(fit2)
        np.testing.assert_allclose(d2.probs, d1.probs, rtol=1e-6, atol=1e-9)
        for p1, p2 in zip(fit1.peaks, fit2.peaks):
            assert p2.center == pytest.approx(scale * p1.center + shift, rel=1e-6)
            assert p2.width == pytest.approx(scale * p1.width, rel=1e-6)
            assert p2.area == pytest.approx(p1.area, rel=1e-6)

    def test_no_guesses_rejected(self):
        edges = np.linspace(0, 10, 21)
        h = AreaHistogram(edges, np.ones(20, dtype=int), n_gates=20)
        with pytest.raises(ValueError, match="guess"):
            fit_peaks(h, [])


def least_squares_fit(h, guesses):
    """fit_peaks's problem handed to scipy.optimize.least_squares (trust-region
    reflective) with the same residuals, Jacobian, bounds, tolerances and
    evaluation budget. Returns (converged, areas), ordered by center."""
    from scipy.optimize import least_squares

    guesses = sorted(guesses, key=lambda g: g[0])
    x = h.bin_centers
    y = h.counts.astype(np.float64)
    sigma = np.sqrt(np.maximum(y, 1.0))
    bw = h.bin_width
    p0 = np.array([v for (c, w, amp) in guesses for v in (amp, c, w)])
    lo = np.tile([0.0, x[0] - bw, bw / 10.0], len(guesses))
    hi = np.tile([np.inf, x[-1] + bw, x[-1] - x[0]], len(guesses))
    evaluate = _weighted_gaussians(x, y, sigma)
    result = least_squares(
        lambda params: evaluate(params)[0],
        np.clip(p0, lo, hi),
        jac=lambda params: evaluate(params)[1](),
        bounds=(lo, hi),
        xtol=XTOL,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=MAX_ITER * (p0.size + 1),
    )
    height, _, width = result.x.reshape(-1, 3)[np.argsort(result.x[1::3])].T
    return result.status > 0, height * width * SQRT_2PI / bw


def assert_matches_least_squares(h, guesses):
    fit = fit_peaks(h, guesses)
    converged, areas = least_squares_fit(h, guesses)
    assert fit.converged == converged
    # least_squares's peaks are labelled by rank too
    assert [p.photon_number for p in fit.peaks] == list(range(areas.size))
    ours = np.array([p.area for p in fit.peaks])
    std_errors = np.array([p.area_std_error for p in fit.peaks])
    assert np.all(np.abs(ours - areas) <= 1e-3 * std_errors)
    np.testing.assert_array_equal(np.rint(ours), np.rint(areas))
    return fit


class TestSolverMatchesLeastSquares:
    def test_on_the_noisy_histograms_of_criterion_8(self):
        for trial in range(100):
            if trial % 2 == 0:
                source = SourceSpec(kind="poisson", cutoff=20, mean=0.5 + 0.02 * trial)
            else:
                source = SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.1 + 0.01 * trial)
            frequencies = simulate_gate_counts(source, DET, 100_000, 800 + trial)
            h = synthesize_histogram(frequencies, DET, 500, 800 + trial)
            fit = assert_matches_least_squares(h, comb_guesses(h, DET))
            assert fit.converged

    def test_center_held_at_its_upper_bound(self):
        # a peak centred beyond the range shows only its tail, so its fitted
        # center stops one bin past the last bin center
        edges = np.linspace(0.0, 20.0, 81)
        h = gaussian_comb(edges, [(20000.0, 5.0, 1.0), (5000.0, 22.0, 2.0)])
        fit = assert_matches_least_squares(h, [(5.0, 1.0, 20000.0), (19.9, 1.5, 3000.0)])
        assert fit.converged
        assert fit.peaks[1].center == h.bin_centers[-1] + h.bin_width

    def test_heights_stay_nonnegative(self):
        # a guess on a notch in a broad peak would carve it out with a
        # negative height; the bound holds it at zero
        edges = np.linspace(-5.0, 25.0, 121)
        x = 0.5 * (edges[:-1] + edges[1:])
        y = 5000.0 * np.exp(-0.5 * ((x - 10.0) / 2.0) ** 2)
        y *= 1.0 - 0.4 * np.exp(-0.5 * ((x - 13.0) / 0.5) ** 2)
        counts = np.rint(y).astype(np.int64)
        h = AreaHistogram(edges, counts, n_gates=int(counts.sum()))
        fit = fit_peaks(h, [(10.0, 2.0, 5000.0), (13.0, 0.5, 1000.0)])
        assert fit.converged
        assert fit.peaks[1].area == 0.0
        assert fit.peaks[0].area > 0.0


def comb_mass(det, edges):
    """Bin masses of the comb teeth whose centers lie in the range of ``edges``."""
    teeth = np.arange(int((edges[-1] - det.offset) // det.gain) + 1)
    return bin_mass(det, edges, teeth)[:, :-1]


def noiseless_comb(lam, det=DET, bins=500):
    """A histogram whose counts are the rounded expected counts lam @ mass,
    on the bins synthesize_histogram uses, and the mass behind it."""
    edges = np.linspace(det.offset - 5.0 * det.sigma0, det.adc_max, bins + 1)
    mass = comb_mass(det, edges)
    counts = np.rint(np.asarray(lam, dtype=np.float64) @ mass).astype(np.int64)
    return AreaHistogram(edges, counts, n_gates=int(counts.sum()) + 1, detector=det), mass


class TestFitComb:
    def test_noiseless_counts_give_lambda_back(self):
        # counts large enough that rounding sits far below the tolerance
        lam = 1e10 * np.array([5.0, 4.0, 3.0, 2.5, 2.0, 1.5, 1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1])
        h, mass = noiseless_comb(lam)
        assert mass.shape[0] == lam.size
        fit = fit_comb(h, mass)
        assert fit.converged
        assert [p.photon_number for p in fit.peaks] == list(range(lam.size))
        np.testing.assert_allclose([p.area for p in fit.peaks], lam, rtol=1e-8)
        for p in fit.peaks:
            assert p.center == DET.peak_center(p.photon_number)
            assert p.width == DET.peak_width(p.photon_number)

    def test_reported_teeth_end_at_the_last_fitted_event(self):
        # tooth 2 is empty but lies below tooth 3; tooth 4 rounds to no counts
        lam = np.zeros(13)
        lam[[0, 1, 3, 4]] = [1000.0, 500.0, 40.0, 0.4]
        h, mass = noiseless_comb(lam)
        fit = fit_comb(h, mass)
        assert fit.converged
        assert [p.photon_number for p in fit.peaks] == [0, 1, 2, 3]
        assert fit.peaks[2].area < 1.0 <= fit.peaks[3].area
        # the error is never below one event, even on an empty tooth
        assert all(p.area_std_error >= max(1.0, math.sqrt(p.area)) for p in fit.peaks)

    def test_standard_errors_match_poisson_counts(self):
        # well separated teeth: the Fisher error of a fully binned tooth is sqrt(lam)
        lam = np.array([40000.0, 9000.0, 2500.0])
        h, mass = noiseless_comb(np.pad(lam, (0, 10)))
        fit = fit_comb(h, mass)
        np.testing.assert_allclose([p.area_std_error for p in fit.peaks], np.sqrt(lam), rtol=1e-3)

    def test_no_iterations_is_not_converged(self, monkeypatch):
        import photonstats.fitting as fitting

        h, mass = noiseless_comb(np.full(13, 100.0))
        assert fit_comb(h, mass).converged
        monkeypatch.setattr(fitting, "MAX_ITER", 0)
        assert not fit_comb(h, mass).converged

    def test_empty_histogram_and_empty_comb_rejected(self):
        h, mass = noiseless_comb(np.zeros(13))
        with pytest.raises(ValueError, match="empty histogram"):
            fit_comb(h, mass)
        h, mass = noiseless_comb(np.full(13, 10.0))
        with pytest.raises(ValueError, match="no tooth"):
            fit_comb(h, mass[:0])

    def test_fock_source_with_empty_pedestal(self):
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        src = SourceSpec(kind="fock", cutoff=14, n=1)
        h = synthesize_histogram(simulate_gate_counts(src, det, 20_000, 3), det, 500, 3)
        with np.errstate(all="raise"):
            analysis = analyze_histogram(h)
        peaks = analysis.fit.peaks
        assert [p.photon_number for p in peaks] == [0, 1]
        assert peaks[0].area < 1.0
        assert peaks[1].area == pytest.approx(20_000, rel=1e-9)
        assert analysis.distribution.probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_strong_pump_with_overflow(self):
        # 16 uW: about 3.6 pairs per gate, so some areas lie above adc_max
        src = SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.2253 * 16)
        frequencies = simulate_gate_counts(src, DET, 100_000, 16)
        h = synthesize_histogram(frequencies, DET, 500, 16)
        assert h.overflow > 0
        with np.errstate(all="raise"):
            analysis = analyze_histogram(h)
        fit = analysis.fit
        assert fit.converged
        # every tooth up to the one centred on adc_max, which is half in range
        assert [p.photon_number for p in fit.peaks] == list(range(13))
        for p in fit.peaks:
            assert abs(p.area - frequencies[p.photon_number]) <= 5.0 * p.area_std_error


def pinv_comb_fit(h, mass):
    """fit_comb's areas and standard errors as first written: the EM over
    every bin, and sqrt(max(lam diag(pinv(S)), lam, 1)), with S the Fisher
    information over the bins of positive expected count scaled by
    sqrt(lam_j lam_k). Returns the areas and errors of every tooth, and the
    number of teeth reported."""
    y = h.counts.astype(np.float64)
    reach = mass.sum(axis=1)
    lam = np.full(reach.size, y.sum() / reach.size)
    with np.errstate(under="ignore"):
        for _ in range(MAX_ITER):
            mu = lam @ mass
            ratio = np.divide(y, mu, out=np.zeros_like(mu), where=mu > 0.0)
            step = lam * (mass @ ratio) / reach - lam
            lam = lam + step
            if np.all(np.abs(step) <= XTOL * np.maximum(lam, 1.0)):
                break
        mu = lam @ mass
        seen = mu > 0.0
        scaled = mass[:, seen] * np.sqrt(lam)[:, None] / np.sqrt(mu[seen])
        variance = lam * np.diag(np.linalg.pinv(scaled @ scaled.T))
    std = np.sqrt(np.maximum(variance, np.maximum(lam, 1.0)))
    fitted = np.flatnonzero(lam >= 1.0)
    return lam, std, fitted[-1] + 1 if fitted.size else 1


def simulated(source, det, n_gates, seed):
    return synthesize_histogram(simulate_gate_counts(source, det, n_gates, seed), det, 500, seed)


def fitted_comb(h):
    """``h`` on the comb fitted to its counts, as analyze_histogram fits it."""
    offset, gain, sigma0, per_photon, converged = _fit_unknown_comb(replace(h, detector=None))
    assert converged
    return replace(h, detector=DetectorModel(gain=gain, offset=offset, sigma0=sigma0,
                                             sigma_per_photon=per_photon,
                                             adc_max=float(h.bin_edges[-1])))


class TestFitCombMatchesPinvErrors:
    """The Fisher information is inverted directly, with a unit diagonal on
    empty teeth; areas and errors stay those of the pseudo-inverse."""

    @staticmethod
    def assert_matches(fit, h, mass):
        areas, errors, n = pinv_comb_fit(h, mass)
        assert len(fit.peaks) == n
        np.testing.assert_allclose([p.area for p in fit.peaks], areas[:n], rtol=1e-12, atol=0)
        np.testing.assert_allclose([p.area_std_error for p in fit.peaks], errors[:n],
                                   rtol=1e-9, atol=0)
        return areas

    @pytest.fixture
    def check(self, monkeypatch):
        """Fit ``h`` on its comb, with the pseudo-inverse out of reach, and
        hold it to the oracle; the oracle's areas of every tooth."""
        pinv = np.linalg.pinv

        def check(h):
            mass = comb_mass(h.detector, h.bin_edges)
            monkeypatch.setattr(np.linalg, "pinv", None)
            fit = fit_comb(h, mass)
            monkeypatch.setattr(np.linalg, "pinv", pinv)
            assert fit.converged
            return self.assert_matches(fit, h, mass)

        return check

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("source", [
        SourceSpec(kind="poisson", cutoff=20, mean=1.0),
        SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.2253),
    ], ids=["poisson", "pairs"])
    def test_seeded_histograms(self, check, source, seed):
        check(simulated(source, DET, 100_000, seed))

    def test_fock_source_with_empty_pedestal(self, check):
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        areas = check(simulated(SourceSpec(kind="fock", cutoff=14, n=1), det, 20_000, 3))
        # the teeth far above the one-count peak see no mass from its counts
        assert np.any(areas == 0.0)

    def test_strong_pump_with_overflow(self, check):
        h = simulated(SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.2253 * 16), DET, 100_000, 16)
        assert h.overflow > 0
        check(h)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_comb_fitted_without_a_sidecar(self, check, seed):
        det = DetectorModel(eta=0.98, dark_mean=0.0)
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.05)
        check(fitted_comb(simulated(source, det, 20_000, seed)))

    def test_twin_teeth_fall_back_to_pinv(self, monkeypatch):
        # two teeth with one bin mass share every EM step, so their Fisher
        # rows are equal and the 2 x 2 matrix is exactly singular
        h, mass = noiseless_comb(np.full(13, 100.0))
        twin = mass[[1, 1]]
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a) or pinv(a))
        fit = fit_comb(h, twin)
        assert len(calls) == 1
        self.assert_matches(fit, h, twin)


class TestUnknownCombStart:
    """A start comb whose teeth in range fail DetectorModel.check_resolvable
    is refused before the solver runs."""

    @staticmethod
    def even_peaks(n_peaks, spacing=8):
        """Equal unit-width peaks every ``spacing`` bins of width 1, the last
        ``spacing - 1`` bins past the last peak: a start comb of
        ``n_peaks`` teeth in range."""
        bins = 3 + (n_peaks - 1) * spacing + spacing - 1
        x = np.arange(bins) + 0.5
        y = sum(1000.0 * np.exp(-0.5 * (x - (3.5 + j * spacing)) ** 2) for j in range(n_peaks))
        counts = np.rint(y).astype(np.int64)
        return AreaHistogram(np.arange(bins + 1.0), counts, int(counts.sum()))

    def test_refused_from_tooth_48_on(self, monkeypatch):
        import photonstats.fitting as fitting

        class SolverRan(Exception):
            pass

        def solver(*args):
            raise SolverRan

        monkeypatch.setattr(fitting, "_levenberg_marquardt", solver)
        start = DetectorModel(gain=8.0, offset=3.5, sigma0=1.0, sigma_per_photon=0.25,
                              adc_max=1000.0)
        start.check_resolvable(47)
        with pytest.raises(SolverRan):
            _fit_unknown_comb(self.even_peaks(48))
        with pytest.raises(ValueError, match="unresolvable"):
            start.check_resolvable(48)
        with pytest.raises(ValueError, match="unresolvable.*photon number 48"):
            _fit_unknown_comb(self.even_peaks(49))


    def test_empty_bins_around_the_counts_do_not_count(self, monkeypatch):
        import photonstats.fitting as fitting

        class SolverRan(Exception):
            pass

        def solver(*args):
            raise SolverRan

        monkeypatch.setattr(fitting, "_levenberg_marquardt", solver)
        h = self.even_peaks(3)
        # 400 empty bins either side: the range reaches 100 start gains
        wide = AreaHistogram(np.arange(-400.0, h.counts.size + 401.0),
                             np.pad(h.counts, (400, 400)), h.n_gates)
        with pytest.raises(SolverRan):
            _fit_unknown_comb(wide)


class TestAreasToProbabilities:
    def test_single_pedestal_gives_p0_one(self):
        h = synthesize_histogram(np.array([60_000]), DET, 200, seed=26)
        fit = fit_peaks(h, comb_guesses(h, DET))
        dist, event_counts = areas_to_probabilities(fit)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-9)
        assert dist.probs[1:].sum() == pytest.approx(0.0, abs=1e-9)
        assert event_counts[0] == pytest.approx(60_000, rel=0.01)

    def test_equal_areas_split_evenly(self):
        edges = np.linspace(-5, 30, 141)
        h = gaussian_comb(edges, [(1000.0, 5.0, 1.0), (1000.0, 15.0, 1.0)])
        fit = fit_peaks(h, comb_guesses(h, gaussians_on_comb(5.0, 1.0)))
        dist, _ = areas_to_probabilities(fit)
        assert dist.probs[0] == pytest.approx(0.5, abs=1e-6)
        assert dist.probs[1] == pytest.approx(0.5, abs=1e-6)

    def test_output_normalized_and_padded(self):
        edges = np.linspace(-5, 30, 141)
        h = gaussian_comb(edges, [(1000.0, 5.0, 1.0)])
        fit = fit_peaks(h, comb_guesses(h, gaussians_on_comb(5.0, 1.0)))
        dist, event_counts = areas_to_probabilities(fit)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        assert dist.probs.size >= 4
        assert event_counts.size == dist.probs.size

    def test_unconverged_fit_rejected(self):
        from photonstats.fitting import FittedPeak, PeakFitResult

        bad = PeakFitResult(
            peaks=(FittedPeak(0, 0.0, 1.0, 10.0, 5.0),),
            residual_norm=1.0,
            converged=False,
        )
        with pytest.raises(ValueError, match="converge"):
            areas_to_probabilities(bad)

    def test_json_dict_structure(self):
        edges = np.linspace(-5, 30, 141)
        h = gaussian_comb(edges, [(1000.0, 5.0, 1.0)])
        fit = fit_peaks(h, comb_guesses(h, gaussians_on_comb(5.0, 1.0)))
        d = json.loads(dumps_canonical(fit))
        assert d["converged"] is True
        assert d["peaks"][0]["photon_number"] == 0
        assert set(d["peaks"][0]) == {
            "photon_number", "center", "width", "area", "area_std_error",
        }
