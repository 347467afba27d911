import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import padded_below
from photonstats.acquisition import (
    DEFAULT_PAIRS_PER_UW,
    AreaHistogram,
    DetectorModel,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
import photonstats.fitting as fitting
from photonstats.cli import _analysis, _comb_fits, analyze_histogram
from photonstats.channel import detector_matrix
from photonstats.distributions import SourceSpec, _teeth_in_range, make_distribution
from photonstats.fitting import (
    MAX_ITER,
    XTOL,
    _fit_unknown_comb,
    _poisson_em,
    areas_to_probabilities,
    fit_comb,
)
from photonstats.ioutil import dumps_canonical

DET = DetectorModel(eta=0.67, dark_mean=4e-4)


def binned_comb(edges, heights, offset=0.0, gain=10.0, sigma0=1.0, v=0.09):
    """Noiseless histogram: the rounded expected bin counts of a comb whose
    tooth k sits at offset + k gain with width w_k = sqrt(sigma0^2 + k v)
    and holds the events of a Gaussian of height ``heights[k]``,
    heights[k] w_k sqrt(2 pi) / bin width. Each tooth's bin mass is
    bin_mass's, so areas below the range are clipped into the first bin; a
    negative v gives teeth that narrow with k."""
    edges = np.asarray(edges, dtype=np.float64)
    k = np.arange(len(heights))
    width = np.sqrt(sigma0**2 + k * v)
    lam = np.asarray(heights) * width * math.sqrt(2.0 * math.pi) / (edges[1] - edges[0])
    mass = np.array([bin_mass(DetectorModel(offset=offset + j * gain, sigma0=w, sigma_per_photon=0.0,
                                            adc_max=float(edges[-1])), edges, 1)[0, :-1]
                     for j, w in zip(k.tolist(), width.tolist())])
    counts = np.rint(lam @ mass).astype(np.int64)
    return AreaHistogram(edges, counts, n_gates=int(counts.sum()) + 1)


class TestCombModel:
    def test_single_peak_recovered(self):
        # one Gaussian: the start gain is the end of the autocorrelation's lobe
        h = binned_comb(np.linspace(-5.0, 25.0, 121), (5e6,), offset=10.0, sigma0=1.5)
        offset, gain, sigma0, per_photon, converged = _fit_unknown_comb(h)
        assert converged
        assert offset == pytest.approx(10.0, rel=1e-6)
        assert sigma0 == pytest.approx(1.5, rel=1e-6)
        # a lone tooth cannot place gain and sigma_per_photon: both keep
        # their start, sigma_per_photon = gain / 32
        assert per_photon == gain / 32.0


class TestUnknownCombWidths:
    """The photon-number broadening is fitted as v = sigma_per_photon^2 >= 0,
    which can leave its bound 0 and return to it."""

    def test_per_photon_width_leaves_zero(self):
        # from the bound the fit used to stay at sigma_per_photon 0 and
        # widen sigma0 instead
        h = binned_comb(np.linspace(-5.0, 60.0, 401), (4e7, 2e7, 5e6),
                        offset=2.0, gain=12.0, sigma0=0.8, v=0.25)
        offset, gain, sigma0, per_photon, converged = _fit_unknown_comb(h)
        assert converged
        assert offset == pytest.approx(2.0, rel=1e-6)
        assert gain == pytest.approx(12.0, rel=1e-6)
        assert sigma0 == pytest.approx(0.8, rel=1e-6)
        assert per_photon == pytest.approx(0.5, rel=1e-6)

    def test_zero_per_photon_width_is_exact(self):
        # teeth that narrow with k, as sqrt(1 - 0.06 k), ask for v < 0: the
        # fit holds v at its bound, exactly 0, and one width serves them all
        h = binned_comb(np.linspace(-5.0, 60.0, 401), (4e7, 2e7, 5e6), v=-0.06)
        offset, gain, sigma0, per_photon, converged = _fit_unknown_comb(h)
        assert converged
        assert per_photon == 0.0
        assert gain == pytest.approx(10.0, rel=1e-6)
        assert math.sqrt(1.0 - 2 * 0.06) < sigma0 < 1.0


class TestSidecarLessAnalysis:
    """Histograms without their detector, analysed on the comb fitted to
    their counts."""

    def test_poisson_light_histogram_matches_poisson(self):
        # coherent source: fitted, normalized areas must look Poissonian
        mean = 1.8
        src = SourceSpec(kind="poisson", cutoff=20, mean=mean)
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        n = 400_000
        frequencies = simulate_gate_counts(src, det, n, seed=22)
        h = synthesize_histogram(frequencies, det, 500, seed=22)
        analysis = analyze_histogram(replace(h, detector=None))
        assert analysis.fit.converged
        for k in range(6):
            expected = math.exp(-mean) * mean**k / math.factorial(k)
            sigma = math.sqrt(expected * (1 - expected) / n) + analysis.fit.peaks[k].area_std_error / n
            assert abs(analysis.distribution.probs[k] - expected) < 3 * sigma

    def test_pdc_histogram_matches_channel_probabilities(self):
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.21)
        frequencies = simulate_gate_counts(src, DET, 500_000, seed=23)
        h = synthesize_histogram(frequencies, DET, 500, seed=23)
        dist = analyze_histogram(replace(h, detector=None)).distribution
        emp = frequencies / frequencies.sum()
        assert np.abs(dist.probs[: emp.size] - emp[: dist.probs.size]).max() < 0.02

    def test_area_std_error_floored_at_sqrt_area(self):
        h = binned_comb(np.linspace(-5.0, 40.0, 181), (1000.0, 600.0, 200.0))
        fit = analyze_histogram(h).fit
        assert fit.converged and len(fit.peaks) == 3
        for p in fit.peaks:
            assert p.area_std_error >= math.sqrt(p.area) - 1e-9

    @pytest.mark.parametrize("scale, shift", [(3.7, -11.0), (0.5, 100.0), (2.0, 0.0)])
    def test_affine_rescaling_invariance(self, scale, shift):
        # shifting and scaling the area axis must not change areas/probabilities
        src = SourceSpec(kind="poisson", cutoff=16, mean=1.2)
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        frequencies = simulate_gate_counts(src, det, 200_000, seed=25)
        h = replace(synthesize_histogram(frequencies, det, 400, seed=25), detector=None)
        h2 = AreaHistogram(scale * h.bin_edges + shift, h.counts,
                           n_gates=h.n_gates, overflow=h.overflow)
        a1, a2 = analyze_histogram(h), analyze_histogram(h2)
        np.testing.assert_allclose(a2.distribution.probs, a1.distribution.probs,
                                   rtol=1e-6, atol=1e-9)
        assert len(a2.fit.peaks) == len(a1.fit.peaks)
        for p1, p2 in zip(a1.fit.peaks, a2.fit.peaks):
            assert p2.center == pytest.approx(scale * p1.center + shift, rel=1e-6)
            assert p2.width == pytest.approx(scale * p1.width, rel=1e-6)
            assert p2.area == pytest.approx(p1.area, rel=1e-6)


def comb_log_likelihood(edges, y, k):
    """The binned Poisson log-likelihood of an unknown comb, up to a
    constant, and its gradient, as a function of p = (lam of teeth ``k``,
    offset, gain, var0, v): tooth k holds lam_k events with areas
    N(offset + k gain, var0 + k v). The first edge is read as -inf, so areas
    below the range fall in the first bin, and areas above the last edge are
    not observed. The normal CDF is scipy's."""
    from scipy.special import ndtr

    seen = y > 0

    def evaluate(p):
        lam, (offset, gain, var0, v) = p[:-4], p[-4:]
        width = np.sqrt(var0 + k * v)
        # the CDF at the upper edge of each bin
        z = (edges[1:] - (offset + k * gain)[:, None]) / width[:, None]
        cdf = ndtr(z)
        mu = lam @ np.diff(cdf, prepend=0.0)
        # the cells in and above the range: in range, sum y log mu - mu;
        # above, nothing
        value = y[seen] @ np.log(mu[seen]) - lam @ cdf[:, -1]
        ratio = np.zeros(y.size)
        ratio[seen] = y[seen] / mu[seen]
        # d value / d cdf[k, j] = lam_k d_j
        d = ratio - np.append(ratio[1:], 1.0)
        pull = lam[:, None] * d * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        d_center = -pull.sum(axis=1) / width
        d_width = -(pull * z).sum(axis=1) / width
        return value, np.concatenate((cdf @ d, [d_center.sum(), k @ d_center,
                                                (d_width / (2 * width)).sum(),
                                                k @ (d_width / (2 * width))]))

    return evaluate


def histograms_cut_at(bottom):
    """The 1 uW histograms of 2e5 gates at seeds 0-19, without their detector,
    each keeping its bins from ``bottom`` on, with the counts of the bins
    below added into its first bin, as bin_mass clips the areas below the
    range."""
    source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=DEFAULT_PAIRS_PER_UW)
    cut = []
    for seed in range(20):
        hist = simulated(source, DET, 200_000, seed)
        below = int(np.searchsorted(hist.bin_edges, bottom))
        counts = hist.counts[below:].copy()
        counts[0] += hist.counts[:below].sum()
        cut.append(AreaHistogram(hist.bin_edges[below:], counts, int(counts.sum())))
    return cut


def fitted_comb_problem(h, monkeypatch):
    """Fit the comb of ``h`` and return the likelihood of the kernel's
    problem, its fitted (lam, comb) as one vector, and its lower bounds."""
    calls = []
    ecm = fitting._comb_ecm

    def recording(*args):
        calls.append((args, ecm(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fitting, "_comb_ecm", recording)
    assert _fit_unknown_comb(h)[-1]
    (((edges, y, k, _, _, (gain_floor, var0_floor)), (comb, lam, _)),) = calls
    lo = np.concatenate((np.zeros(k.size), [-np.inf, gain_floor, var0_floor, 0.0]))
    return comb_log_likelihood(edges, y, k), np.concatenate((lam, comb)), lo


class TestUnknownCombIsTheMaximum:
    """scipy's L-BFGS-B, started at the fitted comb and tooth events, finds
    no better point of the same likelihood: one sigma in one parameter is
    a gain of 0.5 in log-likelihood, and the bound is 0.01."""

    @staticmethod
    def criterion_8_histogram(trial):
        """Criterion 8's noisy histogram ``trial``, stripped of its detector."""
        if trial % 2 == 0:
            source = SourceSpec(kind="poisson", cutoff=20, mean=0.5 + 0.02 * trial)
        else:
            source = SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.1 + 0.01 * trial)
        return replace(simulated(source, DET, 100_000, 800 + trial), detector=None)

    def test_gradient_matches_central_differences(self, monkeypatch):
        evaluate, p, _ = fitted_comb_problem(self.criterion_8_histogram(1), monkeypatch)
        p = p + np.concatenate((np.sqrt(p[:-4] + 1.0), [0.01, 0.01, 0.01, 0.01]))
        grad = evaluate(p)[1]
        for j in range(p.size):
            step = 1e-6 * max(abs(p[j]), 1e-2)
            up, down = p.copy(), p.copy()
            up[j] += step
            down[j] -= step
            numeric = (evaluate(up)[0] - evaluate(down)[0]) / (2 * step)
            assert numeric == pytest.approx(grad[j], rel=1e-4, abs=1e-4)

    @staticmethod
    def best_gain(h, monkeypatch):
        """The most log-likelihood L-BFGS-B gains from the fit of ``h``."""
        from scipy.optimize import minimize

        evaluate, p0, lo = fitted_comb_problem(h, monkeypatch)
        start = evaluate(p0)[0]
        # in units of about one sigma of each parameter
        scale = np.concatenate((np.sqrt(np.maximum(p0[:-4], 1.0)), [1e-3, 1e-3, 1e-3, 1e-3]))

        def loss(u):
            value, grad = evaluate(p0 + u * scale)
            return start - value, -grad * scale

        with np.errstate(under="ignore"):
            result = minimize(loss, np.zeros(p0.size), jac=True, method="L-BFGS-B",
                              bounds=list(zip((lo - p0) / scale, [None] * p0.size)),
                              options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 1000})
        return -result.fun

    def test_on_the_noisy_histograms_of_criterion_8(self, monkeypatch):
        for trial in range(0, 100, 5):
            h = self.criterion_8_histogram(trial)
            assert self.best_gain(h, monkeypatch) <= 0.01, f"trial {trial}"

    def test_on_histograms_cut_one_sigma0_below_the_pedestal(self, monkeypatch):
        # the first bin holds the areas below the range, so its cell law
        # decides where the maximum lies
        for seed, h in enumerate(histograms_cut_at(-1.0)):
            assert self.best_gain(h, monkeypatch) <= 0.01, f"seed {seed}"


def comb_mass(det, edges):
    """Bin masses of the comb teeth whose centers lie in the range of ``edges``."""
    return bin_mass(det, edges, _teeth_in_range(edges[-1], det.offset, det.gain))[:, :-1]


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
        fit = fit_comb(h.counts[None].astype(float), mass, h.detector)[0]
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
        fit = fit_comb(h.counts[None].astype(float), mass, h.detector)[0]
        assert fit.converged
        assert [p.photon_number for p in fit.peaks] == [0, 1, 2, 3]
        assert fit.peaks[2].area < 1.0 <= fit.peaks[3].area
        # the error is never below one event, even on an empty tooth
        assert all(p.area_std_error >= max(1.0, math.sqrt(p.area)) for p in fit.peaks)

    def test_standard_errors_match_poisson_counts(self):
        # well separated teeth: the Fisher error of a fully binned tooth is sqrt(lam)
        lam = np.array([40000.0, 9000.0, 2500.0])
        h, mass = noiseless_comb(np.pad(lam, (0, 10)))
        fit = fit_comb(h.counts[None].astype(float), mass, h.detector)[0]
        np.testing.assert_allclose([p.area_std_error for p in fit.peaks], np.sqrt(lam), rtol=1e-3)

    def test_no_iterations_is_not_converged(self, monkeypatch):
        import photonstats.fitting as fitting

        h, mass = noiseless_comb(np.full(13, 100.0))
        assert fit_comb(h.counts[None].astype(float), mass, h.detector)[0].converged
        monkeypatch.setattr(fitting, "MAX_ITER", 0)
        assert not fit_comb(h.counts[None].astype(float), mass, h.detector)[0].converged

    def test_empty_histogram_and_empty_comb_rejected(self):
        # fit_comb fits an empty row to no events; the analysis refuses it
        h, mass = noiseless_comb(np.zeros(13))
        with pytest.raises(ValueError, match="empty histogram"):
            analyze_histogram(h)
        h, mass = noiseless_comb(np.full(13, 10.0))
        with pytest.raises(ValueError, match="no tooth"):
            fit_comb(h.counts[None].astype(float), mass[:0], h.detector)[0]
        # a detector whose comb starts above the range: the same refusal
        above = replace(h, detector=replace(h.detector, offset=200.0, adc_max=300.0))
        with pytest.raises(ValueError, match="no tooth of the detector comb lies in"):
            analyze_histogram(above)

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
            fit = fit_comb(h.counts[None].astype(float), mass, h.detector)[0]
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

    @staticmethod
    def twin_teeth():
        """Thirteen teeth of counts, and a design that holds tooth 1 twice."""
        h, mass = noiseless_comb(np.full(13, 100.0))
        return h, mass[[1, 1]]

    def test_twin_teeth_fall_back_to_pinv(self, monkeypatch):
        # two teeth with one bin mass share every EM step, so their Fisher
        # rows are equal and the 2 x 2 matrix is exactly singular; only the
        # counts within tooth 1's reach are kept
        h, twin = self.twin_teeth()
        h = replace(h, counts=np.where(twin[0] > 0.0, h.counts, 0))
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a) or pinv(a))
        fit = fit_comb(h.counts[None].astype(float), twin, h.detector)[0]
        assert len(calls) == 1
        assert fit.converged
        self.assert_matches(fit, h, twin)

    def test_counts_beyond_every_tooth_refused(self):
        h, twin = self.twin_teeth()
        beyond = np.flatnonzero((h.counts > 0) & (twin[0] == 0.0))[0]
        with pytest.raises(ValueError, match=f"bin {beyond} holds counts that no tooth"):
            fit_comb(h.counts[None].astype(float), twin, h.detector)


class TestFitCombStack:
    """A stack of histograms on one comb fits row by row as each fits alone."""

    @pytest.fixture(scope="class")
    def stack(self):
        """The sweep benchmark's six powers (overflow at 16 uW) and a Fock
        histogram with an empty pedestal, all on the default pulse-area
        response and bins, and their comb's mass."""
        hists = [simulated(SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253 * power), DET,
                           200_000, seed)
                 for seed, power in enumerate((0.01, 0.03, 0.3, 1.0, 3.0, 16.0))]
        fock = DetectorModel(eta=1.0, dark_mean=0.0)
        hists.append(simulated(SourceSpec(kind="fock", cutoff=14, n=1), fock, 20_000, 3))
        assert hists[5].overflow > 0 and hists[6].counts[:10].sum() == 0
        return hists, comb_mass(DET, hists[0].bin_edges)

    @staticmethod
    def assert_rows_match_lone_fits(hists, mass):
        counts = np.array([h.counts for h in hists], dtype=np.float64)
        fits = fit_comb(counts, mass, DET)
        assert len(fits) == len(hists)
        for h, fit in zip(hists, fits):
            lone = fit_comb(h.counts[None].astype(float), mass, h.detector)[0]
            assert fit.converged == lone.converged
            assert [p.photon_number for p in fit.peaks] == [p.photon_number for p in lone.peaks]
            for got, want in zip(fit.peaks, lone.peaks):
                assert (got.center, got.width) == (want.center, want.width)
            np.testing.assert_allclose([p.area for p in fit.peaks],
                                       [p.area for p in lone.peaks], rtol=1e-12, atol=0)
            np.testing.assert_allclose([p.area_std_error for p in fit.peaks],
                                       [p.area_std_error for p in lone.peaks], rtol=1e-9, atol=0)
        return fits

    def test_rows_match_lone_fits(self, stack):
        fits = self.assert_rows_match_lone_fits(*stack)
        assert all(fit.converged for fit in fits)

    def test_each_row_stops_on_its_own(self, stack, monkeypatch):
        # these rows need 3 to 5 EM iterations each
        monkeypatch.setattr(fitting, "MAX_ITER", 3)
        flags = [fit.converged for fit in self.assert_rows_match_lone_fits(*stack)]
        assert any(flags) and not all(flags)

    def test_no_row_converges_without_iterations(self, stack, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 0)
        fits = self.assert_rows_match_lone_fits(*stack)
        assert not any(fit.converged for fit in fits)

    def test_only_the_singular_row_reaches_pinv(self, monkeypatch):
        # teeth 1 and 2 both have tooth 5's bin mass; the first row holds
        # only pedestal counts, where that mass is exactly zero, so its twin
        # teeth fit to zero and get unit diagonals; the second fills them,
        # and its Fisher information is exactly singular
        _, mass = noiseless_comb(np.zeros(13))
        twin = mass[[0, 5, 5]]
        hists = [noiseless_comb(lam, DET)[0] for lam in (np.eye(13)[0] * 1000.0,
                                                          np.eye(13)[0] * 1000.0
                                                          + np.eye(13)[5] * 200.0)]
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a) or pinv(a))
        fits = self.assert_rows_match_lone_fits(hists, twin)
        # the stack's second row, then the same row's lone fit; the first
        # row's twin teeth would be uncoupled
        assert len(calls) == 2
        for info in calls:
            assert info[1, 1] == info[1, 2] == info[2, 2] > 0.0
        assert [p.photon_number for p in fits[0].peaks] == [0]
        assert [p.photon_number for p in fits[1].peaks] == [0, 1, 2]

    def test_empty_row_rejected(self, stack):
        # the stack is fitted whole; the rows before the empty one yield
        # their fits, and the empty row raises in its turn
        hists = stack[0][2:6]
        counts = np.array([h.counts for h in hists])
        counts[2] = 0
        fits = _comb_fits(counts, DET, hists[0].bin_edges)
        for h in hists[:2]:
            assert _analysis(next(fits)).gamma_report == analyze_histogram(h).gamma_report
        with pytest.raises(ValueError, match="empty histogram"):
            next(fits)


def test_stack_of_no_rows_takes_no_iteration(monkeypatch):
    # the kernel divides once per EM iteration and the report once per row
    calls = []
    divide = np.divide
    monkeypatch.setattr(np, "divide", lambda *a, **k: calls.append(a) or divide(*a, **k))
    _, mass = noiseless_comb(np.zeros(13))
    y = np.zeros((0, mass.shape[1]))
    assert fit_comb(y, mass, DET) == []
    assert not calls
    lam, converged = _poisson_em(y, mass)
    assert lam.shape == (0, mass.shape[0]) and converged.shape == (0,)
    assert not calls


class TestPoissonEM:
    """The kernel on the source design: the expected bin counts of a source
    law p over N gates are N p @ (M^T B), with M the detector matrix and B
    the bin mass, so lam / sum(lam) estimates p."""

    @pytest.fixture(scope="class")
    def weak_pump(self):
        """Criterion 6's weak-pump histogram, the true p_n for n <= 10 and
        the source design over photon numbers 0-40, overflow column kept."""
        source = SourceSpec(kind="pdc_pairs", cutoff=40, mean=0.5)
        h = simulated(source, DET, 2_000_000, 61)
        design = detector_matrix(0.67, 4e-4, 40).entries.T @ bin_mass(DET, h.bin_edges, 41)
        return h, make_distribution(source).probs[:11], design

    @staticmethod
    def worst_error(y, design, truth):
        lam = _poisson_em(y[None], design)[0][0]
        return np.abs(lam[: truth.size] / lam.sum() - truth).max()

    def test_source_law_needs_the_overflow_column(self, weak_pump, monkeypatch):
        # at MAX_ITER 200 both designs stop at about 0.0128
        monkeypatch.setattr(fitting, "MAX_ITER", 2000)
        h, truth, design = weak_pump
        y = np.append(h.counts, h.overflow).astype(np.float64)
        # photon numbers above the range are identifiable only through the
        # overflow; without it they soak up mass
        assert self.worst_error(y, design, truth) < 0.005
        assert self.worst_error(y[:-1], design[:, :-1], truth) > 0.05


@pytest.mark.parametrize("detector, power, n_gates, seed", [
    (DetectorModel(), 3.0, 20_000, 20254),
    (DetectorModel(gain=6.0), 1.0, 20_000, 20462),
    (DetectorModel(gain=6.0), 1.0, 200_000, 20115),
], ids=["default-3uW-2e4", "gain6-1uW-2e4", "gain6-1uW-2e5"])
@pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 2")
def test_known_detector_fit_converges(detector, power, n_gates, seed):
    # about 1 histogram in 1000 ends with one tooth below one event still
    # sliding when MAX_ITER runs out; these are three such seeds
    source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=DEFAULT_PAIRS_PER_UW * power)
    frequencies = simulate_gate_counts(source, detector, n_gates, seed)
    fit = analyze_histogram(synthesize_histogram(frequencies, detector, 500, seed)).fit
    assert fit.converged


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

        monkeypatch.setattr(fitting, "_comb_ecm", solver)
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

        monkeypatch.setattr(fitting, "_comb_ecm", solver)
        h = self.even_peaks(3)
        # 400 empty bins either side: the range reaches 100 start gains
        wide = AreaHistogram(np.arange(-400.0, h.counts.size + 401.0),
                             np.pad(h.counts, (400, 400)), h.n_gates)
        with pytest.raises(SolverRan):
            _fit_unknown_comb(wide)


class TestUnknownCombRules:
    def test_padding_below_the_range_leaves_the_comb(self):
        # the areas below the range fall in the first bin, so empty bins
        # padded below it take over that bin's mass below its lower edge:
        # two paddings give the same comb, and padding leaves the comb of a
        # histogram whose first bin is empty, up to rounding
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253)
        empty_first_bin = 0
        for seed in range(5):
            hist = simulated(source, DET, 100_000, seed)
            plain, *padded = (_fit_unknown_comb(padded_below(hist, pad)) for pad in (0, 37, 400))
            assert plain[-1] and all(fitted[-1] for fitted in padded)
            np.testing.assert_allclose(padded[1][:4], padded[0][:4], rtol=0, atol=1e-12)
            if hist.counts[0] == 0:
                empty_first_bin += 1
                np.testing.assert_allclose(padded[0][:4], plain[:4], rtol=0, atol=1e-12)
        assert 0 < empty_first_bin < 5

    def test_areas_clipped_into_the_first_bin_leave_the_comb_unbiased(self):
        # 1 uW, 2e5 gates: each histogram keeps its bins from -1.0 (one sigma0
        # below the pedestal), with the counts of the 16 bins below added into
        # its first bin, as bin_mass and synthesize_histogram clip them
        combs = [_fit_unknown_comb(h)[:4] for h in histograms_cut_at(-1.0)]
        offset, gain, sigma0, _ = np.mean(combs, axis=0)
        assert abs(offset) < 0.01 and abs(sigma0 - 1.0) < 0.02 and abs(gain - 10.0) < 0.01

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 2")
    def test_histograms_cut_at_the_pedestal_centre_converge_unbiased(self):
        # the same histograms cut at 0.0: two of the 20 fits still slide at
        # MAX_ITER, under the step-size stopping rule
        fits = [_fit_unknown_comb(h) for h in histograms_cut_at(0.0)]
        assert all(fit[-1] for fit in fits)
        offset, gain = np.mean([fit[:2] for fit in fits], axis=0)
        assert abs(offset) < 0.01 and abs(gain - 10.0) < 0.01

    def test_not_converged_when_the_iterations_run_out(self, monkeypatch):
        hist = replace(simulated(SourceSpec(kind="poisson", cutoff=20, mean=0.5), DET, 100_000,
                                 800), detector=None)
        assert _fit_unknown_comb(hist)[-1]
        monkeypatch.setattr(fitting, "MAX_ITER", 2)
        assert not _fit_unknown_comb(hist)[-1]

    @pytest.mark.parametrize("filled", [(0,), (137,), (250,), (200, 260), (0, 370)],
                             ids=["one-count-0", "one-count-137", "one-count-250",
                                  "two-count-200-260", "two-count-0-370"])
    def test_too_few_counts_are_refused(self, filled):
        # counts in one or two bins: two teeth at the width floor, or a
        # pedestal below the range, would match them exactly, and spread
        # over the start comb they can leave no tooth holding one expected
        # event, where the CM-steps would divide 0 by 0
        counts = np.zeros(500, dtype=int)
        np.add.at(counts, list(filled), 1)
        csv = AreaHistogram(np.linspace(-5.0, 120.0, 501), counts, len(filled)).to_csv()
        with np.errstate(all="raise"), pytest.raises(ValueError, match="too few counts"):
            analyze_histogram(AreaHistogram.from_csv(csv))

    def test_count_the_comb_cannot_weigh_is_refused(self):
        # the count at area 12.875 sits where the comb, its sigma0 at the
        # floor after one step, expects a subnormal mass: y / mu overflows
        counts = np.zeros(500, dtype=int)
        counts[[71, 197, 348]] = 1
        csv = AreaHistogram(np.linspace(-5.0, 120.0, 501), counts, 3).to_csv()
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match="the bin at area 12.875 holds counts where the comb expects"):
            _fit_unknown_comb(AreaHistogram.from_csv(csv))

    @pytest.mark.xfail(raises=RuntimeWarning, strict=True, reason="ROADMAP item 2")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_three_counts_are_refused_without_overflow(self):
        # three counts in random bins: under the clipped cell law a tooth
        # whose mass falls in the first bin can drift far below the range
        # while its width grows, and at these seeds the CM-step overflows
        # before the fit ends in the refusal
        for seed in (723, 988, 1374, 1732, 1751, 1875, 1912):
            counts = np.zeros(500, dtype=int)
            np.add.at(counts, np.random.default_rng(seed).integers(0, 500, 3), 1)
            csv = AreaHistogram(np.linspace(-5.0, 120.0, 501), counts, 3).to_csv()
            with pytest.raises(ValueError, match="too few counts to fit a comb"):
                analyze_histogram(AreaHistogram.from_csv(csv))

    def test_all_zero_csv_is_refused(self):
        csv = AreaHistogram(np.linspace(-5.0, 120.0, 501), np.zeros(500, dtype=int), 0).to_csv()
        with pytest.raises(ValueError, match="empty histogram"):
            _fit_unknown_comb(AreaHistogram.from_csv(csv))


class TestAreasToProbabilities:
    @staticmethod
    def noiseless_fit(lam):
        h, mass = noiseless_comb(lam)
        (fit,) = fit_comb(h.counts[None].astype(float), mass, h.detector)
        return fit

    def test_single_pedestal_gives_p0_one(self):
        h = synthesize_histogram(np.array([60_000]), DET, 200, seed=26)
        (fit,) = _comb_fits(h.counts[None], DET, h.bin_edges)
        dist, event_counts = areas_to_probabilities(fit)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-9)
        assert dist.probs[1:].sum() == pytest.approx(0.0, abs=1e-9)
        assert event_counts[0] == pytest.approx(60_000, rel=0.01)

    def test_equal_areas_split_evenly(self):
        dist, _ = areas_to_probabilities(self.noiseless_fit(np.pad([1e9, 1e9], (0, 11))))
        assert dist.probs[0] == pytest.approx(0.5, abs=1e-6)
        assert dist.probs[1] == pytest.approx(0.5, abs=1e-6)

    def test_output_normalized_and_padded(self):
        dist, event_counts = areas_to_probabilities(self.noiseless_fit(np.pad([1000.0], (0, 12))))
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

    def test_zero_total_area_rejected(self):
        from photonstats.fitting import FittedPeak, PeakFitResult

        empty = PeakFitResult(peaks=(FittedPeak(0, 0.0, 1.0, 0.0, 1.0),), residual_norm=0.0,
                              converged=True)
        with pytest.raises(ValueError, match="total fitted area is zero"):
            areas_to_probabilities(empty)

    def test_json_dict_structure(self):
        d = json.loads(dumps_canonical(self.noiseless_fit(np.pad([1000.0], (0, 12)))))
        assert d["converged"] is True
        assert d["peaks"][0]["photon_number"] == 0
        assert set(d["peaks"][0]) == {
            "photon_number", "center", "width", "area", "area_std_error",
        }
