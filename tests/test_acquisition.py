import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import per_gate_counts, per_gate_histogram
from photonstats.acquisition import (
    DEFAULT_PAIRS_PER_UW,
    AreaHistogram,
    DetectorModel,
    PumpModel,
    _TAIL_MASS,
    _WINDOWS,
    _area_edges,
    _cell_laws,
    _detected_count_law,
    _mass_block,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
import photonstats.acquisition as acquisition
from photonstats.channel import detector_matrix
from photonstats.cli import pump_sweep
from photonstats.distributions import (
    _ERFC_TWO,
    _ERFC_ZERO,
    SourceSpec,
    TruncationLossError,
    _gaussian_cdf,
    _source_pmf,
    make_distribution,
)
from photonstats.ioutil import dumps_canonical
from photonstats.nonclassical import classical_gamma_bound, gamma_under_loss

DET = DetectorModel(eta=0.67, dark_mean=4e-4)


def test_stream_tags_are_distinct():
    # each draw seeds its own stream from (seed, tag, ...), so two draws
    # that shared a tag would share their random numbers
    tags = {name: value for name, value in vars(acquisition).items() if name.endswith("_STREAM")}
    assert {"_COUNT_STREAM", "_AREA_STREAM", "_SWEEP_STREAM"} <= tags.keys()
    assert len(set(tags.values())) == len(tags)


class TestDetectorModel:
    def test_defaults_resolvable_to_cutoff_40(self):
        DET.check_resolvable(40)

    def test_unresolvable_rejected(self):
        det = DetectorModel(gain=3.0, sigma0=1.0, sigma_per_photon=0.5)
        with pytest.raises(ValueError, match="unresolvable"):
            det.check_resolvable(10)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DetectorModel(eta=1.5)
        with pytest.raises(ValueError):
            DetectorModel(gain=0.0)
        with pytest.raises(ValueError):
            DetectorModel(sigma0=0.0)
        with pytest.raises(ValueError):
            DetectorModel(adc_max=-1.0, offset=0.0)

    def test_peak_width_law(self):
        det = DetectorModel(sigma0=1.0, sigma_per_photon=0.3)
        assert det.peak_width(0) == 1.0
        assert det.peak_width(4) == pytest.approx(math.sqrt(1.0 + 4 * 0.09))

    def test_json_roundtrip(self):
        assert DetectorModel(**json.loads(dumps_canonical(DET))) == DET


def _chi2_homogeneity(a, b, min_cell=10):
    """Two-sample chi-square of equal-size count vectors a and b; cells whose
    combined count is below ``min_cell`` are pooled into one. Returns the
    statistic and its degrees of freedom."""
    n = max(a.size, b.size)
    a, b = np.pad(a, (0, n - a.size)), np.pad(b, (0, n - b.size))
    small = a + b < min_cell
    a = np.append(a[~small], a[small].sum())
    b = np.append(b[~small], b[small].sum())
    keep = a + b > 0
    a, b = a[keep], b[keep]
    return float(np.sum((a - b) ** 2 / (a + b))), a.size - 1


# Chosen before the tests were first run: a sampler passes a chi-square check
# when its p-value is above this.
CHI2_MIN_P = 1e-4

ORACLE_SOURCES = {
    "poisson": SourceSpec(kind="poisson", cutoff=10, mean=1.3),
    "pairs": SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.4),
    "thermal_pairs": SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.4, pair_statistics="thermal"),
    "fock": SourceSpec(kind="fock", cutoff=5, n=3),
    "mixture": SourceSpec(
        kind="mixture",
        cutoff=10,
        weights=(0.3, 0.7),
        components=(
            SourceSpec(kind="fock", cutoff=10, n=4),
            SourceSpec(kind="poisson", cutoff=10, mean=0.8),
        ),
    ),
}


# Sources whose laws need windows from 64 up to 1024 photons.
WINDOW_SOURCES = {
    "poisson": SourceSpec(kind="poisson", cutoff=10, mean=60.0),
    "pairs": SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.4),
    "wide_pairs": SourceSpec(kind="pdc_pairs", cutoff=10, mean=90.0),
    "thermal_pairs": SourceSpec(kind="pdc_pairs", cutoff=14, mean=8.0, pair_statistics="thermal"),
    "fock": SourceSpec(kind="fock", cutoff=200, n=200),
    "mixture": SourceSpec(
        kind="mixture",
        cutoff=10,
        weights=(0.3, 0.7),
        components=(
            SourceSpec(kind="fock", cutoff=10, n=4),
            SourceSpec(kind="pdc_pairs", cutoff=10, mean=3.0, pair_statistics="thermal"),
        ),
    ),
}


def recut(spec: SourceSpec, cutoff: int) -> SourceSpec:
    """``spec`` with its cutoff, and its components' cutoffs, set to ``cutoff``."""
    components = tuple(recut(c, cutoff) for c in spec.components or ()) or None
    return replace(spec, cutoff=cutoff, components=components)


def composed_law(src: SourceSpec, det: DetectorModel, window: int) -> np.ndarray:
    """The detector matrix applied to the source law on photon numbers
    0..window, normalised: the detected-count law uncut."""
    m = detector_matrix(det.eta, det.dark_mean, window, dark_after_loss=det.dark_after_loss)
    f = m.entries @ make_distribution(recut(src, window)).probs
    return f / f.sum()


def first(freq: np.ndarray, n: int) -> np.ndarray:
    """Entries 0..n-1 of ``freq``, zero past its end."""
    return np.pad(freq, (0, max(n - freq.size, 0)))[:n]


class TestSimulateGateCounts:
    def test_dead_detector_sees_nothing(self):
        src = SourceSpec(kind="poisson", cutoff=10, mean=1.0)
        det = DetectorModel(eta=0.0, dark_mean=0.0)
        freq = simulate_gate_counts(src, det, 10_000, seed=1)
        assert freq[0] == 10_000 and np.all(freq[1:] == 0)

    def test_fock1_thinning_fraction(self):
        src = SourceSpec(kind="fock", cutoff=5, n=1)
        det = DetectorModel(eta=0.5, dark_mean=0.0)
        n = 1_000_000
        freq = simulate_gate_counts(src, det, n, seed=2)
        frac = freq[1] / n
        sigma = math.sqrt(0.25 / n)
        assert abs(frac - 0.5) < 3 * sigma

    def test_empirical_matches_analytic_channel(self):
        # the analytic forward channel is the oracle for the sampler
        src = SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.1)
        n = 2_000_000
        emp = first(simulate_gate_counts(src, DET, n, seed=3), 21) / n
        f = detector_matrix(DET.eta, DET.dark_mean, 20).entries @ make_distribution(src).probs
        tv = 0.5 * np.abs(emp - f).sum()
        assert tv < 1e-3

    @pytest.mark.parametrize("stats", ["poissonian", "thermal"])
    def test_pair_statistics_both_supported(self, stats):
        src = SourceSpec(kind="pdc_pairs", cutoff=30, mean=0.3, pair_statistics=stats)
        n = 500_000
        emp = first(simulate_gate_counts(src, DET, n, seed=4), 31) / n
        f = detector_matrix(DET.eta, DET.dark_mean, 30).entries @ make_distribution(src).probs
        assert 0.5 * np.abs(emp - f).sum() < 3.0 / math.sqrt(n)

    def test_mixture_source_sampled(self):
        spec = SourceSpec(
            kind="mixture",
            cutoff=10,
            weights=(0.3, 0.7),
            components=(
                SourceSpec(kind="fock", cutoff=10, n=2),
                SourceSpec(kind="fock", cutoff=10, n=0),
            ),
        )
        det = DetectorModel(eta=1.0, dark_mean=0.0)
        freq = simulate_gate_counts(spec, det, 200_000, seed=5)
        assert freq[2] / 200_000 == pytest.approx(0.3, abs=0.01)

    @pytest.mark.parametrize("n_gates", [0, 2**63])
    def test_n_gates_outside_one_draw_rejected(self, n_gates):
        src = SourceSpec(kind="poisson", cutoff=10, mean=1.0)
        with pytest.raises(ValueError, match="n_gates"):
            simulate_gate_counts(src, DET, n_gates, seed=1)

    def test_negative_seed_rejected(self):
        src = SourceSpec(kind="poisson", cutoff=10, mean=1.0)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            simulate_gate_counts(src, DET, 100, seed=-1)

    def test_seed_reproducible(self):
        src = SourceSpec(kind="poisson", cutoff=10, mean=0.5)
        a = simulate_gate_counts(src, DET, 150_000, seed=7)
        b = simulate_gate_counts(src, DET, 150_000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_frequencies_follow_count_law_over_many_seeds(self):
        # Pooled goodness of fit: the chi-square of each seed's frequencies
        # against the analytic law f, summed over 200 seeds. The bound is
        # two-sided, so a sampler that returned n * f itself would fail too.
        src = SourceSpec(kind="pdc_pairs", cutoff=30, mean=0.3)
        f = detector_matrix(DET.eta, DET.dark_mean, 30).entries @ make_distribution(src).probs
        n, cells = 10_000, 5  # counts 0..3, and 4 or more pooled
        expected = n * np.append(f[: cells - 1], 1.0 - f[: cells - 1].sum())
        total = 0.0
        for seed in range(200):
            freq = simulate_gate_counts(src, DET, n, seed=seed)
            observed = np.append(freq[: cells - 1], n - freq[: cells - 1].sum())
            total += float(np.sum((observed - expected) ** 2 / expected))
        dof = 200 * (cells - 1)
        assert CHI2_MIN_P < chi2.sf(total, dof) < 1.0 - CHI2_MIN_P

    @pytest.mark.parametrize("dark_after_loss", [True, False])
    @pytest.mark.parametrize("name", sorted(ORACLE_SOURCES))
    def test_matches_per_gate_reference(self, name, dark_after_loss):
        # dark counts strong enough that their order against the loss shows
        det = DetectorModel(eta=0.6, dark_mean=0.05, dark_after_loss=dark_after_loss)
        src, n = ORACLE_SOURCES[name], 200_000
        freq = simulate_gate_counts(src, det, n, seed=9)
        reference = np.bincount(per_gate_counts(src, det, n, np.random.default_rng(9)))
        stat, dof = _chi2_homogeneity(freq, reference)
        assert chi2.sf(stat, dof) > CHI2_MIN_P

    def test_law_not_truncated_at_source_cutoff(self):
        # 16 uW at the default calibration: the source law does not fit in its
        # own cutoff of 10, which only the reconstruction uses
        src = SourceSpec(kind="pdc_pairs", cutoff=10, mean=3.6)
        with pytest.raises(TruncationLossError):
            make_distribution(src)
        n = 500_000
        freq = simulate_gate_counts(src, DET, n, seed=10)
        wide = replace(src, cutoff=80)
        f = detector_matrix(DET.eta, DET.dark_mean, 80).entries @ make_distribution(wide).probs
        assert freq.sum() == n
        assert 0.5 * np.abs(first(freq, 81) / n - f).sum() < 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("dark_after_loss", [True, False])
    @pytest.mark.parametrize("mean", [0.5, 3.0, 8.0])
    def test_law_matches_composed_detector_matrix(self, mean, dark_after_loss):
        # thermal pairs at 3 and 8 per gate need windows of 512 and 1024 photons
        det = DetectorModel(eta=0.6, dark_mean=0.05, dark_after_loss=dark_after_loss)
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=mean, pair_statistics="thermal")
        law = _detected_count_law(src, det)
        # the first window whose source law exists and whose upper half holds
        # less than _TAIL_MASS; the law is cut after the last count whose
        # upper tail holds at least _TAIL_MASS, and renormalised
        for window in _WINDOWS:
            try:
                f = composed_law(src, det, window)
            except ValueError:
                continue
            if f[window // 2 :].sum() < _TAIL_MASS:
                break
        head = f[: np.count_nonzero(np.cumsum(f[::-1])[::-1] >= _TAIL_MASS)]
        np.testing.assert_allclose(law, head / head.sum(), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("window", _WINDOWS)
    @pytest.mark.parametrize("name", sorted(WINDOW_SOURCES))
    def test_window_law_is_the_spec_recut_at_the_window(self, name, window):
        # the sampler takes the source law at each window it tries without
        # building a SourceSpec and a PhotonDistribution for it; the law, or
        # the error, is the one the spec re-cut at that window gives
        src = WINDOW_SOURCES[name]
        try:
            want = make_distribution(recut(src, window)).probs
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _source_pmf(src, window)
        else:
            assert np.array_equal(_source_pmf(src, window), want)

    def test_law_wider_than_largest_window_rejected(self):
        src = SourceSpec(kind="fock", cutoff=2000, n=2000)
        with pytest.raises(ValueError, match="does not fit"):
            simulate_gate_counts(src, DET, 1000, seed=0)

    @pytest.mark.parametrize("dark_mean", [160.0, 300.0])
    def test_dark_counts_alone_can_pass_the_first_window(self, dark_mean):
        # from a dark mean of about 160 no count of the 64-photon window keeps
        # an upper tail of _TAIL_MASS, so its cut is 0 and a wider window
        # gives the law
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        law = _detected_count_law(src, DetectorModel(eta=0.67, dark_mean=dark_mean))
        assert np.arange(law.size) @ law == pytest.approx(2 * 0.67 * 0.2 + dark_mean, rel=2e-14)

    @pytest.mark.xfail(raises=ValueError, strict=True, reason="ROADMAP item 8")
    @pytest.mark.parametrize("dark_mean", [360.0, 450.0])
    def test_dark_counts_cut_past_half_the_largest_window_give_the_law(self, dark_mean):
        # the cut on the 1024-photon window is 522 at dark mean 360 and 630
        # at 450: the law fits in that window, but the cut lies in its upper
        # half, so it is refused as if it did not
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        law = _detected_count_law(src, DetectorModel(eta=0.67, dark_mean=dark_mean))
        assert np.arange(law.size) @ law == pytest.approx(2 * 0.67 * 0.2 + dark_mean, rel=2e-14)

    @pytest.mark.parametrize("dark_mean", [800.0, 900.0, 1e300])
    def test_dark_counts_wider_than_largest_window_rejected(self, dark_mean):
        # at dark mean 800 the cut on the 1024-photon window is 1025, its top,
        # so the law does not fit in it
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        with pytest.raises(ValueError, match="does not fit in 1024 photons"):
            _detected_count_law(src, DetectorModel(eta=0.67, dark_mean=dark_mean))

    def test_cost_does_not_grow_with_gates(self):
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253)
        freq = simulate_gate_counts(src, DET, 10**12, seed=11)
        h = synthesize_histogram(freq, DET, 500, seed=11)
        assert freq.sum() == 10**12
        assert int(h.counts.sum()) + h.overflow == 10**12

    def test_dark_counts_rate(self):
        src = SourceSpec(kind="fock", cutoff=5, n=0)
        det = DetectorModel(eta=0.67, dark_mean=0.01)
        n = 1_000_000
        freq = simulate_gate_counts(src, det, n, seed=8)
        mean = float(np.arange(freq.size) @ freq) / n
        assert mean == pytest.approx(0.01, abs=4 * math.sqrt(0.01 / 1e6))


class TestSynthesizeHistogram:
    def test_all_zero_counts_single_pedestal(self):
        h = synthesize_histogram(np.array([50_000]), DET, 200, seed=1)
        centers = h.bin_centers
        peak_bin = centers[np.argmax(h.counts)]
        assert abs(peak_bin - DET.offset) < 3 * DET.sigma0
        # nothing beyond the pedestal region
        assert h.counts[centers > DET.offset + 5 * DET.sigma0].sum() == 0

    def test_counts_plus_overflow_conserved(self):
        frequencies = np.full(14, 7_000)
        h = synthesize_histogram(frequencies, DET, 300, seed=2)
        assert int(h.counts.sum()) + h.overflow == frequencies.sum()
        assert h.overflow > 0  # k = 12, 13 sit at and beyond adc_max

    def test_two_equal_peaks(self):
        h = synthesize_histogram(np.array([30_000, 30_000]), DET, 400, seed=3)
        centers = h.bin_centers
        zero_region = np.abs(centers - DET.offset) < 4
        one_region = np.abs(centers - DET.offset - DET.gain) < 4
        n0 = h.counts[zero_region].sum()
        n1 = h.counts[one_region].sum()
        assert n0 == pytest.approx(30_000, abs=4 * math.sqrt(30_000))
        assert n1 == pytest.approx(30_000, abs=4 * math.sqrt(30_000))

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            synthesize_histogram(np.zeros(10, dtype=int), DET, 5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            synthesize_histogram(np.full(4, 100), DET, 100, seed=-1)

    def test_seed_reproducible(self):
        frequencies = np.full(4, 1250)
        a = synthesize_histogram(frequencies, DET, 100, seed=9)
        b = synthesize_histogram(frequencies, DET, 100, seed=9)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.overflow == b.overflow

    def test_gaussian_cdf_matches_scipy_ndtr(self):
        from scipy.special import ndtr

        z = np.linspace(-38.0, 38.0, 200_001)
        ours, ref = _gaussian_cdf(z), ndtr(z)
        assert np.abs(ours - ref).max() <= 1e-15
        body = ref >= 1e-100
        assert np.all(np.abs(ours[body] - ref[body]) <= 1e-12 * ref[body])

    @pytest.mark.parametrize("frequencies", [
        # every count up to beyond adc_max, with the overflow as one more cell
        [40_000, 30_000, 20_000, 10_000, 5_000, 3_000, 2_000, 1_000, 800, 600, 400, 300, 200, 100],
        # empty counts between the others: the gates with k counts still
        # split over row k of bin_mass
        [0, 30_000, 0, 0, 10_000, 0, 0, 0, 0, 0, 0, 0, 2_000],
    ], ids=["every-count", "gaps"])
    def test_matches_per_gate_reference(self, frequencies):
        frequencies = np.array(frequencies)
        h = synthesize_histogram(frequencies, DET, 250, seed=12)
        counts = np.repeat(np.arange(frequencies.size), frequencies)
        ref, ref_over = per_gate_histogram(counts, DET, h.bin_edges, np.random.default_rng(12))
        stat, dof = _chi2_homogeneity(np.append(h.counts, h.overflow), np.append(ref, ref_over))
        assert h.overflow > 0 and ref_over > 0
        assert chi2.sf(stat, dof) > CHI2_MIN_P


def oracle_bin_mass(det, edges, n):
    """bin_mass entry by entry: the Gaussian CDF 0.5 erfc(-z / sqrt 2) at each
    edge, zero at the first edge (mass below the range is clipped into the
    first bin), and one above the last (the overflow column)."""
    rows = []
    for k in range(n):
        center = det.offset + k * det.gain
        width = math.sqrt(det.sigma0**2 + k * det.sigma_per_photon**2)
        cdf = [0.5 * math.erfc(-((e - center) / width) / math.sqrt(2.0)) for e in edges]
        cdf[0] = 0.0
        cdf.append(1.0)
        rows.append([b - a for a, b in zip(cdf, cdf[1:])])
    return np.array(rows).reshape(n, len(edges))


def _sidecarless_edges():
    h = synthesize_histogram(np.full(5, 200), DET, 333, seed=2)
    return AreaHistogram.from_csv(h.to_csv()).bin_edges


def _sidecar_edges():
    edges = np.cumsum(np.linspace(0.05, 0.6, 301)) - 6.0
    counts = np.zeros(edges.size - 1, dtype=int)
    side = {"bin_edges": edges.tolist(), "n_gates": 0}
    return AreaHistogram.from_csv(AreaHistogram(edges, counts, 0).to_csv(), side).bin_edges


class TestBinMass:
    EDGES = np.linspace(-5.0, 120.0, 501)

    @pytest.mark.parametrize("det, edges, n", [
        (DET, EDGES, 13),
        (replace(DET, sigma_per_photon=1.5), EDGES, 13),
        (replace(DET, offset=-30.0, adc_max=90.0), np.linspace(-35.0, 90.0, 401), 13),
        (DET, _sidecarless_edges(), 13),
        (DET, _sidecar_edges(), 20),
        (DET, EDGES, 31),
    ], ids=["default", "wide-teeth", "negative-offset", "sidecar-less-csv",
            "non-uniform-sidecar", "above-adc-max"])
    def test_matches_per_entry_oracle(self, det, edges, n):
        expected = oracle_bin_mass(det, edges.tolist(), n)
        _mass_block.cache_clear()  # so that the block is computed under errstate
        with np.errstate(all="raise"):
            rows = bin_mass(det, edges, n)
        assert np.array_equal(rows, expected)

    def test_erfc_saturates_at_the_kernel_thresholds(self):
        below = np.linspace(-40.0, _ERFC_TWO, 400_001)
        above = np.linspace(_ERFC_ZERO, 40.0, 400_001)
        assert all(math.erfc(x) == 2.0 for x in below.tolist())
        assert all(math.erfc(x) == 0.0 for x in above.tolist())

    def test_no_teeth_give_no_rows(self):
        assert bin_mass(DET, self.EDGES, 0).shape == (0, self.EDGES.size)

    def test_sweep_asks_for_two_blocks_and_gets_the_kept_ones(self):
        # the benchmark's pump-sweep powers: one block for the composed area
        # laws, one for the comb fit, and none more for another seed
        pump = PumpModel(powers=(0.01, 0.03, 0.3, 1.0, 3.0, 16.0))
        det = DetectorModel()
        _mass_block.cache_clear()
        pump_sweep(pump, det, 2_000_000, seed=0, cutoff=14, bins=500)
        assert _mass_block.cache_info().misses == 2
        pump_sweep(pump, det, 2_000_000, seed=1, cutoff=14, bins=500)
        assert _mass_block.cache_info().misses == 2
        rows = bin_mass(det, _area_edges(det, 500), 13)
        assert bin_mass(det, _area_edges(det, 500), 13) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0

    @pytest.mark.parametrize("field, value", [("gain", 10.5), ("offset", 0.25), ("sigma0", 1.1),
                                              ("sigma_per_photon", 0.31)])
    def test_each_response_field_gives_new_rows(self, field, value):
        base = bin_mass(DET, self.EDGES, 13)
        det = replace(DET, **{field: value})
        changed = bin_mass(det, self.EDGES, 13)
        assert not np.array_equal(changed, base)
        assert np.array_equal(changed, oracle_bin_mass(det, self.EDGES.tolist(), 13))

    @pytest.mark.parametrize("edge", [1, 250, -1], ids=["second", "middle", "last"])
    def test_one_edge_gives_new_rows(self, edge):
        base = bin_mass(DET, self.EDGES, 13)
        edges = self.EDGES.copy()
        edges[edge] -= 0.1
        changed = bin_mass(DET, edges, 13)
        assert not np.array_equal(changed, base)
        assert np.array_equal(changed, oracle_bin_mass(DET, edges.tolist(), 13))

    def test_histograms_differing_only_in_eta_share_rows(self):
        hists = [synthesize_histogram(np.full(13, 100), replace(DET, eta=eta), 500, seed=3)
                 for eta in (0.67, 0.9)]
        bin_mass(hists[0].detector, hists[0].bin_edges, 13)
        before = _mass_block.cache_info()
        rows = bin_mass(hists[1].detector, hists[1].bin_edges, 13)
        after = _mass_block.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert rows is bin_mass(hists[0].detector, hists[0].bin_edges, 13)

    def test_rows_kept_are_bounded(self):
        edges = np.linspace(0.0, 50.0, 51)
        for gain in np.linspace(10.0, 11.0, 16):
            bin_mass(replace(DET, gain=gain), edges, 13)
        assert _mass_block.cache_info().currsize == 8

    def test_kept_block_is_read_only(self):
        bin_mass(DET, self.EDGES, 13)
        block = _mass_block(DET.gain, DET.offset, DET.sigma0, DET.sigma_per_photon,
                            self.EDGES.tobytes(), 13)
        assert block.shape == (13, self.EDGES.size) and not block.flags.writeable

    @pytest.mark.parametrize("n", [-1, 2.5, True], ids=["negative", "fractional", "boolean"])
    def test_non_count_n_refused(self, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            bin_mass(DET, self.EDGES, n)


# Laws whose tail cut keeps at most 64 rows, under their detectors; dark
# counts strong enough that their order against the loss shows.
DARK = DetectorModel(eta=0.6, dark_mean=0.05)
CELL_SOURCES = {
    "poisson": (SourceSpec(kind="poisson", cutoff=10, mean=1.0), DET),
    "pairs": (SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253), DET),
    "thermal-dark-after-loss": (
        SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.5, pair_statistics="thermal"), DARK),
    "thermal-dark-before-loss": (
        SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.5, pair_statistics="thermal"),
        replace(DARK, dark_after_loss=False)),
    "fock": (SourceSpec(kind="fock", cutoff=10, n=4), DET),
    "mixture": (SourceSpec(kind="mixture", cutoff=10, weights=(0.3, 0.7), components=(
        SourceSpec(kind="poisson", cutoff=10, mean=0.4),
        SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.2, pair_statistics="thermal"))), DET),
    "16-uW": (SourceSpec(kind="pdc_pairs", cutoff=14, mean=16.0 * DEFAULT_PAIRS_PER_UW), DET),
}


class TestCellLaws:
    @pytest.mark.parametrize("name", list(CELL_SOURCES))
    def test_cut_law_composed_with_the_bin_masses(self, name, monkeypatch):
        src, det = CELL_SOURCES[name]
        law = _detected_count_law(src, det)
        if name == "16-uW":
            assert law.size == 44
        edges = _area_edges(det, 500)
        # the law uncut, on the 128-photon window that holds every one of them
        full = composed_law(src, det, 128)
        uncut = full @ bin_mass(det, edges, full.size)
        asked = []

        def spy(det, edges, n):
            asked.append(n)
            return bin_mass(det, edges, n)

        monkeypatch.setattr("photonstats.acquisition.bin_mass", spy)
        (cells,) = _cell_laws([law], det, edges)
        assert cells.shape == (edges.size,)
        assert abs(cells.sum() - 1.0) <= 1e-12 and cells.max() <= 1.0
        assert np.abs(cells - uncut).max() <= _TAIL_MASS
        # one block of rows 0..kept-1, cut where the upper tail falls below _TAIL_MASS
        (kept,) = asked
        assert kept == law.size <= 64
        assert full[kept:].sum() < _TAIL_MASS <= full[kept - 1:].sum()

    def test_rows_are_the_laws_composed_one_by_one(self):
        laws = [_detected_count_law(src, det) for src, det in
                (CELL_SOURCES["pairs"], CELL_SOURCES["16-uW"], CELL_SOURCES["fock"])]
        edges = _area_edges(DET, 500)
        rows = _cell_laws(laws, DET, edges)
        assert rows.shape == (3, edges.size)
        for row, law in zip(rows, laws):
            np.testing.assert_allclose(row, _cell_laws([law], DET, edges)[0], rtol=0, atol=1e-16)

    def test_all_overflow_law_stays_drawable(self):
        # about 68 pairs (90 detected counts) per gate, every area above
        # adc_max: the overflow cell rounds to 1 + 1 ulp before the clip,
        # which numpy's multinomial refuses
        det = replace(DET, adc_max=25.0)
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=300 * 0.2253)
        (cells,) = _cell_laws([_detected_count_law(src, det)], det, _area_edges(det, 100))
        assert cells.max() <= 1.0 and cells[-1] == 1.0
        counts = np.random.default_rng(0).multinomial(10_000, cells)
        assert counts[-1] == 10_000

    def test_no_laws_give_no_rows(self):
        edges = _area_edges(DET, 500)
        assert _cell_laws([], DET, edges).shape == (0, edges.size)


class TestAreaHistogramType:
    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            AreaHistogram(np.array([0.0, 1.0, 1.0]), np.array([1, 2]), n_gates=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_edges_must_be_finite(self, bad):
        for edges in ([0.0, 1.0, bad], [bad, 1.0, 2.0], [0.0, bad, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                AreaHistogram(np.array(edges), np.array([1, 2]), n_gates=3)

    def test_overflow_must_be_nonnegative(self):
        # a negative overflow would let the binned counts exceed the gates
        with pytest.raises(ValueError, match="overflow must be nonnegative"):
            AreaHistogram(np.array([0.0, 1.0, 2.0]), np.array([3, 3]), n_gates=5, overflow=-1)

    def test_sidecar_edges_must_bisect_the_centers(self):
        h = synthesize_histogram(np.full(7, 15), DET, 50, seed=4)
        side = h.sidecar_dict()
        width = h.bin_width
        for edges in (2.0 * h.bin_edges, h.bin_edges + 1e-4 * width):
            with pytest.raises(ValueError, match="midpoints"):
                AreaHistogram.from_csv(h.to_csv(), dict(side, bin_edges=edges.tolist()))
        # a shift within UNIFORM_BIN_RTOL of a bin width is rounding, not a mismatch
        shifted = dict(side, bin_edges=(h.bin_edges + 1e-7 * width).tolist())
        np.testing.assert_array_equal(AreaHistogram.from_csv(h.to_csv(), shifted).counts,
                                      h.counts)

    def test_counts_bounded_by_gates(self):
        with pytest.raises(ValueError, match="exceed"):
            AreaHistogram(np.array([0.0, 1.0, 2.0]), np.array([3, 3]), n_gates=5)

    def test_counts_must_fill_the_bins(self):
        with pytest.raises(ValueError, match="counts length must be number of bins"):
            AreaHistogram(np.array([0.0, 1.0, 2.0]), np.array([1, 2, 0]), n_gates=3)

    def test_counts_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="bin counts must be nonnegative"):
            AreaHistogram(np.array([0.0, 1.0, 2.0]), np.array([2, -1]), n_gates=3)

    def test_csv_roundtrip_with_sidecar(self):
        h = synthesize_histogram(np.full(7, 15), DET, 50, seed=4)
        restored = AreaHistogram.from_csv(h.to_csv(), h.sidecar_dict())
        np.testing.assert_array_equal(restored.counts, h.counts)
        np.testing.assert_array_equal(restored.bin_edges, h.bin_edges)
        assert restored.n_gates == h.n_gates
        assert restored.overflow == h.overflow

    def test_csv_without_sidecar_uses_uniform_bins(self):
        h = synthesize_histogram(np.full(3, 67), DET, 64, seed=5)
        restored = AreaHistogram.from_csv(h.to_csv())
        np.testing.assert_array_equal(restored.counts, h.counts)
        np.testing.assert_allclose(restored.bin_centers, h.bin_centers, rtol=1e-12)
        assert restored.n_gates == int(h.counts.sum())

    def test_missing_sidecar_loads_the_csv_alone(self, tmp_path):
        h = synthesize_histogram(np.full(3, 67), DET, 64, seed=5)
        csv = tmp_path / "histogram.csv"
        csv.write_text(h.to_csv())
        loaded = AreaHistogram.load(csv, tmp_path / "histogram.json")
        alone = AreaHistogram.from_csv(h.to_csv())
        np.testing.assert_array_equal(loaded.bin_edges, alone.bin_edges)
        np.testing.assert_array_equal(loaded.counts, alone.counts)
        assert (loaded.n_gates, loaded.overflow, loaded.detector) == (alone.n_gates, 0, None)

    def test_csv_without_sidecar_rejects_non_uniform_bins(self):
        text = "bin_center,count\n0,5\n1,3\n3,2\n7,1\n"
        with pytest.raises(ValueError, match="evenly spaced"):
            AreaHistogram.from_csv(text)
        # the same centers load when a sidecar gives the edges they bisect
        edges = [-0.5, 0.5, 1.5, 4.5, 9.5]
        h = AreaHistogram.from_csv(text, {"bin_edges": edges, "n_gates": 11})
        np.testing.assert_array_equal(h.bin_edges, edges)

    def test_csv_values_match_per_row_parsing(self):
        # reference: Python's float() and int() on each field of each row
        rng = np.random.default_rng(44)
        for seed in range(200):
            src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=float(rng.uniform(0.05, 1.5)))
            det = DetectorModel(eta=float(rng.uniform(0.3, 1.0)), dark_mean=4e-4,
                                offset=float(rng.uniform(-20.0, 20.0)))
            freq = simulate_gate_counts(src, det, int(rng.integers(10, 10**6)), seed)
            h = synthesize_histogram(freq, det, int(rng.integers(10, 800)), seed)
            text = h.to_csv()
            rows = [line.split(",") for line in text.splitlines()[1:]]
            centers = np.array([float(c) for c, _ in rows])
            counts = np.array([int(n) for _, n in rows])
            # without a sidecar the edges are built from the parsed centers
            width = centers[1] - centers[0]
            edges = np.append(centers - width / 2.0, centers[-1] + width / 2.0)
            restored = AreaHistogram.from_csv(text)
            np.testing.assert_array_equal(restored.bin_edges, edges)
            np.testing.assert_array_equal(restored.counts, counts)
            np.testing.assert_array_equal(AreaHistogram.from_csv(text, h.sidecar_dict()).counts,
                                          counts)

    @pytest.mark.parametrize("text", [
        "bin_center,count\n",
        "bin_center,count\n0.5,3\n1.5,2.5\n",
        "bin_center,count\n0.5,3\n1.5,2,7\n",
        "bin_center,count\n0.5,3\n1.5\n",
        "bin_center,count\n0.5,3\n# 1.5,2\n",
        "center,count\n0.5,3\n1.5,2\n",
    ], ids=["header-only", "non-integer-count", "three-columns", "one-column", "comment-row",
            "wrong-header"])
    def test_malformed_csv_rejected_without_warning(self, text):
        sidecar = {"bin_edges": [0.0, 1.0, 2.0], "n_gates": 10}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in (None, sidecar):
                with pytest.raises(ValueError):
                    AreaHistogram.from_csv(text, side)

    def test_one_row_csv_and_trailing_blank_lines(self):
        h = AreaHistogram.from_csv("bin_center,count\n0.5,3\n", {"bin_edges": [0.0, 1.0],
                                                                   "n_gates": 4})
        np.testing.assert_array_equal(h.counts, [3])
        assert h.n_gates == 4
        with pytest.raises(ValueError, match="fewer than two bins"):
            AreaHistogram.from_csv("bin_center,count\n0.5,3\n")
        text = "bin_center,count\n0.5,3\n1.5,4\n"
        padded = AreaHistogram.from_csv(text + "\n\n  \n")
        plain = AreaHistogram.from_csv(text)
        np.testing.assert_array_equal(padded.counts, plain.counts)
        np.testing.assert_array_equal(padded.bin_edges, plain.bin_edges)

    def test_sidecar_echoes_detector(self):
        h = synthesize_histogram(np.array([30]), DET, 40, seed=6)
        assert h.detector == DET
        side = h.sidecar_dict()
        assert side["detector"]["eta"] == DET.eta
        # the echo travels back with the histogram
        side = json.loads(json.dumps(side))
        assert AreaHistogram.from_csv(h.to_csv(), side).detector == DET
        side.pop("detector")
        assert AreaHistogram.from_csv(h.to_csv(), side).detector is None


class TestPumpModel:
    def test_default_calibration_hits_target_p1(self):
        src = SourceSpec(kind="pdc_pairs", cutoff=40, mean=DEFAULT_PAIRS_PER_UW * 1.0)
        f = detector_matrix(0.67, 4e-4, 40).entries @ make_distribution(src).probs
        assert f[1] == pytest.approx(0.0818, abs=1e-6)

    def test_default_calibration_is_the_brentq_root(self):
        from scipy.optimize import brentq

        m = detector_matrix(0.67, 4e-4, 40).entries

        def p1_minus_target(mu):
            src = SourceSpec(kind="pdc_pairs", cutoff=40, mean=mu)
            return float((m @ make_distribution(src).probs)[1]) - 0.0818

        root = brentq(p1_minus_target, 1e-6, 2.0, xtol=1e-13)
        assert abs(DEFAULT_PAIRS_PER_UW - root) < 1e-12

    def test_empty_powers_rejected(self):
        with pytest.raises(ValueError, match="powers"):
            PumpModel(powers=())

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="powers"):
            PumpModel(powers=(1.0, -2.0))

    def test_missing_pairs_per_uw_is_calibrated(self):
        # omitted, or null in a config
        assert PumpModel(powers=(1.0,)).pairs_per_uW == 0.22529867576686452
        assert PumpModel(powers=(1.0,), pairs_per_uW=None).pairs_per_uW == 0.22529867576686452

    def test_json_roundtrip(self):
        pm = PumpModel(powers=(0.5, 1.0), pairs_per_uW=0.2, pair_statistics="thermal")
        assert PumpModel(**json.loads(dumps_canonical(pm))) == pm


class TestPumpSweep:
    def test_weak_pump_plateau_at_loss_limit(self):
        # no dark counts: gamma sits at eta/(2-eta) across weak powers
        det = DetectorModel(eta=0.67, dark_mean=0.0)
        pump = PumpModel(powers=(0.05, 0.1), pairs_per_uW=0.2)
        rows = pump_sweep(pump, det, 400_000, seed=11, cutoff=10, bins=500)
        expected = gamma_under_loss(0.67)
        for _, rep in rows:
            assert abs(rep.gamma - expected) < 4 * rep.std_error

    @pytest.mark.parametrize("n_gates", [0, 2**63])
    def test_n_gates_outside_one_draw_rejected(self, n_gates):
        pump = PumpModel(powers=(1.0,), pairs_per_uW=0.2)
        with pytest.raises(ValueError, match="n_gates"):
            pump_sweep(pump, DET, n_gates, seed=0, cutoff=10, bins=500)

    def test_negative_seed_rejected(self):
        pump = PumpModel(powers=(1.0,), pairs_per_uW=0.2)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            pump_sweep(pump, DET, 1000, seed=-1, cutoff=10, bins=500)

    def test_dark_counts_pull_gamma_down_at_low_power(self):
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        pump = PumpModel(powers=(0.002, 0.2), pairs_per_uW=0.2)
        rows = pump_sweep(pump, det, 400_000, seed=12, cutoff=10, bins=500)
        low, plateau = rows[0][1], rows[1][1]
        assert low.gamma < plateau.gamma - 5 * (low.std_error + plateau.std_error)

    def test_strong_pump_drops_gamma(self):
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        pump = PumpModel(powers=(0.2, 20.0), pairs_per_uW=0.2)
        rows = pump_sweep(pump, det, 400_000, seed=13, cutoff=10, bins=500)
        plateau, strong = rows[0][1], rows[1][1]
        assert strong.gamma < plateau.gamma - 5 * (strong.std_error + plateau.std_error)
        assert plateau.violated and plateau.gamma > classical_gamma_bound()
