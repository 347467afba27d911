import json
import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

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
    _area_edges,
    _cell_laws,
    _detected_count_law,
    _mass_block,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
import photonstats.acquisition as acquisition
import photonstats.channel as channel
from photonstats.channel import detector_matrix
from photonstats.cli import pump_sweep
from photonstats.distributions import (
    _ERFC_TWO,
    _ERFC_ZERO,
    LOST_MASS_TOL,
    SourceSpec,
    TruncationLossError,
    _gaussian_cdf,
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


# One source of each kind, and thermal pairs out to 8 per gate, whose laws
# reach about 400 counts.
EXACT_SOURCES = {
    "poisson": SourceSpec(kind="poisson", cutoff=10, mean=1.3),
    "pairs": SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.4),
    "16-uW": SourceSpec(kind="pdc_pairs", cutoff=14, mean=16.0 * DEFAULT_PAIRS_PER_UW),
    "thermal-0.5": SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.5, pair_statistics="thermal"),
    "thermal-3": SourceSpec(kind="pdc_pairs", cutoff=14, mean=3.0, pair_statistics="thermal"),
    "thermal-8": SourceSpec(kind="pdc_pairs", cutoff=14, mean=8.0, pair_statistics="thermal"),
    "fock": SourceSpec(kind="fock", cutoff=40, n=40),
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


def exact_source_law(src: SourceSpec, floor: Decimal) -> list:
    """The photon-number law of ``src`` in decimal arithmetic, its terms
    written out one by one (e^-m m^k / k!, m^k / (1 + m)^(k + 1), a point
    mass, a weighted sum with the weights rescaled to sum to 1), up to the
    first term past the mean below ``floor``."""
    if src.kind == "fock":
        return [Decimal(0)] * src.n + [Decimal(1)]
    if src.kind == "mixture":
        parts = [exact_source_law(c, floor) for c in src.components]
        law = [Decimal(0)] * max(map(len, parts))
        total = sum(map(Decimal, src.weights))
        for w, part in zip(src.weights, parts):
            for n, x in enumerate(part):
                law[n] += Decimal(w) / total * x
        return law
    m, step = Decimal(src.mean), 2 if src.kind == "pdc_pairs" else 1
    law, k = [], 0
    while True:
        if src.pair_statistics == "thermal" and step == 2:
            x = m**k / (1 + m) ** (k + 1)
        else:
            x = (-m).exp() * m**k / math.factorial(k)
        law += [Decimal(0)] * (step * k - len(law)) + [x]
        if k > m and x < floor:
            return law
        k += 1


def exact_count_law(src: SourceSpec, det: DetectorModel, size: int) -> list:
    """The detected-count law on 0..size-1 in 50-digit decimal arithmetic: the
    source law thinned row by row through Pascal's rule, with the
    Poisson(dark_mean) law convolved in before or after the thinning."""
    with localcontext() as ctx:
        ctx.prec = 50
        floor, eta, nu = Decimal("1e-45"), Decimal(det.eta), Decimal(det.dark_mean)
        dark = [(-nu).exp()]
        while len(dark) <= nu or dark[-1] >= floor:
            dark.append(dark[-1] * nu / len(dark))

        def add_dark(law):
            return [sum(law[k - j] * dark[j] for j in range(len(dark)) if 0 <= k - j < len(law))
                    for k in range(len(law) + len(dark) - 1)]

        def thin(law):
            out, row = [Decimal(0)] * size, [Decimal(1)]  # row: Binomial(n, eta) on 0..size-1
            for x in law:
                for i, b in enumerate(row):
                    out[i] += x * b
                row = [(1 - eta) * b + eta * a for a, b in zip([Decimal(0)] + row, row + [0])]
                del row[size:]
            return out

        law = exact_source_law(src, floor)
        return add_dark(thin(law)) if det.dark_after_loss else thin(add_dark(law))


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


class TestMakeDistributionOracle:
    @pytest.mark.parametrize("cutoff", [None, 256], ids=["own-cutoff", "cutoff-256"])
    @pytest.mark.parametrize("name", sorted(EXACT_SOURCES))
    def test_law_or_lost_mass_matches_exact_oracle(self, name, cutoff):
        # make_distribution takes the sampler's recursion at no loss and no
        # dark counts: its law is the exact one cut at the cutoff and
        # renormalised, or, when more than LOST_MASS_TOL lies past the cutoff,
        # its error carries that mass. Entries below 1e-300, where doubles
        # near underflow, are compared absolutely. The bounds were fixed
        # before the first run.
        src = EXACT_SOURCES[name] if cutoff is None else recut(EXACT_SOURCES[name], cutoff)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = exact_source_law(src, Decimal("1e-320"))
            head = (exact + [Decimal(0)] * src.cutoff)[: src.cutoff + 1]
            lost = 1 - sum(head)
            want = np.array([float(x / sum(head)) for x in head])
        if lost > LOST_MASS_TOL:
            with pytest.raises(TruncationLossError) as info:
                make_distribution(src)
            assert info.value.lost_mass == pytest.approx(float(lost), rel=0, abs=1e-14)
        else:
            np.testing.assert_allclose(make_distribution(src).probs, want, rtol=1e-13, atol=1e-300)


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

    @staticmethod
    def assert_law_matches_exact_oracle(src, det):
        # The oracle is the law written out term by term in 50-digit decimal
        # arithmetic; the law must be its cut at the same count, to the
        # relative error a double recursion of about 400 terms leaves. The
        # bound was fixed before the first run.
        law = _detected_count_law(src, det)
        exact = exact_count_law(src, det, law.size + 1)
        tail = [1 - sum(exact[:k]) for k in (law.size - 1, law.size)]
        assert tail[1] < Decimal(_TAIL_MASS) <= tail[0]
        head = exact[: law.size]
        want = np.array([float(x / sum(head)) for x in head])
        np.testing.assert_allclose(law, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("dark_after_loss", [True, False])
    @pytest.mark.parametrize("name", sorted(EXACT_SOURCES))
    def test_law_matches_exact_oracle(self, name, dark_after_loss):
        det = DetectorModel(eta=0.6, dark_mean=0.05, dark_after_loss=dark_after_loss)
        self.assert_law_matches_exact_oracle(EXACT_SOURCES[name], det)

    @pytest.mark.parametrize(
        "det",
        [DetectorModel(eta=1.0, dark_mean=0.0), DetectorModel(eta=0.9, dark_mean=3.0, dark_after_loss=False)],
        ids=["perfect", "dark-3-before-loss"],
    )
    @pytest.mark.parametrize("name", sorted(EXACT_SOURCES))
    def test_law_at_edge_detectors_matches_exact_oracle(self, name, det):
        # at unit efficiency a pair law's odd counts are all 0, and a dark
        # mean of 3 before the loss spreads every source law over the dark one
        self.assert_law_matches_exact_oracle(EXACT_SOURCES[name], det)

    def test_law_wider_than_largest_window_rejected(self):
        src = SourceSpec(kind="fock", cutoff=2000, n=2000)
        with pytest.raises(ValueError, match="does not fit"):
            simulate_gate_counts(src, DET, 1000, seed=0)

    @pytest.mark.parametrize("dark_mean", [160.0, 300.0])
    def test_dark_counts_alone_can_pass_the_first_window(self, dark_mean):
        # laws of 272 and 449 counts, made almost wholly of dark counts
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        law = _detected_count_law(src, DetectorModel(eta=0.67, dark_mean=dark_mean))
        assert np.arange(law.size) @ law == pytest.approx(2 * 0.67 * 0.2 + dark_mean, rel=2e-14)

    @pytest.mark.parametrize("dark_mean", [360.0, 450.0])
    def test_dark_counts_cut_below_the_length_limit_give_the_law(self, dark_mean):
        # the cut is 522 at dark mean 360 and 630 at 450: inside the limit of
        # 1025 counts, but more than half of it
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        law = _detected_count_law(src, DetectorModel(eta=0.67, dark_mean=dark_mean))
        assert np.arange(law.size) @ law == pytest.approx(2 * 0.67 * 0.2 + dark_mean, rel=2e-14)

    @pytest.mark.parametrize("dark_mean", [800.0, 900.0, 1e300])
    def test_dark_counts_wider_than_largest_window_rejected(self, dark_mean):
        # at dark mean 800 the cut is 1036, past the limit of 1025 counts;
        # 1e300 is refused by its mean, before any term is computed
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        with pytest.raises(ValueError, match="does not fit in 1024 photons"):
            _detected_count_law(src, DetectorModel(eta=0.67, dark_mean=dark_mean))

    def test_thermal_pairs_at_20_per_gate_are_simulated(self):
        # a law of 954 counts; the tail cut off below 1e-15, at about 1000
        # counts, moves the mean by under 1e-13 of itself
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=20.0, pair_statistics="thermal")
        law = _detected_count_law(src, DET)
        assert law.size == 954
        assert np.arange(law.size) @ law == pytest.approx(2 * 0.67 * 20.0 + 4e-4, rel=1e-13)
        assert simulate_gate_counts(src, DET, 10**6, seed=12).sum() == 10**6

    def test_sampler_builds_no_loss_matrix(self, monkeypatch):
        # the laws come from the recursion, so neither a wide law (dark mean
        # 300) nor a six-power sweep builds a photon-number loss matrix
        channel._loss_matrix.cache_clear()
        built = []

        def counting(eta, n):
            built.append(n)
            return channel._loss_matrix.__wrapped__(eta, n)

        monkeypatch.setattr(channel, "_loss_matrix", counting)
        src = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2)
        simulate_gate_counts(src, DetectorModel(eta=0.67, dark_mean=300.0), 1000, seed=0)
        pump_sweep(PumpModel(powers=(0.01, 0.03, 0.3, 1.0, 3.0, 16.0)), DET, 2_000_000, 0,
                   cutoff=10, bins=500)
        assert built == []

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
        # the law uncut, on photon numbers 0..128, which hold every one of them
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
