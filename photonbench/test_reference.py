"""Tests of the benchmark's reference physics (reference.py).

    python3 -m pytest photonbench/test_reference.py
    python3 photonbench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True

import reference as ref  # noqa: E402


def test_detector_matrix_columns_sum_to_one_without_dark_counts():
    m = ref.detector_matrix(0.67, 0.0, 20)
    assert np.allclose(m.sum(axis=0), 1.0, atol=1e-13)
    assert np.allclose(np.triu(m), m)
    assert np.allclose(np.diag(m), 0.67 ** np.arange(20))


def test_detector_matrix_columns_lose_only_dark_mass_past_the_window():
    size, dark = 12, 0.3
    m = ref.detector_matrix(0.5, dark, size)
    for j in range(size):
        # a column loses the dark-count tail pushed above the window
        lost = sum(ref.poisson_pmf(dark, 4 * size)[size - i:].sum() * m_i
                   for i, m_i in enumerate(ref.detector_matrix(0.5, 0.0, size)[:, j]))
        assert math.isclose(m[:, j].sum(), 1.0 - lost, abs_tol=1e-13)


def test_detected_pmf_is_a_distribution_with_the_thinned_mean():
    for kind, mean, stat in (("poisson", 2.5, "poissonian"), ("pdc_pairs", 1.2, "poissonian"),
                             ("pdc_pairs", 0.8, "thermal")):
        f = ref.detected_pmf(kind, mean, 0.67, 4e-4, stat)
        photons = mean if kind == "poisson" else 2 * mean
        assert math.isclose(f.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(np.arange(f.size) @ f, 0.67 * photons + 4e-4, rel_tol=1e-10)


def test_pair_source_puts_no_mass_on_odd_photon_numbers():
    for stat in ("poissonian", "thermal"):
        p = ref.source_pmf("pdc_pairs", 0.4, 21, stat)
        assert np.all(p[1::2] == 0.0)
        assert math.isclose(p[2], 0.4 / 1.4**2 if stat == "thermal" else 0.4 * math.exp(-0.4))


def test_weak_pump_gamma_tends_to_eta_over_two_minus_eta():
    for eta in (0.3, 0.67, 0.9):
        g = ref.gamma(ref.detected_pmf("pdc_pairs", 1e-6, eta, 0.0))
        assert math.isclose(g, ref.gamma_weak_pump(eta), rel_tol=1e-5)


def test_poisson_gamma_never_exceeds_the_classical_bound():
    means = np.linspace(0.01, 10.0, 1000)
    best = max(ref.gamma(ref.poisson_pmf(m, 8)) for m in means)
    assert best <= ref.CLASSICAL_GAMMA_BOUND + 1e-12
    assert math.isclose(ref.gamma(ref.poisson_pmf(math.sqrt(6.0), 8)), ref.CLASSICAL_GAMMA_BOUND)


def test_calibration_hits_the_one_count_target():
    mu = ref.calibrate_pairs_per_uw(0.0818, 0.67, 4e-4)
    assert math.isclose(ref.detected_pmf("pdc_pairs", mu, 0.67, 4e-4)[1], 0.0818, rel_tol=1e-12)


def test_sampler_matches_the_forward_model():
    rng = np.random.default_rng(3)
    n = 400_000
    for kind, mean, stat in (("poisson", 1.5, "poissonian"), ("pdc_pairs", 0.6, "thermal")):
        counts = ref.sample_gates(rng, kind, mean, 0.67, 0.01, n, stat)
        f = ref.detected_pmf(kind, mean, 0.67, 0.01, stat)
        observed = np.bincount(counts, minlength=f.size)[: f.size]
        keep = f * n >= 20
        chi2 = np.sum((observed[keep] - n * f[keep]) ** 2 / (n * f[keep]))
        dof = int(keep.sum()) - 1
        # five standard deviations of a chi-square with dof degrees of freedom
        assert chi2 < dof + 5 * math.sqrt(2 * dof)


def test_digitized_areas_keep_every_gate_and_sit_on_the_comb():
    rng = np.random.default_rng(5)
    counts = np.repeat(np.arange(14), 1000)
    edges, hist, overflow = ref.digitize_areas(rng, counts, gain=10.0, offset=0.0, sigma0=1.0,
                                               sigma_per_photon=0.3, adc_max=120.0, bins=500)
    assert hist.sum() + overflow == counts.size
    assert 1000 < overflow < 2000  # all of peak 13 and about half of peak 12
    centers = 0.5 * (edges[:-1] + edges[1:])
    for k in range(12):
        window = np.abs(centers - 10.0 * k) < 5.0
        assert abs(hist[window].sum() - 1000) < 10


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
