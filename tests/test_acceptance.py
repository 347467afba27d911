"""Acceptance suite: one test per criterion, run with `pytest -s` for the
per-criterion pass lines. Tolerances are fixed here, not calibrated later."""

import json
import math

import numpy as np
import pytest

from conftest import poisson_mixture_oracle, random_physical_distribution
from photonstats.acquisition import (
    AreaHistogram,
    DetectorModel,
    PumpModel,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
from photonstats.channel import (
    detector_matrix,
    invert_channel,
    truncation_diagnostics,
)
from photonstats.cli import analyze_histogram, main, pump_sweep, reconstruct
from photonstats.distributions import PhotonDistribution, SourceSpec, make_distribution
from photonstats.fitting import _fit_unknown_comb, fit_comb
from photonstats.nonclassical import (
    eta_from_ratio,
    gamma,
    gamma_significance,
    gamma_under_loss,
)

SQRT6 = math.sqrt(6.0)
BOUND = 3.0 / (3.0 + 2.0 * SQRT6)


def run_fit_pipeline(source, det, n_gates, seed, bins=500):
    frequencies = simulate_gate_counts(source, det, n_gates, seed)
    analysis = analyze_histogram(synthesize_histogram(frequencies, det, bins, seed))
    assert analysis.fit.converged
    return frequencies, analysis


def test_criterion_1_gamma_arithmetic():
    p1, p2, p3 = 0.0818, 0.0696, 0.0061
    d = PhotonDistribution([1.0 - (p1 + p2 + p3), p1, p2, p3])
    value = gamma(d)
    assert value == pytest.approx(0.442, abs=5e-4)
    print(f"\nACCEPTANCE 1: PASS - gamma(reference P1..P3) = {value:.6f} = 0.442 +- 5e-4")


def test_criterion_2_classical_bound_scan_and_mixtures():
    grid = np.arange(0.0, 20.0 + 1e-12, 1e-4)
    # single-Poisson scan: first three pmf terms determine the ratio
    w0 = np.exp(-grid)
    t1, t2, t3 = w0 * grid, w0 * grid**2 / 2.0, w0 * grid**3 / 6.0
    denom = t1 + t2 + t3
    g = np.divide(t2, denom, out=np.zeros_like(denom), where=denom > 0)
    scan_max = float(g.max())
    argmax_mean = float(grid[np.argmax(g)])
    assert scan_max == pytest.approx(0.37979, abs=1e-4)
    assert argmax_mean == pytest.approx(SQRT6, abs=1e-2)
    # the implementation agrees with the scan at its maximum
    d = make_distribution(SourceSpec(kind="poisson", cutoff=40, mean=argmax_mean))
    assert gamma(d) == pytest.approx(scan_max, abs=1e-6)
    # random mixtures never exceed the bound
    best = poisson_mixture_oracle(grid[:: 10], weights_trials=10_000, rng_seed=12345)
    assert best <= BOUND + 1e-9
    print(
        f"\nACCEPTANCE 2: PASS - scan max {scan_max:.6f} at mean {argmax_mean:.4f}; "
        f"1e4 mixtures max {best:.9f} <= bound + 1e-9"
    )


def test_criterion_3_loss_threshold():
    eta_thr = 3.0 / (3.0 + SQRT6)
    assert abs(gamma_under_loss(eta_thr) - BOUND) < 1e-12

    results = {}
    for eta, seed in ((0.50, 31), (0.85, 32)):
        det = DetectorModel(eta=eta, dark_mean=0.0)
        source = SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.01)
        _, analysis = run_fit_pipeline(source, det, 10_000_000, seed)
        results[eta] = analysis.gamma_report
    below, above = results[0.50], results[0.85]
    assert below.n_std_above_classical <= -5.0 and not below.violated
    assert above.n_std_above_classical >= 5.0 and above.violated
    print(
        f"\nACCEPTANCE 3: PASS - threshold exact at eta={eta_thr:.4f}; pipeline "
        f"eta=0.50: {below.n_std_above_classical:.1f} sigma below bound, "
        f"eta=0.85: {above.n_std_above_classical:.1f} sigma above"
    )


def test_criterion_4_efficiency_estimator_consistency():
    recovered = {}
    for eta, seed in ((0.3, 41), (0.67, 42), (0.85, 43)):
        det = DetectorModel(eta=eta, dark_mean=0.0)
        source = SourceSpec(kind="pdc_pairs", cutoff=10, mean=1e-3)
        n_gates = 30_000_000 if eta == 0.3 else 10_000_000
        _, analysis = run_fit_pipeline(source, det, n_gates, seed)
        est = analysis.eta_estimate
        assert est == pytest.approx(eta, abs=1e-2), f"eta={eta} estimated {est}"
        recovered[eta] = est
    # the reference probabilities give 0.630 through the estimator, not the
    # 0.67 the detector was independently calibrated at
    assert eta_from_ratio(0.0818, 0.0696) == pytest.approx(0.630, abs=1e-3)
    line = ", ".join(f"{k} -> {v:.4f}" for k, v in recovered.items())
    print(f"\nACCEPTANCE 4: PASS - estimator recovers eta within 1e-2 ({line})")


def test_criterion_5_round_trip_inversion():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for eta in (0.3, 0.67, 0.85):
        for nu in (0.0, 4e-4):
            m = detector_matrix(eta, nu, 10)
            for _ in range(100):
                p = PhotonDistribution(random_physical_distribution(rng, 10))
                rec = invert_channel(m, PhotonDistribution(m.entries @ p.probs))
                worst = max(worst, float(np.abs(rec - p.probs).max()))
    assert worst < 1e-9
    print(f"\nACCEPTANCE 5: PASS - 600 round trips, worst entrywise error {worst:.2e} < 1e-9")


def _reconstruct_at_cutoff_10(mean_pairs, n_gates, seed):
    det = DetectorModel(eta=0.67, dark_mean=4e-4)
    source = SourceSpec(kind="pdc_pairs", cutoff=40, mean=mean_pairs)
    _, analysis = run_fit_pipeline(source, det, n_gates, seed)
    return reconstruct(analysis.distribution.probs, det, 10)[0]


def test_criterion_6_even_odd_reconstruction():
    rec = _reconstruct_at_cutoff_10(mean_pairs=0.5, n_gates=2_000_000, seed=61)
    odd = rec[1::2]
    assert np.abs(odd).max() < 0.01
    assert rec[2] > 0.05 and rec[4] > 0.05

    strong = _reconstruct_at_cutoff_10(mean_pairs=1.5, n_gates=2_000_000, seed=62)
    diag = truncation_diagnostics(strong)
    assert diag.most_negative < -0.01
    assert diag.index in (7, 9)
    print(
        f"\nACCEPTANCE 6: PASS - oscillations: max|odd| {np.abs(odd).max():.4f} < 0.01, "
        f"P2={rec[2]:.3f}, P4={rec[4]:.3f}; strong pump most negative "
        f"{diag.most_negative:.4f} at n={diag.index}"
    )


def test_criterion_7_pump_sweep_interior_maximum():
    det = DetectorModel(eta=0.67, dark_mean=4e-4)
    pump = PumpModel(powers=(0.003, 0.03, 0.3, 3.0, 16.0), pairs_per_uW=0.2253)
    rows = pump_sweep(pump, det, 1_000_000, seed=71, cutoff=10, bins=500)
    gammas = np.array([rep.gamma for _, rep in rows])
    errs = np.array([rep.std_error for _, rep in rows])
    peak = int(np.argmax(gammas))
    assert 0 < peak < len(gammas) - 1, "maximum must be interior"
    assert gammas[0] < gammas[peak] - 5 * (errs[0] + errs[peak])
    assert gammas[-1] < gammas[peak] - 5 * (errs[-1] + errs[peak])
    trend = ", ".join(f"{p}uW:{g:.3f}" for (p, _), g in zip(rows, gammas))
    print(f"\nACCEPTANCE 7: PASS - interior max at index {peak} ({trend})")


def test_criterion_8_fit_fidelity():
    # noiseless: parameters recovered to 1e-6 relative by the two fits the
    # pipeline runs, the comb fitted to the counts of an unknown detector
    # and the tooth areas fitted on a known comb
    edges = np.linspace(-5.0, 60.0, 401)
    bin_width = edges[1] - edges[0]
    # heights large enough that integer-count quantization sits below the
    # 1e-6 recovery tolerance being checked; widths on the comb,
    # sqrt(sigma0^2 + k sigma_per_photon^2) with sigma0 1 and sigma_per_photon^2 0.44
    det = DetectorModel(offset=0.0, gain=10.0, sigma0=1.0, sigma_per_photon=math.sqrt(0.44),
                        adc_max=60.0)
    truth = [(4e7, 0.0, 1.0), (2e7, 10.0, 1.2), (5e6, 20.0, math.sqrt(1.0 + 2 * 0.44))]
    # the expected counts of every tooth in range, rounded
    lam = np.array([height * width * math.sqrt(2 * math.pi) / bin_width
                    for height, _, width in truth])
    mass = bin_mass(det, edges, 7)[:, :-1]
    counts = np.rint(np.pad(lam, (0, 4)) @ mass)
    offset, gain, sigma0, per_photon, converged = _fit_unknown_comb(
        AreaHistogram(edges, counts, n_gates=int(counts.sum()) + 1))
    assert converged
    fitted = DetectorModel(offset=offset, gain=gain, sigma0=sigma0, sigma_per_photon=per_photon,
                           adc_max=60.0)
    for k, (_, center, width) in enumerate(truth):
        assert fitted.peak_center(k) == pytest.approx(center, abs=1e-6 * max(1.0, abs(center)))
        assert fitted.peak_width(k) == pytest.approx(width, rel=1e-6)
    assert per_photon == pytest.approx(det.sigma_per_photon, rel=1e-6)

    (fit,) = fit_comb(counts[None], mass, det)
    assert fit.converged
    assert [peak.photon_number for peak in fit.peaks] == [0, 1, 2]
    for peak, area in zip(fit.peaks, lam):
        assert peak.area == pytest.approx(area, rel=1e-6)

    # noisy: fitted probabilities track empirical per-gate frequencies
    det = DetectorModel(eta=0.67, dark_mean=4e-4)
    n_gates = 100_000
    total, within = 0, 0
    for trial in range(100):
        if trial % 2 == 0:
            source = SourceSpec(kind="poisson", cutoff=20, mean=0.5 + 0.02 * trial)
        else:
            source = SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.1 + 0.01 * trial)
        frequencies, analysis = run_fit_pipeline(source, det, n_gates, seed=800 + trial)
        dist, fit = analysis.distribution, analysis.fit
        emp = frequencies / n_gates
        total_area = sum(p.area for p in fit.peaks)
        for peak in fit.peaks:
            k = peak.photon_number
            sigma = peak.area_std_error / total_area
            total += 1
            if abs(dist.probs[k] - emp[k]) <= 3 * sigma:
                within += 1
    fraction = within / total
    assert fraction >= 0.95

    # absolute significance depends on the total event count, which varies by
    # configuration; the sqrt(N) scaling is the invariant being checked
    base = gamma_significance((500, 400, 50))
    scaled = gamma_significance((500 * 16, 400 * 16, 50 * 16))
    assert scaled.n_std_above_classical == pytest.approx(
        4.0 * base.n_std_above_classical, rel=1e-9
    )
    print(
        f"\nACCEPTANCE 8: PASS - noiseless params to 1e-6; {within}/{total} "
        f"({100 * fraction:.1f}%) peak probabilities within 3 sigma; "
        f"significance scales as sqrt(N)"
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "source": {"kind": "pdc_pairs", "cutoff": 14, "mean": 0.2055},
        "detector": {"eta": 0.617, "dark_mean": 4e-4},
        "pump": {"powers": [0.1, 1.0], "pairs_per_uW": 0.2253},
        "n_gates": 100_000,
        "cutoff": 14,
        "seed": 91,
        "output_dir": str(tmp_path / "out"),
        "bins": 400,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"

    def run_all():
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out)]) == 0
        recon_cfg = dict(cfg, cutoff=10,
                         source={"kind": "pdc_pairs", "cutoff": 10, "mean": 0.2055})
        recon_path = tmp_path / "recon.json"
        recon_path.write_text(json.dumps(recon_cfg))
        assert main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(recon_path)]) == 0
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_all()
    second = run_all()
    assert first == second
    names = ", ".join(sorted(first))
    print(f"\nACCEPTANCE 9: PASS - byte-identical re-runs of all commands ({names})")
