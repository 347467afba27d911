#!/usr/bin/env python3
"""End-to-end run at the anchored 1 uW operating point.

Simulates the gated acquisition, fits the pulse-area histogram, and prints
the two-photon fraction with its significance, the efficiency estimate, and
the parity balance. Two detector efficiencies are run: the independently
measured 0.67, and 0.617, the efficiency at which the full model of
Poissonian pairs with dark counts reproduces the reference one- and
two-count probabilities (0.0818, 0.0696). The weak-pump ratio estimator
(``eta_from_ratio``) gives 0.630 from the same two probabilities.
"""

import argparse
from pathlib import Path

from photonstats import DetectorModel, SourceSpec, simulate_gate_counts, synthesize_histogram
from photonstats.acquisition import default_pairs_per_uw
from photonstats.cli import analyze_histogram
from photonstats.ioutil import write_text_atomic

OPERATING_POINTS = {
    # eta -> mean pairs per gate that puts P1 at 0.0818 for that eta
    0.67: None,   # filled from the default calibration
    0.617: 0.2055,
}


def run_point(eta, mean_pairs, n_gates, seed, out_dir):
    det = DetectorModel(eta=eta, dark_mean=4e-4)
    source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=mean_pairs)
    frequencies = simulate_gate_counts(source, det, n_gates, seed)
    hist = synthesize_histogram(frequencies, det, 500, seed)
    result = analyze_histogram(hist)
    dist, rep, parity = result.distribution, result.gamma_report, result.parity_report

    tag = f"eta{eta:.3f}"
    write_text_atomic(out_dir / f"histogram_{tag}.csv", hist.to_csv())
    write_text_atomic(out_dir / f"probabilities_{tag}.csv", dist.to_csv())

    p = dist.probs
    print(f"\n-- eta = {eta}, mean pairs = {mean_pairs:.4f}, {n_gates:,} gates --")
    print(f"P1, P2, P3            = {p[1]:.4f}, {p[2]:.4f}, {p[3]:.4f}")
    print(f"gamma                 = {rep.gamma:.4f} +- {rep.std_error:.4f}")
    print(f"classical bound       = {rep.classical_bound:.4f}")
    print(f"sigmas above bound    = {rep.n_std_above_classical:.1f}  "
          f"(violated: {rep.violated})")
    print(f"eta from P2/P1 ratio  = {result.eta_estimate:.4f}")
    print(f"parity <(-1)^n>       = {parity.parity:.4f}  "
          f"(nonclassical by parity: {parity.nonclassical})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gates", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("out/paper_pipeline"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    points = dict(OPERATING_POINTS)
    points[0.67] = default_pairs_per_uw() * 1.0
    for eta, mean_pairs in points.items():
        run_point(eta, mean_pairs, args.gates, args.seed, args.out)
    print(f"\nwrote histograms and probability tables to {args.out}/")


if __name__ == "__main__":
    main()
