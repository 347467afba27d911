#!/usr/bin/env python3
"""Reconstruct pre-detector photon-number distributions at rising pump power.

For each pump power the truth is simulated on a wide photon-number window,
measured through the lossy detector, fitted, and then inverted on the
standard 10-photon window. Even-odd oscillations emerge at every power; at
the strongest pump the truth extends past the window and the truncated
inversion picks up small negative entries at high odd photon numbers.
"""

import argparse
from pathlib import Path

from photonstats import DetectorModel, SourceSpec, simulate_gate_counts, synthesize_histogram
from photonstats.acquisition import default_pairs_per_uw
from photonstats.cli import analyze_histogram, reconstruct
from photonstats.ioutil import dumps_canonical, write_text_atomic

RECON_CUTOFF = 10
TRUTH_CUTOFF = 40


def reconstruct_power(power_uw, kappa, det, n_gates, seed, out_dir):
    mean_pairs = kappa * power_uw
    source = SourceSpec(kind="pdc_pairs", cutoff=TRUTH_CUTOFF, mean=mean_pairs)
    frequencies = simulate_gate_counts(source, det, n_gates, seed)
    hist = synthesize_histogram(frequencies, det, 500, seed)
    probs = analyze_histogram(hist).distribution.probs
    measured, rec, diag = reconstruct(probs, det, RECON_CUTOFF)

    tag = f"{power_uw:g}uW"
    write_text_atomic(out_dir / f"measured_{tag}.csv", measured.to_csv())
    write_text_atomic(out_dir / f"reconstructed_{tag}.csv", rec.to_csv())
    write_text_atomic(out_dir / f"negativity_{tag}.json", dumps_canonical(diag))

    even = rec.probs[2:RECON_CUTOFF + 1:2]
    odd = rec.probs[1:RECON_CUTOFF + 1:2]
    print(f"\n-- {power_uw} uW (mean pairs {mean_pairs:.3f}) --")
    print("reconstructed:", "  ".join(f"{v:+.4f}" for v in rec.probs))
    print(f"even mass (n>=2) {even.sum():.4f}   odd mass {odd.sum():+.5f}")
    print(f"most negative entry {diag.most_negative:+.5f} at n={diag.index}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gates", type=int, default=2_000_000, help="gates per power")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--powers", type=float, nargs="+", default=[4.0, 6.0, 8.0])
    ap.add_argument("--out", type=Path, default=Path("out/reconstruction"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    det = DetectorModel(eta=0.67, dark_mean=4e-4)
    kappa = default_pairs_per_uw()
    for power in args.powers:
        reconstruct_power(power, kappa, det, args.gates, args.seed, args.out)
    print(f"\nwrote measured/reconstructed tables to {args.out}/")


if __name__ == "__main__":
    main()
