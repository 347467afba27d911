#!/usr/bin/env python3
"""Two-photon fraction versus pump power.

Sweeps four decades of pump power through the full simulate-fit-analyze
pipeline. The curve rises out of the dark-count-dominated regime, plateaus
near eta/(2-eta), and falls again as multi-pair emission feeds the
three-count probability. Output CSV is plot-ready (power_uW, gamma,
std_error, n_std).
"""

import argparse
from pathlib import Path

import numpy as np

from photonstats import DetectorModel, PumpModel, classical_gamma_bound
from photonstats.cli import pump_sweep, sweep_csv
from photonstats.ioutil import write_text_atomic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gates", type=int, default=1_000_000, help="gates per power")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--eta", type=float, default=0.67)
    ap.add_argument("--dark", type=float, default=4e-4)
    ap.add_argument("--out", type=Path, default=Path("out/pump_sweep"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    powers = tuple(float(p) for p in np.geomspace(0.002, 16.0, 12))
    det = DetectorModel(eta=args.eta, dark_mean=args.dark)
    pump = PumpModel(powers=powers)
    rows = pump_sweep(pump, det, args.gates, args.seed)

    bound = classical_gamma_bound()
    print(f"{'power_uW':>10}  {'gamma':>7}  {'+-':>6}  above bound ({bound:.4f})?")
    for power, rep in rows:
        marker = "yes" if rep.violated else "no"
        print(f"{power:10.4f}  {rep.gamma:7.4f}  {rep.std_error:6.4f}  {marker}")
    write_text_atomic(args.out / "sweep.csv", sweep_csv(rows))
    print(f"\nwrote {args.out / 'sweep.csv'}")


if __name__ == "__main__":
    main()
