"""The committed example configs reproduce the paper's headline numbers.

Each example runs through ``cli.main`` as the README shows it. Every gamma
it reports must lie within 5 sigma of the forward model, where sigma is the
standard error sqrt(gamma (1 - gamma) / S) that the model's P1 + P2 + P3 and
the config's gate count imply (S = n_gates (P1 + P2 + P3)).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from photonstats.acquisition import _detected_count_law
from photonstats.cli import EXIT_OK, RunConfig, main
from photonstats.distributions import SourceSpec
from photonstats.nonclassical import classical_gamma_bound

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
Z_MAX = 5.0


def forward_gamma(source, det, n_gates):
    """Gamma of the detected-count law and the standard error that n_gates imply."""
    law = _detected_count_law(source, det)
    g = law[2] / law[1:4].sum()
    return g, math.sqrt(g * (1.0 - g) / (n_gates * law[1:4].sum()))


def load(name):
    return RunConfig.from_json_dict(json.loads((EXAMPLES / name).read_text()))


def analyze(name, out):
    """Simulate and analyze one example; its config and gamma report."""
    config = EXAMPLES / name
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                 "--out", str(out)]) == EXIT_OK
    return load(name), json.loads((out / "analysis.json").read_text())["gamma_report"]


@pytest.mark.parametrize("name", ["operating_point_eta0.67.json",
                                  "operating_point_eta0.617.json"])
def test_operating_point_beats_the_classical_bound(tmp_path, name):
    config, report = analyze(name, tmp_path)
    expected, sigma = forward_gamma(config.source, config.detector, config.n_gates)
    assert abs(report["gamma"] - expected) <= Z_MAX * sigma
    assert (expected - classical_gamma_bound()) / sigma > Z_MAX
    assert report["violated"] is True


def test_pump_sweep_follows_the_forward_model(tmp_path):
    config = load("pump_sweep.json")
    assert main(["sweep", "--config", str(EXAMPLES / "pump_sweep.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    pump = config.pump
    assert rows[:, 0].tolist() == list(pump.powers)
    for power, gamma in rows[:, :2]:
        source = SourceSpec(kind="pdc_pairs", cutoff=config.cutoff,
                            mean=pump.mean_pairs(power), pair_statistics=pump.pair_statistics)
        expected, sigma = forward_gamma(source, config.detector, config.n_gates)
        assert abs(gamma - expected) <= Z_MAX * sigma, f"{power} uW"


def test_reconstruction_simulates_then_inverts_at_10(tmp_path):
    config, report = analyze("reconstruction.json", tmp_path)
    expected, sigma = forward_gamma(config.source, config.detector, config.n_gates)
    assert abs(report["gamma"] - expected) <= Z_MAX * sigma
    assert main(["reconstruct", "--analysis", str(tmp_path / "analysis.json"),
                 "--config", str(EXAMPLES / "reconstruction.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = np.loadtxt(tmp_path / "reconstruction.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == list(range(11))
