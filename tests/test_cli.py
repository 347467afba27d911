import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from photonstats import fitting
from photonstats.acquisition import (
    AreaHistogram,
    DetectorModel,
    _detected_count_law,
    simulate_gate_counts,
    synthesize_histogram,
)
from photonstats.cli import (
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    RunConfig,
    analyze_histogram,
    load_config,
    main,
)
from photonstats.distributions import SourceSpec
from photonstats.ioutil import dumps_canonical
from photonstats.nonclassical import GammaReport

# the in-model operating point consistent with both reference probabilities
ANCHOR_ETA = 0.617
ANCHOR_MEAN_PAIRS = 0.2055


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "source": {"kind": "pdc_pairs", "cutoff": 14, "mean": ANCHOR_MEAN_PAIRS},
        "detector": {"eta": ANCHOR_ETA, "dark_mean": 4e-4},
        "n_gates": 300_000,
        "cutoff": 14,
        "seed": 99,
        "output_dir": str(path.parent / "out"),
        "bins": 500,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def read_reconstruction(path):
    """The probability column of a reconstruction.csv."""
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]


def stderr_error(capsys):
    return json.loads(capsys.readouterr().err)


MIXTURE = {
    "kind": "mixture",
    "cutoff": 14,
    "weights": [0.3, 0.7],
    "components": [
        {"kind": "poisson", "cutoff": 14, "mean": 0.4},
        {"kind": "pdc_pairs", "cutoff": 14, "mean": 0.2, "pair_statistics": "thermal"},
    ],
}


class TestRunConfig:
    def test_mixture_source_loads_and_simulates(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg = write_config(cfg_path, source=MIXTURE, n_gates=20_000)
        config = load_config(cfg_path)
        assert config.seed == 99
        assert config.source == SourceSpec(
            kind="mixture",
            cutoff=14,
            weights=(0.3, 0.7),
            components=(
                SourceSpec(kind="poisson", cutoff=14, mean=0.4),
                SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2, pair_statistics="thermal"),
            ),
        )
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "gate_counts.json").read_text())
        assert sum(summary["detected_count_frequencies"].values()) == 20_000
        # the echoed source reloads to the same spec
        assert RunConfig.from_json_dict(dict(cfg, source=summary["source"])).source == config.source

    @pytest.mark.parametrize("section", ["source", "detector", "pump"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, section):
        cfg_path = tmp_path / "run.json"
        cfg = write_config(cfg_path, pump={"powers": [1.0], "pairs_per_uW": 0.2253})
        cfg[section]["colour"] = 1
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["type"] == "ConfigError" and err["exit_code"] == EXIT_CONFIG
        assert "colour" in err["error"]

    def test_misspelt_top_level_key_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg = write_config(cfg_path)
        cfg["bin"] = cfg.pop("bins")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["type"] == "ConfigError" and "'bin'" in err["error"]
        assert not (tmp_path / "out" / "histogram.csv").exists()

    @pytest.mark.parametrize("version", [1, 2, "any"])
    def test_schema_version_accepted_with_any_value(self, tmp_path, version):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, schema_version=version)
        assert load_config(cfg_path).bins == 500

    def test_section_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, source=5)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert stderr_error(capsys)["type"] == "ConfigError"

    def test_seed_and_out_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        config = load_config(cfg_path, seed=7, out=str(tmp_path / "elsewhere"))
        assert config.seed == 7
        assert config.output_dir == tmp_path / "elsewhere"

    def test_missing_field_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg = write_config(cfg_path)
        del cfg["detector"]
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_cutoff_mismatch_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, cutoff=10)
        with pytest.raises(ConfigError, match="cutoff"):
            load_config(cfg_path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


class TestSimulateCommand:
    def test_writes_all_outputs(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=50_000)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "histogram.csv").exists()
        assert (out / "histogram.json").exists()
        assert (out / "gate_counts.json").exists()
        side = json.loads((out / "histogram.json").read_text())
        assert side["n_gates"] == 50_000
        assert side["detector"]["eta"] == ANCHOR_ETA

    def test_dead_detector_pedestal_only(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            n_gates=20_000,
            detector={"eta": 0.0, "dark_mean": 0.0},
        )
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "gate_counts.json").read_text())
        assert summary["detected_count_frequencies"] == {"0": 20_000}

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=30_000)
        main(["simulate", "--config", str(cfg_path)])
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["simulate", "--config", str(cfg_path)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=0)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_CONFIG
        assert "n_gates" in err["error"]

    def test_law_too_wide_is_runtime_error(self, tmp_path, capsys):
        # thermal pairs at 20 per gate leave more than 1e-15 of the detected
        # law above 512 counts: a valid config whose run fails
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=1000, source={
            "kind": "pdc_pairs", "cutoff": 14, "mean": 20.0, "pair_statistics": "thermal"})
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and err["type"] == "ValueError"
        assert "does not fit in 1024 photons" in err["error"]

    def test_seed_override_does_not_carry_over(self, tmp_path):
        # main's parser is built once per process; each call parses afresh
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=10_000)
        assert main(["simulate", "--config", str(cfg_path), "--seed", "5",
                     "--out", str(tmp_path / "A")]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "B")]) == EXIT_OK
        seeds = [json.loads((tmp_path / d / "gate_counts.json").read_text())["seed"]
                 for d in ("A", "B")]
        assert seeds == [5, 99]

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=10_000)
        blocker = tmp_path / "a_file"
        blocker.write_text("not a directory\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(blocker)]) == EXIT_IO
        assert stderr_error(capsys)["exit_code"] == EXIT_IO


class TestAnalyzeCommand:
    @pytest.fixture
    def simulated(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        main(["simulate", "--config", str(cfg_path)])
        return cfg_path, tmp_path / "out"

    def test_reference_anchored_gamma(self, simulated):
        cfg_path, out = simulated
        code = main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "analysis.json").read_text())
        g = report["gamma_report"]
        assert g["violated"] is True
        assert abs(g["gamma"] - 0.442) < 0.01
        assert report["eta_estimate"] == pytest.approx(0.63, abs=0.015)
        assert report["parity_report"]["nonclassical"] is False
        probs = report["probabilities"]
        assert probs[1] == pytest.approx(0.0818, abs=0.004)
        assert probs[2] == pytest.approx(0.0696, abs=0.004)
        # one- and two-count peaks near equal, three-count peak suppressed
        assert probs[3] < 0.15 * probs[2]

    def test_missing_histogram_is_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--histogram", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path)])
        assert code == EXIT_IO
        assert stderr_error(capsys)["exit_code"] == EXIT_IO

    def test_malformed_histogram_is_runtime_error(self, tmp_path, capsys):
        # a count of 2.5 is an unreadable input, not a peak fit that failed
        csv = tmp_path / "histogram.csv"
        csv.write_text("bin_center,count\n0.5,3\n1.5,2.5\n")
        code = main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)])
        assert code == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and err["type"] == "ValueError"
        assert not (tmp_path / "analysis.json").exists()

    def test_report_encoding(self, tmp_path):
        # the criterion-9 run config
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=100_000, seed=91, bins=400,
                     pump={"powers": [0.1, 1.0], "pairs_per_uW": 0.2253})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "analysis.json").read_text())
        n1, n2, n3 = report["event_counts"][1:4]
        assert report["gamma_report"]["counts_basis"] == [n1, n2, n3, n1 + n2 + n3]
        assert report["schema_version"] == 2
        nested = {k: v for k, v in report.items() if k != "schema_version"}
        assert "schema_version" not in json.dumps(nested)

    def test_infinite_significance_encodes_as_null(self):
        rep = GammaReport(gamma=1.0, std_error=0.0, n_std_above_classical=math.inf,
                          classical_bound=0.38, violated=True, counts_basis=(0, 5, 0, 5))
        assert json.loads(dumps_canonical(rep))["n_std_above_classical"] is None

    def test_pedestal_only_gamma_undefined(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=20_000, detector={"eta": 0.0, "dark_mean": 0.0})
        main(["simulate", "--config", str(cfg_path)])
        out = tmp_path / "out"
        with np.errstate(all="raise"):
            code = main(["analyze", "--histogram", str(out / "histogram.csv"),
                         "--out", str(out)])
        assert code == EXIT_FIT
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == EXIT_FIT and "gamma is undefined" in err["error"]
        # the same histogram with no sidecar: its comb is fitted to one peak
        (out / "histogram.json").unlink()
        with np.errstate(all="raise"):
            code = main(["analyze", "--histogram", str(out / "histogram.csv"),
                         "--out", str(out)])
        assert code == EXIT_FIT
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == EXIT_FIT and "gamma is undefined" in err["error"]

    def test_padding_below_the_pedestal_changes_nothing(self):
        # sidecar-less CSVs at 1 uW: the comb starts at the lowest tooth
        # holding an event, not at the first bin
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253)
        for seed in range(5):
            hist = synthesize_histogram(simulate_gate_counts(source, det, 100_000, seed),
                                        det, 500, seed)
            pad = 100  # 25 area units: the padded range starts 3 gains below the pedestal
            edges = np.concatenate((hist.bin_edges[0] - hist.bin_width * np.arange(pad, 0, -1),
                                    hist.bin_edges))
            padded = AreaHistogram(edges, np.pad(hist.counts, (pad, 0)), hist.n_gates)
            plain, wide = (analyze_histogram(AreaHistogram.from_csv(h.to_csv()))
                           for h in (hist, padded))
            for p, q in zip(wide.fit.peaks, plain.fit.peaks):
                assert p.center == pytest.approx(q.center, abs=1e-6)
            # a tooth holding one event sits on fit_comb's one-event reporting
            # cut and can fall either side of it, which moves that event in or
            # out of the normalization: 1e-5 of the 1e5 gates
            np.testing.assert_allclose(wide.distribution.probs[:4],
                                       plain.distribution.probs[:4], atol=1e-5)

    @pytest.mark.parametrize("pad", [0, 2400], ids=["plain", "padded-60-gains"])
    def test_wide_range_without_sidecar_is_analyzed(self, tmp_path, pad):
        # the default detector binned up to adc_max 600 gives a range of 60
        # gains, and padding adds 60 more below the pedestal: the start comb
        # is held to the rule only over the gains the counts span
        det = DetectorModel(adc_max=600.0)
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253)
        hist = synthesize_histogram(simulate_gate_counts(source, det, 20_000, 0), det, 2400, 0)
        edges = np.concatenate((hist.bin_edges[0] - hist.bin_width * np.arange(pad, 0, -1),
                                hist.bin_edges))
        csv = tmp_path / "histogram.csv"
        csv.write_text(AreaHistogram(edges, np.pad(hist.counts, (pad, 0)), hist.n_gates).to_csv())
        code = main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "gamma_report" in json.loads((tmp_path / "analysis.json").read_text())

    @pytest.mark.parametrize("edge", [0, -1], ids=["first-bin", "last-bin"])
    def test_single_nonzero_edge_bin_gives_json(self, tmp_path, capsys, edge):
        counts = np.zeros(40, dtype=int)
        counts[edge] = 3
        csv = tmp_path / "histogram.csv"
        csv.write_text(AreaHistogram(np.linspace(0.0, 10.0, 41), counts, 3).to_csv())
        code = main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert "gamma_report" in json.loads((tmp_path / "analysis.json").read_text())
        else:
            assert code == EXIT_FIT
            assert json.loads(err or (tmp_path / "analysis.json").read_text())["error"]

    @staticmethod
    def analyze_noise(tmp_path, capsys, mean):
        """Analyze Poisson noise on 500 bins of width 0.25, without a sidecar;
        the JSON error line it must end with."""
        counts = np.random.default_rng(0).poisson(mean, 500)
        csv = tmp_path / "histogram.csv"
        csv.write_text(AreaHistogram(np.arange(501) * 0.25, counts, int(counts.sum())).to_csv())
        code = main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)])
        assert code == EXIT_FIT
        return stderr_error(capsys)

    @pytest.mark.parametrize("mean", [5.0, 0.5])
    def test_noise_without_sidecar_is_fit_error(self, tmp_path, capsys, mean):
        # a comb fitted to noise crowds its teeth, and the resolvability rule
        # turns that into a fit failure
        err = self.analyze_noise(tmp_path, capsys, mean)
        assert err["exit_code"] == EXIT_FIT and "unresolvable" in err["error"]

    @pytest.mark.parametrize("mean", [5.0, 0.5])
    def test_noise_is_refused_before_the_solver(self, tmp_path, capsys, monkeypatch, mean):
        # the counts of these noise CSVs span 166 and 82 start gains
        def solver(*args):
            raise AssertionError("the solver ran on a comb started on noise")

        monkeypatch.setattr(fitting, "_levenberg_marquardt", solver)
        err = self.analyze_noise(tmp_path, capsys, mean)
        assert err["exit_code"] == EXIT_FIT and "unresolvable" in err["error"]

    @pytest.mark.parametrize("edit", [
        lambda side: side.pop("bin_edges"),
        lambda side: side.pop("n_gates"),
        lambda side: side["detector"].update(colour="blue"),
        lambda side: side["detector"].update(eta=1.5),
        lambda side: side.update(detector=[0.617, 4e-4]),
    ], ids=["no-bin-edges", "no-n-gates", "detector-unknown-key", "detector-eta-above-one",
            "detector-not-an-object"])
    def test_malformed_sidecar_is_runtime_error(self, simulated, capsys, edit):
        _, out = simulated
        sidecar = out / "histogram.json"
        side = json.loads(sidecar.read_text())
        edit(side)
        sidecar.write_text(json.dumps(side))
        code = main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and err["type"] == "ValueError"
        assert not (out / "analysis.json").exists()

    def test_sidecar_echo_selects_the_comb_fit(self, simulated):
        # with the detector echo, peaks sit on its comb; without it, the comb
        # is fitted to the counts, lands within a small fraction of a gain of
        # the echo, and the probabilities agree
        _, out = simulated
        assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out / "comb")]) == EXIT_OK
        sidecar = out / "histogram.json"
        side = json.loads(sidecar.read_text())
        det = DetectorModel(**side.pop("detector"))
        sidecar.write_text(json.dumps(side))
        assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out / "fitted")]) == EXIT_OK
        comb, fitted = (json.loads((out / d / "analysis.json").read_text())
                        for d in ("comb", "fitted"))
        for p in comb["fit"]["peaks"]:
            assert p["center"] == det.peak_center(p["photon_number"])
        for p in fitted["fit"]["peaks"]:
            assert abs(p["center"] - det.peak_center(p["photon_number"])) < 0.05 * det.gain
            assert abs(p["width"] - det.peak_width(p["photon_number"])) < 0.05 * det.gain
        np.testing.assert_allclose(comb["probabilities"][:4], fitted["probabilities"][:4],
                                   atol=2e-3)

    def test_coherent_source_not_violated(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            source={"kind": "poisson", "cutoff": 14, "mean": 1.0},
            detector={"eta": 1.0, "dark_mean": 0.0},
        )
        main(["simulate", "--config", str(cfg_path)])
        out = tmp_path / "out"
        assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "analysis.json").read_text())
        assert report["gamma_report"]["violated"] is False

    def test_determinism(self, simulated):
        cfg_path, out = simulated
        main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
        first = (out / "analysis.json").read_bytes()
        main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
        assert (out / "analysis.json").read_bytes() == first


class TestCombLabels:
    """Peaks are labelled by the detector comb at high efficiency, where weak
    pairs leave the one-count peak at about 40 events and a label by rank
    fails. The comb is the simulated detector, or fitted to the counts when
    the histogram comes without it."""

    @staticmethod
    def check_over_fixed_seeds(eta, known):
        det = DetectorModel(eta=eta, dark_mean=0.0)
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.05)
        law = _detected_count_law(source, det)
        expected = law[2] / law[1:4].sum()
        for seed in range(50):
            frequencies = simulate_gate_counts(source, det, 20_000, seed)
            hist = synthesize_histogram(frequencies, det, 500, seed)
            analysis = analyze_histogram(hist if known else replace(hist, detector=None))
            for p in analysis.fit.peaks:
                assert p.photon_number == round((p.center - det.offset) / det.gain)
            report = analysis.gamma_report
            assert abs(report.gamma - expected) <= 5.0 * report.std_error, f"seed {seed}"

    @pytest.mark.parametrize("eta", [0.98, 0.95])
    def test_labels_and_gamma_over_fixed_seeds(self, eta):
        self.check_over_fixed_seeds(eta, known=True)

    @pytest.mark.parametrize("eta", [0.98, 0.95])
    def test_fitted_comb_labels_and_gamma_over_fixed_seeds(self, eta):
        self.check_over_fixed_seeds(eta, known=False)


class TestReconstructCommand:
    def test_identity_detector_returns_measured(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            source={"kind": "pdc_pairs", "cutoff": 10, "mean": 0.15},
            detector={"eta": 1.0, "dark_mean": 0.0},
            cutoff=10,
        )
        main(["simulate", "--config", str(cfg_path)])
        out = tmp_path / "out"
        main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
        code = main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(cfg_path)])
        assert code == EXIT_OK
        rec = read_reconstruction(out / "reconstruction.csv")
        measured = json.loads((out / "analysis.json").read_text())["probabilities"]
        padded = np.zeros(11)
        padded[: len(measured)] = measured[:11]
        np.testing.assert_allclose(rec, padded, atol=1e-9)

    def test_even_odd_oscillations_recovered(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            source={"kind": "pdc_pairs", "cutoff": 40, "mean": 0.5},
            detector={"eta": 0.67, "dark_mean": 4e-4},
            cutoff=40,
            n_gates=400_000,
        )
        main(["simulate", "--config", str(cfg_path)])
        out = tmp_path / "out"
        main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
        # reconstruct on the standard truncated window
        recon_cfg = tmp_path / "recon.json"
        write_config(
            recon_cfg,
            source={"kind": "pdc_pairs", "cutoff": 10, "mean": 0.5},
            detector={"eta": 0.67, "dark_mean": 4e-4},
            cutoff=10,
            output_dir=str(out),
        )
        code = main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(recon_cfg)])
        assert code == EXIT_OK
        rec = read_reconstruction(out / "reconstruction.csv")
        assert rec[2] > 0.05 and rec[4] > 0.05
        assert np.abs(rec[1::2]).max() < 0.02
        neg = json.loads((out / "negativity.json").read_text())
        assert "negativity" in neg and neg["eta"] == 0.67

    def test_failed_analysis_is_fit_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        analysis = tmp_path / "analysis.json"
        analysis.write_text(json.dumps({"error": "peak fit did not converge",
                                        "schema_version": 2}))
        code = main(["reconstruct", "--analysis", str(analysis), "--config", str(cfg_path)])
        assert code == EXIT_FIT
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_FIT and "did not converge" in err["error"]
        assert not (tmp_path / "out" / "negativity.json").exists()

    def test_strict_escalates_ill_conditioned(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            source={"kind": "pdc_pairs", "cutoff": 20, "mean": 0.05},
            detector={"eta": 0.05, "dark_mean": 0.0},
            cutoff=20,
            n_gates=50_000,
        )
        main(["simulate", "--config", str(cfg_path)])
        out = tmp_path / "out"
        main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
        code = main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(cfg_path), "--strict"])
        assert code == EXIT_NUMERIC
        report = json.loads((out / "negativity.json").read_text())
        assert report["warnings"]
        # without --strict the same run succeeds with the warning recorded
        assert main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(cfg_path)]) == EXIT_OK


class TestSweepCommand:
    def test_sweep_csv_shape_and_trend(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            pump={"powers": [0.01, 0.3, 20.0], "pairs_per_uW": 0.2253},
            n_gates=300_000,
        )
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "power_uW,gamma,std_error,n_std"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert len(rows) == 3
        gammas = [r[1] for r in rows]
        assert gammas[1] > gammas[0] and gammas[1] > gammas[2]

    def test_sweep_without_pump_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "pump" in json.loads(capsys.readouterr().err)["error"]

    def test_empty_powers_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump={"powers": []})
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_non_converging_fit_is_fit_error(self, tmp_path, capsys, monkeypatch):
        # no evaluation budget: every peak fit stops unconverged
        monkeypatch.setattr(fitting, "MAX_ITER", 0)
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump={"powers": [1.0], "pairs_per_uW": 0.2253},
                     n_gates=100_000)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        hist = AreaHistogram.load(out / "histogram.csv", out / "histogram.json")
        assert not analyze_histogram(replace(hist, detector=None)).fit.converged

        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_FIT
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_FIT and "1.0 uW" in err["error"]
        assert not (out / "sweep.csv").exists()
        assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out)]) == EXIT_FIT

    def test_determinism(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(
            cfg_path,
            pump={"powers": [0.1, 1.0], "pairs_per_uW": 0.2253},
            n_gates=80_000,
        )
        main(["sweep", "--config", str(cfg_path)])
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        main(["sweep", "--config", str(cfg_path)])
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs_without_runpy_warning():
    # runpy warns when the package import has already loaded photonstats.cli
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "photonstats.cli", "--help"],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout


class TestStartupLoadsNoScipy:
    """scipy costs 0.3-1.6 s per subpackage to import; no command loads it."""

    @staticmethod
    def scipy_loaded(tmp_path, argv=None):
        """The scipy modules a fresh interpreter holds after importing
        photonstats and photonstats.cli, and running ``main(argv)`` if given."""
        script = "\n".join([
            "import json, sys",
            "import photonstats, photonstats.cli",
            f"assert photonstats.cli.main({argv!r}) == 0" if argv else "",
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_import_loads_no_scipy(self, tmp_path):
        assert self.scipy_loaded(tmp_path) == set()

    def test_reconstruct_loads_no_scipy(self, tmp_path):
        # the pump omits pairs_per_uW, so loading the config runs the calibration
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump={"powers": [1.0]})
        analysis = tmp_path / "analysis.json"
        analysis.write_text(json.dumps({"probabilities": [0.85, 0.08, 0.06, 0.01]}))
        argv = ["reconstruct", "--analysis", str(analysis), "--config", str(cfg_path)]
        assert self.scipy_loaded(tmp_path, argv) == set()
        assert (tmp_path / "out" / "negativity.json").exists()

    def test_simulate_loads_no_scipy(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump={"powers": [1.0]})
        assert self.scipy_loaded(tmp_path, ["simulate", "--config", str(cfg_path)]) == set()
        assert (tmp_path / "out" / "histogram.csv").exists()

    def test_analyze_loads_no_scipy(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        argv = ["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)]
        assert self.scipy_loaded(tmp_path, argv) == set()
        assert (out / "analysis.json").exists()

    def test_sweep_loads_no_scipy(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump={"powers": [0.3, 1.0]}, n_gates=100_000)
        assert self.scipy_loaded(tmp_path, ["sweep", "--config", str(cfg_path)]) == set()
        assert (tmp_path / "out" / "sweep.csv").exists()
