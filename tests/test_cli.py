import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import padded_below
from photonstats import fitting
from photonstats.acquisition import (
    DEFAULT_PAIRS_PER_UW,
    AreaHistogram,
    DetectorModel,
    PumpModel,
    _area_edges,
    _cell_laws,
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
    _SWEEP_STREAM,
    ConfigError,
    RunConfig,
    _analysis,
    _comb_fits,
    analyze_histogram,
    load_config,
    main,
    pump_sweep,
    sweep_csv,
)
from photonstats.distributions import SourceSpec
from photonstats.ioutil import csv_text, dumps_canonical
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

    @pytest.mark.parametrize("overrides", [[], ["--seed", "3"]], ids=["plain", "seed"])
    @pytest.mark.parametrize("top", [None, [1, 2], "abc"], ids=["section", "array", "string"])
    def test_section_not_an_object_is_config_error(self, tmp_path, capsys, top, overrides):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, source=5)
        if top is not None:
            cfg_path.write_text(json.dumps(top))
        assert main(["simulate", "--config", str(cfg_path), *overrides]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["type"] == "ConfigError"
        if top is not None:
            assert "must be a JSON object" in err["error"]

    @pytest.mark.parametrize("pump", [0, False, "", [], {}],
                             ids=["zero", "false", "empty-string", "empty-array", "empty-object"])
    def test_pump_given_is_passed_whole(self, tmp_path, capsys, pump):
        # only an omitted or null pump means no pump; any other value goes
        # to PumpModel as the other sections go to theirs
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump=pump)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["type"] == "ConfigError" and err["exit_code"] == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, field, rule", [
        ({"source": 5}, "source", "a JSON object"),
        ({"source": None}, "source", "a JSON object"),
        ({"source": dict(MIXTURE, components=[5, MIXTURE["components"][1]])},
         "source components[0]", "a JSON object"),
        ({"source": dict(MIXTURE, components=5)}, "source components", "a list"),
        ({"source": dict(MIXTURE, weights=1.0)}, "source weights", "a list"),
        ({"detector": 3}, "detector", "a JSON object"),
        ({"detector": None}, "detector", "a JSON object"),
        ({"pump": [1]}, "pump", "a JSON object"),
        ({"pump": {"powers": 1.0}}, "pump powers", "a list"),
        ({"output_dir": 5}, "output_dir", "a string"),
        ({"output_dir": None}, "output_dir", "a string"),
    ], ids=["int-source", "null-source", "int-component", "int-components", "float-weights",
            "int-detector", "null-detector", "array-pump", "float-powers", "int-output-dir",
            "null-output-dir"])
    def test_field_of_the_wrong_json_type_is_named(self, tmp_path, capsys, overrides, field,
                                                   rule):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, **overrides)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["type"] == "ConfigError"
        assert f"{field} must be {rule}" in err["error"]

    @pytest.mark.parametrize("edit, field, rule", [
        (lambda cfg: cfg["detector"].update(dark_mean=math.nan), "dark_mean", "finite"),
        (lambda cfg: cfg["detector"].update(gain=math.nan), "gain", "finite"),
        (lambda cfg: cfg["detector"].update(adc_max=math.inf), "adc_max", "finite"),
        (lambda cfg: cfg["pump"].update(powers=[0.3, math.nan]), "powers", "finite"),
        (lambda cfg: cfg["pump"].update(pairs_per_uW=math.inf), "pairs_per_uW", "finite"),
        (lambda cfg: cfg.update(n_gates=1.7), "n_gates", "whole number"),
        (lambda cfg: cfg.update(n_gates=True), "n_gates", "whole number"),
        (lambda cfg: cfg.update(n_gates="100000"), "n_gates", "whole number"),
        (lambda cfg: cfg.update(n_gates=2**63), "n_gates", "at most"),
        (lambda cfg: cfg.update(n_gates=1e30), "n_gates", "at most"),
        (lambda cfg: cfg.update(seed=7.9), "seed", "whole number"),
        (lambda cfg: cfg.update(bins=400.9), "bins", "whole number"),
        (lambda cfg: cfg.update(cutoff=14.6), "cutoff", "whole number"),
        (lambda cfg: cfg.update(cutoff=14.6) or cfg["source"].update(cutoff=14.6),
         "source cutoff", "whole number"),
        (lambda cfg: cfg["source"].update(kind="fock", n=2.5), "source n", "whole number"),
        (lambda cfg: cfg["detector"].update(gain=10**400), "gain", "finite"),
        (lambda cfg: cfg["detector"].update(eta=True), "eta", "real number"),
        (lambda cfg: cfg["pump"].update(powers=[True, 1.0]), "powers", "real number"),
        (lambda cfg: cfg["source"].update(mean=True), "mean", "real number"),
        (lambda cfg: cfg.update(source=dict(MIXTURE, weights=[True, 0.0])), "weights",
         "real number"),
        (lambda cfg: cfg["detector"].update(dark_after_loss="no"), "dark_after_loss",
         "true or false"),
        (lambda cfg: cfg["pump"].update(pair_statistics="thermalx"), "pair_statistics",
         "one of"),
        (lambda cfg: cfg.update(seed=-1), "seed", "nonnegative"),
        (lambda cfg: cfg.update(bins=9), "bins", ">= 10"),
        (lambda cfg: cfg["pump"].update(pairs_per_uW=0.0), "pairs_per_uW", "positive"),
        (lambda cfg: cfg["pump"].update(pairs_per_uW=-0.2), "pairs_per_uW", "positive"),
    ], ids=["nan-dark-mean", "nan-gain", "infinite-adc-max", "nan-power",
            "infinite-pairs-per-uw", "fractional-n-gates", "boolean-n-gates", "string-n-gates",
            "n-gates-2**63", "n-gates-1e30",
            "fractional-seed", "fractional-bins", "fractional-cutoff",
            "fractional-cutoff-in-both-places", "fractional-fock-n", "huge-integer-gain", "boolean-eta",
            "boolean-power", "boolean-mean", "boolean-mixture-weight",
            "string-dark-after-loss", "unknown-pair-statistics", "negative-seed", "nine-bins",
            "zero-pairs-per-uw", "negative-pairs-per-uw"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, edit, field, rule):
        # JSON NaN and Infinity, a fraction, a boolean or a string where a
        # whole or real number belongs, more gates than one draw takes, a
        # number out of its range, a string where a boolean belongs and an
        # unknown pair law are refused where they are read, naming the field,
        # not where a later stage trips over them or rounds them
        cfg_path = tmp_path / "run.json"
        cfg = write_config(cfg_path, pump={"powers": [0.3, 1.0], "pairs_per_uW": 0.2253})
        edit(cfg)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = stderr_error(capsys)
        assert err["type"] == "ConfigError" and field in err["error"] and rule in err["error"]

    def test_whole_valued_float_is_an_integer(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=1e6, seed=7.0)
        config = load_config(cfg_path)
        assert (config.n_gates, config.seed) == (1_000_000, 7)
        assert type(config.n_gates) is int

    def test_largest_n_gates_loads(self, tmp_path):
        # one multinomial draw takes at most 2**63 - 1 trials
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=2**63 - 1)
        assert load_config(cfg_path).n_gates == 2**63 - 1

    @pytest.mark.parametrize("pump", [{"powers": [1.0]}, {"powers": [1.0], "pairs_per_uW": None}],
                             ids=["omitted", "null"])
    def test_pump_without_pairs_per_uw_takes_the_default(self, tmp_path, pump):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, pump=pump)
        assert load_config(cfg_path).pump.pairs_per_uW == DEFAULT_PAIRS_PER_UW

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
        assert "n_gates must be >= 1" in err["error"]

    def test_law_too_wide_is_runtime_error(self, tmp_path, capsys):
        # thermal pairs at 24 per gate leave more than 1e-15 of the detected
        # law above 1024 counts: a valid config whose run fails
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=1000, source={
            "kind": "pdc_pairs", "cutoff": 14, "mean": 24.0, "pair_statistics": "thermal"})
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and err["type"] == "ValueError"
        assert "does not fit in 1024 photons" in err["error"]

    def test_dark_counts_past_the_first_window_are_simulated(self, tmp_path):
        # at a dark mean of 300 the detected-count law runs to 449 counts
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=100_000, detector={"eta": ANCHOR_ETA, "dark_mean": 300.0})
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "gate_counts.json").read_text())
        freq = {int(k): v for k, v in summary["detected_count_frequencies"].items()}
        mean = sum(k * v for k, v in freq.items()) / 100_000
        assert sum(freq.values()) == 100_000
        # within 5 standard errors of 2 eta mu + dark_mean
        assert abs(mean - (2 * ANCHOR_ETA * ANCHOR_MEAN_PAIRS + 300.0)) < 5 * math.sqrt(300.0 / 1e5)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_dark_mean_past_every_window_is_runtime_error(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=10_000, detector={"eta": ANCHOR_ETA, "dark_mean": 900.0},
                     pump={"powers": [1.0], "pairs_per_uW": 0.2253})
        assert main([command, "--config", str(cfg_path)]) == EXIT_RUNTIME
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

    def test_directory_at_sidecar_path_is_io_error(self, simulated, capsys):
        _, out = simulated
        (out / "histogram.json").unlink()
        (out / "histogram.json").mkdir()
        code = main(["analyze", "--histogram", str(out / "histogram.csv"), "--out", str(out)])
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

    def test_count_the_comb_cannot_weigh_is_fit_error(self, tmp_path, capsys):
        # three counts without a sidecar: the first comb step shrinks sigma0
        # to its floor, and the count at area 12.875 is left where the comb
        # expects a subnormal 1e-319, so its E-step share y / mu overflows
        counts = np.zeros(500, dtype=int)
        counts[[71, 197, 348]] = 1
        csv = tmp_path / "instrument.csv"
        csv.write_text(AreaHistogram(np.linspace(-5.0, 120.0, 501), counts, 3).to_csv())
        with np.errstate(all="raise"):
            code = main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)])
        assert code == EXIT_FIT
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_FIT
        assert "the bin at area 12.875 holds counts where the comb expects only" in err["error"]

    def test_count_no_tooth_reaches_is_fit_error(self, tmp_path, capsys):
        # five counts without a sidecar: the fitted comb puts its pedestal at
        # 17.5 with sigma0 0.051, so no tooth has any mass in bin 42 (area
        # 5.625), and its count would drop out of the areas and of P_n
        counts = np.zeros(500, dtype=int)
        counts[[42, 89, 90, 118, 400]] = 1
        csv = tmp_path / "instrument.csv"
        csv.write_text(AreaHistogram(np.linspace(-5.0, 120.0, 501), counts, 5).to_csv())
        with np.errstate(all="raise"):
            code = main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)])
        assert code == EXIT_FIT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == EXIT_FIT
        assert "bin 42 holds counts that no tooth of the detector comb reaches" in err["error"]
        assert not (tmp_path / "analysis.json").exists()

    def test_subnormal_tooth_leaves_every_error_finite(self, tmp_path):
        # at gain 4 tooth 11 fits to a subnormal 3e-319 events, whose scaled
        # information diagonal underflows; it must not turn the errors of the
        # reported teeth 0-10 to NaN
        det = DetectorModel(gain=4.0, adc_max=48.0)
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=DEFAULT_PAIRS_PER_UW)
        hist = synthesize_histogram(simulate_gate_counts(source, det, 200_000, 39), det, 500, 39)
        (tmp_path / "histogram.csv").write_text(hist.to_csv())
        (tmp_path / "histogram.json").write_text(json.dumps(hist.sidecar_dict()))
        code = main(["analyze", "--histogram", str(tmp_path / "histogram.csv"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        peaks = json.loads((tmp_path / "analysis.json").read_text())["fit"]["peaks"]
        assert len(peaks) == 11
        assert None not in [p["area_std_error"] for p in peaks]

    @pytest.mark.parametrize("n_gates", [2_000, 20_000])
    def test_pedestal_only_csv_never_reports_gamma(self, n_gates):
        # no efficiency and no dark counts put every gate on the pedestal, so
        # no seed's CSV without a sidecar may give a gamma: a pedestal-tail
        # count is not a one-count event
        det = DetectorModel(eta=0.0, dark_mean=0.0)
        for seed in range(40):
            csv = synthesize_histogram(np.array([n_gates]), det, 500, seed).to_csv()
            with np.errstate(all="raise"), pytest.raises(ValueError, match="gamma is undefined"):
                analyze_histogram(AreaHistogram.from_csv(csv))

    def test_padding_below_the_pedestal_changes_nothing(self):
        # sidecar-less CSVs at 1 uW: the comb starts at the lowest tooth
        # holding an event, not at the first bin. The areas below the range
        # fall in the first bin, so empty bins padded below it take over that
        # bin's mass below its lower edge: two paddings give the same
        # analysis, and padding leaves that of a histogram whose first bin is
        # empty
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.2253)
        empty_first_bin = 0
        for seed in range(5):
            hist = synthesize_histogram(simulate_gate_counts(source, det, 100_000, seed),
                                        det, 500, seed)
            # 25 and 100 area units: the padded ranges start 3 and 10 gains
            # below the pedestal
            plain, *wide = (analyze_histogram(padded_below(hist, pad)) for pad in (0, 100, 400))
            pairs = [(wide[1], wide[0])]
            if hist.counts[0] == 0:
                empty_first_bin += 1
                pairs.append((wide[0], plain))
            for a, b in pairs:
                for p, q in zip(a.fit.peaks, b.fit.peaks):
                    assert p.center == pytest.approx(q.center, abs=1e-6)
                # a tooth holding one event sits on fit_comb's one-event
                # reporting cut and can fall either side of it, which moves
                # that event in or out of the normalization: 1e-5 of the 1e5
                # gates
                np.testing.assert_allclose(a.distribution.probs[:4], b.distribution.probs[:4],
                                           atol=1e-5)
        assert 0 < empty_first_bin < 5

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

        monkeypatch.setattr(fitting, "_comb_ecm", solver)
        err = self.analyze_noise(tmp_path, capsys, mean)
        assert err["exit_code"] == EXIT_FIT and "unresolvable" in err["error"]

    @pytest.mark.parametrize("edit", [
        lambda side: side.pop("bin_edges"),
        lambda side: side.pop("n_gates"),
        lambda side: side["detector"].update(colour="blue"),
        lambda side: side["detector"].update(eta=1.5),
        lambda side: side.update(detector=[0.617, 4e-4]),
        lambda side: side.update(overflow=-5),
        lambda side: side.update(bin_edges=[2.0 * e for e in side["bin_edges"]]),
        lambda side: side.update(bin_edges=[e + 0.1 for e in side["bin_edges"]]),
        lambda side: side["bin_edges"].__setitem__(-1, math.inf),
        lambda side: side["detector"].update(gain=math.nan),
        lambda side: side.update(n_gates=str(side["n_gates"])),
        lambda side: side.update(n_gates=side["n_gates"] + 0.9),
        lambda side: side.update(overflow=0.5),
        lambda side: side["detector"].update(eta=True),
    ], ids=["no-bin-edges", "no-n-gates", "detector-unknown-key", "detector-eta-above-one",
            "detector-not-an-object", "negative-overflow", "doubled-edges", "shifted-edges",
            "infinite-edge", "detector-nan-gain", "string-n-gates", "fractional-n-gates",
            "fractional-overflow", "detector-boolean-eta"])
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

    @pytest.mark.parametrize("row", [0, 7], ids=["first", "inner"])
    def test_nan_bin_center_is_runtime_error(self, simulated, capsys, row):
        # without a sidecar the edges are built from the centers, so a NaN
        # center makes one edge, or every edge, NaN
        _, out = simulated
        (out / "histogram.json").unlink()
        csv = out / "histogram.csv"
        lines = csv.read_text().splitlines()
        lines[row + 1] = "nan," + lines[row + 1].split(",")[1]
        csv.write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--histogram", str(csv), "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and "finite" in err["error"]
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


class TestGammaErrorBarCoverage:
    """gamma's multinomial error bar covers: over 1000 replicates per cell,
    z = (gamma_hat - gamma) / sigma_hat has |mean| < 0.1 and sd in
    [0.9, 1.1], where the true gamma = P2 / (P1 + P2 + P3) comes from the
    detected-count law. Replicate r draws with seed 20000 + r. At most 3
    fits per cell may end unconverged (ROADMAP item 2 measures seed 20254
    at 3 uW and 2e4 gates); their seeds are printed and left out of z."""

    @pytest.mark.parametrize("n_gates", [20_000, 200_000], ids=["2e4-gates", "2e5-gates"])
    @pytest.mark.parametrize("power", [1.0, 3.0], ids=["1uW", "3uW"])
    def test_z_is_standard_normal(self, power, n_gates):
        det = DetectorModel()
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=DEFAULT_PAIRS_PER_UW * power)
        law = _detected_count_law(source, det)
        gamma = law[2] / law[1:4].sum()
        seeds = range(20_000, 21_000)
        counts = [synthesize_histogram(simulate_gate_counts(source, det, n_gates, seed),
                                       det, 500, seed).counts for seed in seeds]
        z, unconverged = [], []
        for seed, fit in zip(seeds, _comb_fits(counts, det, _area_edges(det, 500))):
            report = _analysis(fit).gamma_report
            if report is None:
                unconverged.append(seed)
            else:
                z.append((report.gamma - gamma) / report.std_error)
        print(f"unconverged seeds: {unconverged}")
        assert len(unconverged) <= 3, f"unconverged seeds: {unconverged}"
        mean, sd = np.mean(z), np.std(z, ddof=1)
        assert abs(mean) < 0.1 and 0.9 <= sd <= 1.1, (mean, sd, unconverged)


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

    @pytest.mark.parametrize("held", [[1], "abc"], ids=["array", "string"])
    def test_analysis_not_an_object_is_runtime_error(self, tmp_path, capsys, held):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        analysis = tmp_path / "analysis.json"
        analysis.write_text(json.dumps(held))
        code = main(["reconstruct", "--analysis", str(analysis), "--config", str(cfg_path)])
        assert code == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and "JSON object" in err["error"]
        assert not (tmp_path / "out" / "negativity.json").exists()

    @pytest.mark.parametrize("probabilities", [None, 0.5, [[0.5, 0.5]], {"0": 0.5}, ["0.5"], []],
                             ids=["null", "number", "nested", "object", "strings", "empty"])
    def test_probabilities_not_a_list_of_numbers_is_runtime_error(self, tmp_path, capsys,
                                                                  probabilities):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path)
        analysis = tmp_path / "analysis.json"
        analysis.write_text(json.dumps({"probabilities": probabilities}))
        code = main(["reconstruct", "--analysis", str(analysis), "--config", str(cfg_path)])
        assert code == EXIT_RUNTIME
        err = stderr_error(capsys)
        assert err["exit_code"] == EXIT_RUNTIME and "1-D list of numbers" in err["error"]
        assert not (tmp_path / "out" / "negativity.json").exists()

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["plain", "strict"])
    def test_singular_in_floating_point_is_runtime_error(self, tmp_path, capsys, strict):
        # at efficiency 1e-300 eta^j underflows to zero from j = 2, so the
        # matrix is singular in floating point, and the solve fails after the
        # condition-number warning is recorded
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, source={"kind": "pdc_pairs", "cutoff": 10, "mean": 0.2},
                     detector={"eta": 1e-300, "dark_mean": 4e-4}, cutoff=10)
        analysis = tmp_path / "analysis.json"
        analysis.write_text(json.dumps({"probabilities": [0.85, 0.1, 0.05]}))
        code = main(["reconstruct", "--analysis", str(analysis), "--config", str(cfg_path),
                     *strict])
        assert code == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == EXIT_RUNTIME and err["type"] == "ValueError"
        assert "efficiency 1e-300 and cutoff 10" in err["error"]
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


@pytest.fixture(scope="module")
def anchor_run(tmp_path_factory):
    """One simulate and analyze at the in-model operating point, 1e5 gates,
    seed 7 and 500 bins: the config path and the output directory."""
    root = tmp_path_factory.mktemp("anchor")
    cfg_path = root / "run.json"
    write_config(cfg_path, n_gates=100_000, seed=7)
    out = root / "out"
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                 "--out", str(out)]) == EXIT_OK
    return cfg_path, out


class TestAnchorRun:
    """Checks on the outputs of ``anchor_run``, each written to its own
    directory."""

    def test_fitted_comb_gives_the_sidecars_gamma(self, anchor_run, tmp_path):
        # the same counts without a sidecar: the comb fitted to them gives
        # the sidecar's gamma within one standard error
        _, out = anchor_run
        csv = tmp_path / "instrument.csv"
        csv.write_bytes((out / "histogram.csv").read_bytes())
        assert main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)]) == EXIT_OK
        side, bare = (json.loads((d / "analysis.json").read_text())["gamma_report"]
                      for d in (out, tmp_path))
        assert abs(bare["gamma"] - side["gamma"]) <= side["std_error"]

    def test_csv_cut_below_the_pedestal_finds_the_pedestal(self, anchor_run, tmp_path):
        # the counts cut one sigma0 below the pedestal, the 16 bins below
        # -1.0 added into the first bin kept, without a sidecar: the fitted
        # comb clips the areas below the range into that bin too
        _, out = anchor_run
        hist = AreaHistogram.load(out / "histogram.csv", out / "histogram.json")
        assert hist.bin_edges[16] == -1.0
        counts = hist.counts[16:].copy()
        counts[0] += hist.counts[:16].sum()
        csv = tmp_path / "instrument.csv"
        csv.write_text(AreaHistogram(hist.bin_edges[16:], counts, hist.n_gates).to_csv())
        assert main(["analyze", "--histogram", str(csv), "--out", str(tmp_path)]) == EXIT_OK
        pedestal = json.loads((tmp_path / "analysis.json").read_text())["fit"]["peaks"][0]
        assert abs(pedestal["center"]) < 0.02 and abs(pedestal["width"] - 1.0) < 0.03

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["plain", "strict"])
    def test_zero_efficiency_is_runtime_error(self, anchor_run, tmp_path, capsys, strict):
        # a detector that sees nothing cannot be inverted
        cfg_path, out = anchor_run
        cfg = json.loads(cfg_path.read_text())
        cfg["detector"]["eta"] = 0.0
        zero_eta = tmp_path / "zero_eta.json"
        zero_eta.write_text(json.dumps(cfg))
        code = main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(zero_eta), "--out", str(tmp_path / "out"), *strict])
        assert code == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == EXIT_RUNTIME and "zero efficiency" in err["error"]
        assert not (tmp_path / "out").exists()


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

    def test_rows_are_the_analyses_of_each_power(self):
        # the sweep fits its powers as one stack; each row is what
        # analyze_histogram reports on that power's histogram alone
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        pump = PumpModel(powers=(0.01, 0.3, 1.0, 16.0), pairs_per_uW=0.2253)
        rows = pump_sweep(pump, det, 200_000, seed=4, cutoff=14, bins=400)
        assert [power for power, _ in rows] == list(pump.powers)
        edges = _area_edges(det, 400)
        for i, (power, report) in enumerate(rows):
            source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=pump.mean_pairs(power))
            (cells,) = _cell_laws([_detected_count_law(source, det)], det, edges)
            counts = np.random.default_rng([4, _SWEEP_STREAM, i]).multinomial(200_000, cells)
            hist = AreaHistogram(edges, counts[:-1], 200_000, int(counts[-1]), det)
            assert report == analyze_histogram(hist).gamma_report

    def test_each_power_depends_on_seed_and_index_alone(self):
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        three = pump_sweep(PumpModel(powers=(0.3, 1.0, 3.0)), det, 100_000, seed=8,
                           cutoff=14, bins=500)
        two = pump_sweep(PumpModel(powers=(0.3, 1.0)), det, 100_000, seed=8,
                         cutoff=14, bins=500)
        assert three[:2] == two

    def test_draw_matches_the_two_stage_draw(self):
        # 300 sweep replicates at 1 uW and 2e4 gates against 300 histograms
        # drawn count law first and bins second; bounds fixed before the
        # first run: the means of gamma within 4 standard errors of their
        # difference, and the log of the ratio of the sds within 4 sqrt(1 / (n - 1))
        det = DetectorModel(eta=0.67, dark_mean=4e-4)
        n = 300
        pump = PumpModel(powers=(1.0,) * n)
        sweep = np.array([rep.gamma for _, rep in
                          pump_sweep(pump, det, 20_000, seed=5, cutoff=14, bins=500)])
        source = SourceSpec(kind="pdc_pairs", cutoff=14, mean=pump.mean_pairs(1.0))
        counts = [synthesize_histogram(simulate_gate_counts(source, det, 20_000, seed), det, 500,
                                       seed).counts for seed in range(n)]
        two_stage = np.array([_analysis(fit).gamma_report.gamma
                              for fit in _comb_fits(counts, det, _area_edges(det, 500))])
        sd_sweep, sd_two = sweep.std(ddof=1), two_stage.std(ddof=1)
        z = (sweep.mean() - two_stage.mean()) / math.sqrt((sd_sweep**2 + sd_two**2) / n)
        assert abs(z) <= 4.0
        assert abs(math.log(sd_sweep / sd_two)) <= 4.0 * math.sqrt(1.0 / (n - 1))

    @pytest.mark.parametrize("case", ["law-too-wide", "empty-histogram"])
    def test_first_failing_power_decides(self, tmp_path, capsys, monkeypatch, case):
        # the second power fails on its own (exit 6); once the first power's
        # fit cannot converge, that failure comes first (exit 3)
        cfg_path = tmp_path / "run.json"
        if case == "law-too-wide":  # thermal pairs at 24 per gate
            write_config(cfg_path, n_gates=100_000, pump={
                "powers": [0.1, 120.0], "pairs_per_uW": 0.2, "pair_statistics": "thermal"})
            message = "does not fit in 1024 photons"
        else:  # about 68 pairs per gate: every area lies above adc_max
            write_config(cfg_path, n_gates=10_000, bins=100,
                         detector={"eta": 0.67, "dark_mean": 4e-4, "adc_max": 25.0},
                         pump={"powers": [0.1, 300.0], "pairs_per_uW": 0.2253})
            message = "empty histogram"
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_RUNTIME
        assert message in stderr_error(capsys)["error"]

        monkeypatch.setattr(fitting, "MAX_ITER", 0)
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_FIT
        err = stderr_error(capsys)
        assert err["type"] == "FitError" and "at 0.1 uW" in err["error"]

    def test_first_power_failing_writes_no_sweep(self, tmp_path, capsys):
        # thermal pairs at 24 per gate fail before any histogram is drawn, so
        # the stack to fit is empty
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=100_000, pump={
            "powers": [120.0, 0.1], "pairs_per_uW": 0.2, "pair_statistics": "thermal"})
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_RUNTIME
        assert "does not fit in 1024 photons" in stderr_error(capsys)["error"]
        assert not (tmp_path / "out" / "sweep.csv").exists()

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


class TestOutputFiles:
    def test_csv_tables_are_pinned(self, tmp_path):
        # every value is written as its repr, the sweep's infinite n_std as inf
        hist = AreaHistogram(np.array([0.0, 0.5, 1.25]), np.array([3, 0]), n_gates=4)
        assert hist.to_csv() == "bin_center,count\n0.25,3\n0.875,0\n"
        # at efficiency 0.5 a measured P1 of 0.8 needs a true P1 of 1.6, whose
        # lost half is more than the measured P0 of 0.2: P0 = 0.2 - 0.8
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, source={"kind": "pdc_pairs", "cutoff": 3, "mean": 0.2},
                     detector={"eta": 0.5, "dark_mean": 0.0}, cutoff=3)
        analysis = tmp_path / "analysis.json"
        analysis.write_text(json.dumps({"probabilities": [0.2, 0.8]}))
        assert main(["reconstruct", "--analysis", str(analysis),
                     "--config", str(cfg_path)]) == EXIT_OK
        assert (tmp_path / "out" / "reconstruction.csv").read_text() == (
            "n,probability\n0,-0.6000000000000001\n1,1.6\n2,0.0\n3,0.0\n")
        rows = [(0.3, GammaReport(0.25, 0.01, -12.98, 0.3798, False)),
                (1.0, GammaReport(1.0, 0.0, math.inf, 0.3798, True))]
        assert sweep_csv(rows) == ("power_uW,gamma,std_error,n_std\n"
                                   "0.3,0.25,0.01,-12.98\n1.0,1.0,0.0,inf\n")
        assert csv_text("a,b", []) == "a,b\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_outputs_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        # each output gets the mode open(path, "w") would give a new file,
        # and no temporary file is left behind
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, n_gates=20_000, pump={"powers": [1.0], "pairs_per_uW": 0.2253})
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
            assert main(["analyze", "--histogram", str(out / "histogram.csv"),
                         "--out", str(out)]) == EXIT_OK
            assert main(["reconstruct", "--analysis", str(out / "analysis.json"),
                         "--config", str(cfg_path)]) == EXIT_OK
            assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == dict.fromkeys(
            ["histogram.csv", "histogram.json", "gate_counts.json", "analysis.json",
             "reconstruction.csv", "negativity.json", "sweep.csv"], mode)


@pytest.mark.parametrize("argv, option", [
    (["simulate", "--strict"], "--strict"),
    (["sweep", "--strict"], "--strict"),
    (["analyze", "--histogram", "h.csv", "--seed", "1"], "--seed"),
    (["reconstruct", "--analysis", "a.json", "--seed", "1"], "--seed"),
    (["analyze", "--histogram", "h.csv"], "--config"),
    (["analyze", "--histogram", "h.csv", "--strict"], "--strict"),
], ids=["simulate-strict", "sweep-strict", "analyze-seed", "reconstruct-seed", "analyze-config",
        "analyze-strict"])
def test_option_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv, option):
    # the command does not read the option, so it is refused: the first
    # unrecognized argument is that option, before the --config appended here
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, pump={"powers": [1.0], "pairs_per_uW": 0.2253}, n_gates=10_000)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def exit_case(case, tmp_path, monkeypatch):
    """The argv of a command that fails with the exit code of ``case``."""
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, n_gates=20_000)
    csv, analysis = tmp_path / "histogram.csv", tmp_path / "analysis.json"
    analyze = ["analyze", "--histogram", str(csv), "--out", str(tmp_path)]
    reconstruct = ["reconstruct", "--analysis", str(analysis), "--config", str(cfg_path)]
    if case == "config":
        write_config(cfg_path, n_gates=0)
        return ["simulate", "--config", str(cfg_path)]
    if case == "unconverged-analyze":  # no evaluation budget: the fit stops unconverged
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        monkeypatch.setattr(fitting, "MAX_ITER", 0)
        return analyze
    if case == "one-count-csv":  # a single count, without a sidecar
        counts = np.eye(500, dtype=int)[137]
        csv.write_text(AreaHistogram(np.linspace(-5.0, 120.0, 501), counts, 1).to_csv())
        return analyze
    if case == "no-probabilities":
        analysis.write_text(json.dumps({"error": "peak fit did not converge"}))
        return reconstruct
    if case == "strict-reconstruct":  # the detector matrix at 5 % efficiency is ill-conditioned
        write_config(cfg_path, source={"kind": "pdc_pairs", "cutoff": 20, "mean": 0.05},
                     detector={"eta": 0.05, "dark_mean": 0.0}, cutoff=20)
        analysis.write_text(json.dumps({"probabilities": [0.9, 0.06, 0.03, 0.01]}))
        return [*reconstruct, "--strict"]
    if case == "malformed-csv":
        csv.write_text("bin_center,count\n0.5,3\n1.5,2.5\n")
    return analyze  # "missing-histogram" writes no CSV


@pytest.mark.parametrize("case, code", [
    ("config", EXIT_CONFIG),
    ("unconverged-analyze", EXIT_FIT),
    ("one-count-csv", EXIT_FIT),
    ("no-probabilities", EXIT_FIT),
    ("strict-reconstruct", EXIT_NUMERIC),
    ("missing-histogram", EXIT_IO),
    ("malformed-csv", EXIT_RUNTIME),
])
def test_every_failure_prints_one_json_line(tmp_path, capsys, monkeypatch, case, code):
    # main alone turns a failure into its exit code, and each nonzero code
    # comes with exactly one JSON line on stderr that carries it
    argv = exit_case(case, tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == code
    if case == "one-count-csv":
        assert "too few counts" in json.loads(lines[0])["error"]
    if case == "unconverged-analyze":  # the report of the fit is written first
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["error"] == "peak fit did not converge" and not report["fit"]["converged"]
    if case == "strict-reconstruct":  # so are the outputs, with the warning recorded
        assert json.loads((tmp_path / "out" / "negativity.json").read_text())["warnings"]


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
        # the pump omits pairs_per_uW, so it takes DEFAULT_PAIRS_PER_UW
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
