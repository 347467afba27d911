"""Command-line pipeline: simulate, analyze, reconstruct, sweep.

``analyze`` reads a histogram CSV (and its JSON sidecar, when there is one)
and writes into ``--out``; every other command reads a JSON run config and
takes an ``--out`` override, and ``simulate`` and ``sweep`` a ``--seed``
override too. Outputs are deterministic for a fixed (config, seed) pair and
all file writes are atomic.

The analysis chain itself is written once here, as plain functions the
commands and the tests share: ``analyze_histogram`` (histogram -> comb
fit -> P_n -> gamma, parity and eta), ``reconstruct``
(measured P_n -> detector-matrix inversion) and ``pump_sweep``. Both fit
stacks of bin counts (``_comb_fits``); ``AreaHistogram`` is only the
CSV-plus-sidecar format that ``simulate`` writes and ``analyze`` reads.

Exit codes, chosen by ``main`` alone from what a command raised, each
nonzero one with one JSON line on stderr: 0 success, 2 config error, 3 fit
failure, 4 numerical warning escalated by ``reconstruct --strict``, 5 I/O
failure (an input file that cannot be read or an output that cannot be
written), 6 runtime failure (any other ValueError a command meets while it
runs, such as a detected-count law too wide to simulate or a malformed
histogram CSV). Once ``analyze`` has loaded its histogram, every ValueError
it meets is a fit failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .acquisition import (
    AreaHistogram,
    DetectorModel,
    PumpModel,
    _SWEEP_STREAM,
    _area_edges,
    _cell_laws,
    _check_gates,
    _check_seed,
    _detected_count_law,
    bin_mass,
    simulate_gate_counts,
    synthesize_histogram,
)
from .channel import (
    ConditionNumberWarning,
    NegativityReport,
    detector_matrix,
    invert_channel,
    truncation_diagnostics,
)
from .distributions import PhotonDistribution, SourceSpec, _teeth_in_range
from .fitting import PeakFitResult, _fit_unknown_comb, areas_to_probabilities, fit_comb
from .ioutil import SCHEMA_VERSION, csv_text, dumps_canonical, whole_number, write_text_atomic
from .nonclassical import (
    GammaReport,
    ParityReport,
    eta_from_ratio,
    gamma_significance,
    parity_test,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_NUMERIC = 4
EXIT_IO = 5
EXIT_RUNTIME = 6


class ConfigError(ValueError):
    """Run configuration is missing, malformed, or inconsistent."""


class FitError(ValueError):
    """A histogram could not be fitted into probabilities, or an analysis
    holds none."""


@dataclass(frozen=True)
class RunConfig:
    """Fully reproducible description of one pipeline run."""

    source: SourceSpec
    detector: DetectorModel
    n_gates: int
    cutoff: int
    seed: int
    output_dir: Path
    pump: PumpModel | None = None
    bins: int = 500

    def __post_init__(self):
        _check_gates(self.n_gates)
        _check_seed(self.seed)
        if self.bins < 10:
            raise ConfigError(f"bins must be >= 10, got {self.bins}")
        if self.source.cutoff != self.cutoff:
            raise ConfigError(
                f"source cutoff {self.source.cutoff} does not match run cutoff {self.cutoff}"
            )
        self.detector.check_resolvable(self.cutoff)
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        """The one config loader: each section is passed whole to its
        dataclass, so a missing or unknown key is a ConfigError. Only an
        omitted or null ``pump`` means no pump. A section or mixture
        component that is not a JSON object, a list field (pump powers,
        mixture weights and components) that is not a list, and an
        ``output_dir`` that is not a string are ConfigErrors that name the
        field. An unknown top-level key is a ConfigError too;
        ``schema_version`` is accepted with any value."""
        unknown = set(d) - {f.name for f in fields(cls)} - {"schema_version"}
        if unknown:
            raise ConfigError(f"invalid run config: unknown keys {sorted(unknown)}")
        try:
            pump = d.get("pump")
            return cls(
                source=_source_spec(d["source"], "source"),
                detector=DetectorModel(**_section(d["detector"], "detector")),
                pump=None if pump is None else PumpModel(**_section(pump, "pump", ("powers",))),
                n_gates=whole_number("n_gates", d["n_gates"]),
                cutoff=whole_number("cutoff", d["cutoff"]),
                seed=whole_number("seed", d["seed"]),
                output_dir=Path(_typed(d.get("output_dir", "."), str, "output_dir")),
                bins=whole_number("bins", d.get("bins", cls.bins)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid run config: {exc}") from exc


_JSON_TYPES = {dict: "a JSON object", list: "a list", str: "a string"}


def _typed(value, kind: type, name: str):
    """``value`` if it is a ``kind``, else a ConfigError that names the field
    ``name`` and what it must be."""
    if not isinstance(value, kind):
        raise ConfigError(f"invalid run config: {name} must be {_JSON_TYPES[kind]}, "
                          f"got {type(value).__name__}")
    return value


def _section(section, name: str, lists: tuple[str, ...] = ()) -> dict:
    """A config section or mixture component, which must be a JSON object.
    Each of its fields named in ``lists`` must be a list, and is left out
    when null."""
    _typed(section, dict, name)
    for key in lists:
        if section.get(key) is not None:
            _typed(section[key], list, f"{name} {key}")
    return {key: value for key, value in section.items() if value is not None or key not in lists}


def _source_spec(section, name: str) -> SourceSpec:
    """SourceSpec(**section), with a mixture's components built the same way."""
    section = _section(section, name, ("weights", "components"))
    components = section.get("components")
    if components is not None:
        section = dict(section, components=tuple(
            _source_spec(c, f"{name} components[{i}]") for i, c in enumerate(components)))
    return SourceSpec(**section)


def load_config(path: str | Path, seed: int | None = None, out: str | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"invalid run config: the config must be a JSON object, "
                          f"got {type(raw).__name__}")
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["output_dir"] = out
    return RunConfig.from_json_dict(raw)


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": str(exc), "type": type(exc).__name__, "exit_code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


@dataclass(frozen=True)
class Analysis:
    """What one pulse-area histogram yields.

    Only ``fit`` is set when the peak fit did not converge; otherwise the
    fitted areas are normalized into ``distribution`` and every report is
    filled in.
    """

    fit: PeakFitResult
    distribution: PhotonDistribution | None = None
    event_counts: np.ndarray | None = None
    gamma_report: GammaReport | None = None
    parity_report: ParityReport | None = None
    eta_estimate: float | None = None


def analyze_histogram(hist: AreaHistogram) -> Analysis:
    """Fit the histogram on its detector's comb, normalize the areas, and
    test classicality.

    The histogram is the CSV-plus-sidecar format; its counts are fitted by
    ``_comb_fits``, as a stack of one, on the comb of the detector it
    carries. A histogram that does not carry its detector (instrument data
    with no detector echo) first has the comb fitted to its counts
    (``_fit_unknown_comb``), with tooth 0 at the lowest tooth holding an
    event; the fit has converged only if both fits have, and a fitted comb
    whose teeth are not resolvable up to the last reported one (noise, not
    photon-number peaks) raises ValueError. Warnings are left to the caller.
    """
    converged, det = True, hist.detector
    if det is None:
        offset, gain, sigma0, per_photon, converged = _fit_unknown_comb(hist)
        det = DetectorModel(gain=gain, offset=offset, sigma0=sigma0, sigma_per_photon=per_photon,
                            adc_max=float(hist.bin_edges[-1]))
    (fit,) = _comb_fits(hist.counts[None], det, hist.bin_edges)
    if hist.detector is None:
        det.check_resolvable(fit.peaks[-1].photon_number)
    return _analysis(fit if converged else replace(fit, converged=False))


def _analysis(fit: PeakFitResult) -> Analysis:
    """What a comb fit yields: only the fit when it did not converge;
    otherwise its areas normalized, and gamma (from the rounded event counts
    of the one-, two- and three-count peaks), parity and the efficiency
    estimate (None when P1 is zero)."""
    if not fit.converged:
        return Analysis(fit)
    dist, event_counts = areas_to_probabilities(fit)
    p = dist.probs
    return Analysis(
        fit,
        dist,
        event_counts,
        gamma_significance(tuple(event_counts[1:4])),
        parity_test(dist),
        eta_from_ratio(float(p[1]), float(p[2])) if p[1] > 0 else None,
    )


def _comb_fits(counts: np.ndarray, det: DetectorModel, edges: np.ndarray):
    """The comb fit of each row of ``counts``, in order: a 2-D stack of
    in-range bin counts on the bins of ``edges``, recorded on the comb of
    ``det``. The stack is fitted whole by ``fit_comb``, on every tooth whose
    center lies in the range, with each row's Fisher errors. Each fit is
    yielded in its turn, so an empty row raises after the fits before it; a
    stack of no rows takes no EM iteration and yields nothing."""
    counts = np.asarray(counts, dtype=np.float64)
    mass = bin_mass(det, edges, _teeth_in_range(edges[-1], det.offset, det.gain))[:, :-1]
    for row, fit in zip(counts, fit_comb(counts, mass, det)):
        if not row.any():
            raise ValueError("empty histogram: no counts to fit")
        yield fit


def reconstruct(probs, det: DetectorModel, cutoff: int) -> tuple[np.ndarray, NegativityReport]:
    """Invert the detector matrix on measured probabilities.

    ``probs`` is zero-padded (or cut) to photon numbers 0..cutoff; anything
    but a nonempty 1-D sequence of numbers raises ValueError. Returns the
    reconstruction and its negativity diagnostics. Warnings are left to the
    caller.
    """
    probs = np.asarray(probs)
    if probs.ndim != 1 or probs.size == 0 or probs.dtype.kind not in "iuf":
        raise ValueError("probabilities must be a 1-D list of numbers, at least one, "
                         f"got {probs.tolist()!r}")
    probs = probs.astype(np.float64)
    n = cutoff + 1
    padded = np.zeros(n)
    padded[: min(probs.size, n)] = probs[:n]
    matrix = detector_matrix(
        det.eta, det.dark_mean, cutoff, dark_after_loss=det.dark_after_loss
    )
    reconstructed = invert_channel(matrix, PhotonDistribution(padded))
    return reconstructed, truncation_diagnostics(reconstructed)


def pump_sweep(
    pump: PumpModel,
    det: DetectorModel,
    n_gates: int,
    seed: int,
    *,
    cutoff: int,
    bins: int,
) -> list[tuple[float, GammaReport]]:
    """Run the full simulate-fit-analyze pipeline at each pump power.

    Returns one (power, GammaReport) row per entry of ``pump.powers``. Each
    power's counts are one multinomial draw of ``n_gates`` gates over the
    area law of one gate (``acquisition._cell_laws``), from its own stream
    seeded by (seed, ``_SWEEP_STREAM``, index), so they depend on the seed
    and its index alone. The detected-count laws are taken in power order up
    to the first that raises, every power's counts are drawn from them, and
    the drawn rows, their overflow cell cut off, go to ``_comb_fits`` as one
    stack; no histogram is built. The first power that fails, in power
    order, raises: FitError if its peak fit does not converge, else the
    error that stopped it.
    """
    det.check_resolvable(cutoff)
    _check_gates(n_gates)
    _check_seed(seed)
    laws: list[np.ndarray] = []
    failure = None
    for power in pump.powers:
        try:
            source = SourceSpec(
                kind="pdc_pairs",
                cutoff=cutoff,
                mean=pump.mean_pairs(power),
                pair_statistics=pump.pair_statistics,
            )
            laws.append(_detected_count_law(source, det))
        except ValueError as exc:  # raised after the powers before it
            failure = exc
            break
    edges = _area_edges(det, bins)
    cells = _cell_laws(laws, det, edges)
    counts = np.empty(cells.shape)
    for i, row in enumerate(cells):
        counts[i] = np.random.default_rng([seed, _SWEEP_STREAM, i]).multinomial(n_gates, row)
    rows: list[tuple[float, GammaReport]] = []
    for power, fit in zip(pump.powers, _comb_fits(counts[:, :-1], det, edges)):
        analysis = _analysis(fit)
        if analysis.gamma_report is None:
            raise FitError(f"peak fit did not converge at {power!r} uW")
        rows.append((power, analysis.gamma_report))
    if failure is not None:
        raise failure
    return rows


def sweep_csv(rows: list[tuple[float, GammaReport]]) -> str:
    """The plot-ready sweep table: power_uW, gamma, std_error, n_std."""
    return csv_text("power_uW,gamma,std_error,n_std",
                    ((power, rep.gamma, rep.std_error, rep.n_std_above_classical)
                     for power, rep in rows))


def cmd_simulate(args: argparse.Namespace) -> None:
    """Simulate gates, synthesize the pulse-area histogram, write CSV + JSON."""
    config = load_config(args.config, args.seed, args.out)
    frequencies = simulate_gate_counts(config.source, config.detector, config.n_gates, config.seed)
    hist = synthesize_histogram(frequencies, config.detector, config.bins, config.seed)

    out = config.output_dir
    write_text_atomic(out / "histogram.csv", hist.to_csv())
    write_text_atomic(out / "histogram.json", dumps_canonical(hist.sidecar_dict()))

    summary = {
        "schema_version": SCHEMA_VERSION,
        "n_gates": config.n_gates,
        "seed": config.seed,
        "detected_count_frequencies": {
            str(k): int(n) for k, n in enumerate(frequencies) if n > 0
        },
        "source": config.source,
        "detector": config.detector,
    }
    write_text_atomic(out / "gate_counts.json", dumps_canonical(summary))


def cmd_analyze(args: argparse.Namespace) -> None:
    """Fit the histogram, derive probabilities and classicality reports. Once
    the histogram has loaded, every ValueError is a FitError, and a fit that
    did not converge raises one after its report is written."""
    hist = AreaHistogram.load(args.histogram, args.histogram.with_suffix(".json"))
    try:
        with warnings.catch_warnings(record=True) as caught:
            result = analyze_histogram(hist)
    except ValueError as exc:
        raise FitError(str(exc)) from exc

    report = {
        "schema_version": SCHEMA_VERSION,
        "histogram": str(args.histogram),
        "n_gates": hist.n_gates,
        "overflow": hist.overflow,
        "fit": result.fit,
        "warnings": [str(w.message) for w in caught],
    }
    if result.distribution is None:
        report["error"] = "peak fit did not converge"
        write_text_atomic(args.out / "analysis.json", dumps_canonical(report))
        raise FitError(report["error"])

    report.update(
        {
            "probabilities": [float(v) for v in result.distribution.probs],
            "event_counts": [int(c) for c in result.event_counts],
            "gamma_report": result.gamma_report,
            "parity_report": result.parity_report,
            "eta_estimate": result.eta_estimate,
        }
    )
    write_text_atomic(args.out / "analysis.json", dumps_canonical(report))


def cmd_reconstruct(args: argparse.Namespace) -> None:
    """Invert the detector matrix against measured probabilities. An analysis
    without probabilities raises FitError; with ``--strict``, the first
    recorded warning is raised once the outputs are written."""
    config = load_config(args.config, out=args.out)
    analysis = json.loads(args.analysis.read_text())
    if not isinstance(analysis, dict):
        raise ValueError(f"{args.analysis} is not an analysis: it must hold a JSON object")
    if "probabilities" not in analysis:
        reason = analysis.get("error", "no probabilities")
        raise FitError(f"{args.analysis} holds no probabilities: {reason}")
    det = config.detector
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConditionNumberWarning)
        reconstructed, diag = reconstruct(analysis["probabilities"], det, config.cutoff)

    out = config.output_dir
    write_text_atomic(out / "reconstruction.csv",
                      csv_text("n,probability", enumerate(reconstructed.tolist())))
    report = {
        "schema_version": SCHEMA_VERSION,
        "analysis": str(args.analysis),
        "eta": det.eta,
        "dark_mean": det.dark_mean,
        "cutoff": config.cutoff,
        "negativity": diag,
        "warnings": [str(w.message) for w in caught],
    }
    write_text_atomic(out / "negativity.json", dumps_canonical(report))
    if args.strict and caught:
        raise caught[0].message


def cmd_sweep(args: argparse.Namespace) -> None:
    """Run the pipeline across pump powers and write the trend CSV."""
    config = load_config(args.config, args.seed, args.out)
    if config.pump is None:
        raise ConfigError("sweep requires a pump section in the config")
    rows = pump_sweep(
        config.pump,
        config.detector,
        config.n_gates,
        config.seed,
        cutoff=config.cutoff,
        bins=config.bins,
    )
    write_text_atomic(config.output_dir / "sweep.csv", sweep_csv(rows))


def _add_common(sub: argparse.ArgumentParser, func, *, seed: bool = False) -> None:
    """A subcommand that runs ``func`` on a run config: --config and --out,
    plus --seed for a command that draws random numbers."""
    sub.set_defaults(func=func)
    sub.add_argument("--config", type=Path, required=True, help="JSON run configuration")
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", type=str, default=None, help="override the output directory")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every parse_args call
    fills a fresh namespace, so nothing carries over between calls of main.
    Each subcommand's ``func`` runs it."""
    parser = argparse.ArgumentParser(
        prog="photonstats",
        description="Simulate and analyze photon-number statistics of a pulsed pair source",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("simulate", help="simulate gates and write the histogram"),
                cmd_simulate, seed=True)

    p_an = subs.add_parser("analyze", help="fit a histogram into probabilities and reports")
    p_an.set_defaults(func=cmd_analyze)
    p_an.add_argument("--histogram", type=Path, required=True, help="histogram CSV to analyze")
    p_an.add_argument("--out", type=Path, default=Path("."),
                      help="output directory (default: the current one)")

    p_re = subs.add_parser("reconstruct", help="invert the detector model on an analysis")
    p_re.add_argument("--analysis", type=Path, required=True, help="analysis JSON to invert")
    _add_common(p_re, cmd_reconstruct)
    p_re.add_argument("--strict", action="store_true",
                      help="escalate numerical warnings to exit code 4")

    _add_common(subs.add_parser("sweep", help="run the pipeline across pump powers"),
                cmd_sweep, seed=True)
    return parser


def main(argv=None) -> int:
    """Run one command. The one place where its outcome becomes an exit code,
    and a failure one JSON line on stderr."""
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        return _emit_error(exc, EXIT_CONFIG)
    except FitError as exc:
        return _emit_error(exc, EXIT_FIT)
    except Warning as exc:
        return _emit_error(exc, EXIT_NUMERIC)
    except OSError as exc:
        return _emit_error(exc, EXIT_IO)
    except ValueError as exc:
        return _emit_error(exc, EXIT_RUNTIME)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
