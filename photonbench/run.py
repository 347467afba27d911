#!/usr/bin/env python3
"""Benchmark of the photonstats pipeline.

    python3 photonbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md next to this file):

    cli-chain   simulate, analyze, reconstruct and a short sweep at the 1 uW
                operating point, each command a fresh interpreter;
    pump-sweep  the sweep command in-process, 0.01-16 uW, 2e6 gates per power;
    fit-batch   analyze in-process on 100 fixed histograms drawn by the
                benchmark's own per-gate sampler.

The program is reached only through its documented contract: the argv of
photonstats.cli.main, the run-config JSON and the histogram CSV plus
sidecar. Every output is checked against reference.py, which shares no code
with photonstats. The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics (from tracer.py) with --trace 1.

Everything the benchmark writes goes under .photonbench/ at the repository
root, including a copy of src/ with its bytecode, which is the code run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".photonbench"

# Each run sets up afresh this many times, and splits its measuring time
# evenly between the set-ups; setup_s is the median over them.
SEGMENTS = 3
# import_s is the median over every fresh interpreter a run starts; the
# in-process workloads start this many extra import probes per segment.
IMPORT_PROBES = 2
# Children still running this long after start are killed, so that a run
# ends within its 180 s limit even if the program hangs.
DEADLINE_S = 165.0
# A fitted value may sit this many of its stated standard errors from the
# reference before the run is marked incorrect.
Z_TOL = 5.0
# Reconstructed P_n are held to this many of the counting-noise errors that
# reference.py propagates; the fit adds noise of its own on top of those.
REC_Z_TOL = 6.0

DETECTOR = {"eta": 0.67, "dark_mean": 4e-4, "gain": 10.0, "offset": 0.0, "sigma0": 1.0,
            "sigma_per_photon": 0.3, "adc_max": 120.0, "dark_after_loss": True}
COMB = f"{DETECTOR['offset']},{DETECTOR['gain']}"
BINS = 500
CUTOFF = 14

CLI_GATES = 1_000_000
CLI_SWEEP_POWERS = [0.3, 1.0, 3.0]
SWEEP_GATES = 2_000_000
SWEEP_POWERS = [0.01, 0.03, 0.3, 1.0, 3.0, 16.0]
WARMUP_GATES = 100_000
BATCH_SIZE = 100
BATCH_GATES = 100_000
# Fixed before any histogram was fitted; the batch does not depend on --seed,
# so the count of mislabelled histograms is the same in every run.
BATCH_SEED = 800
BATCH_WARMUP = 5

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "import_s": "s",
    "gates_per_s": "1/s", "histograms_per_s": "1/s",
}
IMPORTS = {"numpy": "numpy", "scipy.signal": "scipy_signal", "scipy.stats": "scipy_stats",
           "scipy.optimize": "scipy_optimize", "photonstats": "photonstats"}
PER_LAYER = {
    **{f"startup.import.{key}.s": "s" for key in IMPORTS.values()},
    "cli.main.self_s": "s",
    **{f"cli.process.{cmd}.s": "s" for cmd in ("simulate", "analyze", "reconstruct", "sweep")},
    "acquisition.simulate_gate_counts.s": "s",
    "acquisition.synthesize_histogram.s": "s",
    "acquisition.default_pairs_per_uw.s": "s",
    "acquisition.AreaHistogram.load.s": "s",
    "acquisition.gates": "count",
    "acquisition.array_bytes": "bytes",
    "fitting.detect_peaks.s": "s",
    "fitting.fit_peaks.s": "s",
    "fitting.areas_to_probabilities.s": "s",
    "fitting.peaks": "count",
    "fitting.peaks_on_comb": "count",
    "fitting.peaks_on_comb.ratio": "ratio",
    "nonclassical.gamma_significance.s": "s",
    "nonclassical.parity_test.s": "s",
    "channel.detector_matrix.s": "s",
    "channel.invert_channel.s": "s",
    "channel.cond": "1",
    "distributions.make_distribution.s": "s",
    "ioutil.write_text_atomic.s": "s",
    "ioutil.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "traced.wall_s": "s",
}

START = time.perf_counter()
LIVE: set[subprocess.Popen] = set()
# One BLAS thread: with OpenBLAS's default pool, a small least-squares fit
# sometimes stalls for 0.2-1 s instead of taking 0.04 s, which no median of a
# short run can absorb.
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1")
ENV.pop("PYTHONPATH", None)


class Child:
    """A worker.py process; records its wall time and its peak resident set."""

    def __init__(self, args, log: Path, *, importtime: bool = False):
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(BENCH / "worker.py"), *map(str, args)]
        self.log = log
        self.start = time.perf_counter()
        with open(log, "w") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                         cwd=ROOT, env=ENV)
        LIVE.add(self.proc)
        self.timer = threading.Timer(max(1.0, START + DEADLINE_S - time.perf_counter()),
                                     self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def line(self) -> tuple[str, float]:
        """Next line of the child's output, and the seconds since it was spawned."""
        text = self.proc.stdout.readline().strip()
        return text, time.perf_counter() - self.start

    def wait(self) -> str:
        """Rest of the output; sets rc, wall_s and rss_mb once the child has ended."""
        rest = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall_s = time.perf_counter() - self.start
        self.timer.cancel()
        self.proc.stdout.close()
        self.proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        LIVE.discard(self.proc)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return rest


def stop_children() -> None:
    for proc in list(LIVE):
        proc.kill()
        proc.wait()
        LIVE.discard(proc)


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds of the modules in IMPORTS, from -X importtime.

    A module loaded through scipy's lazy loader gets no line of its own; it
    then counts as the sum of its outermost submodules' lines.
    """
    entries = []  # (depth, name, cumulative seconds, parent index)
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append([len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6, -1])
    waiting: list[int] = []  # a module's line follows the lines of what it imported
    for j, entry in enumerate(entries):
        while waiting and entries[waiting[-1]][0] > entry[0]:
            entries[waiting.pop()][3] = j
        waiting.append(j)

    def within(name: str, module: str) -> bool:
        return name == module or name.startswith(module + ".")

    def outermost(module: str) -> float:
        total = 0.0
        for _, name, seconds, parent in entries:
            while parent >= 0 and not within(entries[parent][1], module):
                parent = entries[parent][3]
            if within(name, module) and parent < 0:
                total += seconds
        return total

    out = {}
    for module, key in IMPORTS.items():
        own = [seconds for _, name, seconds, _ in entries if name == module]
        out[f"startup.import.{key}.s"] = own[0] if own else outermost(module)
    return out


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return path


def run_config(path: Path, *, mean: float, powers, n_gates: int, seed: int, out: Path) -> Path:
    """A run config in the documented shape; pairs_per_uW is left to the program's calibration."""
    return write_json(path, {
        "schema_version": 1,
        "source": {"kind": "pdc_pairs", "cutoff": CUTOFF, "mean": mean},
        "detector": DETECTOR,
        "pump": {"powers": powers, "pair_statistics": "poissonian"},
        "n_gates": n_gates, "cutoff": CUTOFF, "seed": seed, "output_dir": str(out), "bins": BINS,
    })


class Run:
    """What one run gathers over its segments."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.op_s: list[list[float]] = []
        # largest resident set of the program's processes, one per segment
        self.rss_mb: list[float] = []
        self.startup: list[dict] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def wall_s(self) -> float:
        """One pass: the sum over its operations of each one's median time.

        Medians of each operation over the run's passes absorb the
        second-to-second changes in CPU speed of a shared machine better
        than the median of a few whole passes.
        """
        return math.fsum(statistics.median(times) for times in zip(*self.op_s))

    def result(self, gates_per_pass: int, histograms_per_pass: int) -> dict:
        wall = self.wall_s()
        if self.trace:
            names = set().union(*self.layers)
            layers = {k: statistics.median(p.get(k, 0.0) for p in self.layers) for k in names}
            startup = {k: statistics.median(s[k] for s in self.startup) for k in self.startup[0]}
            values = {**layers, **startup, "traced.wall_s": wall}
            peaks = values.get("fitting.peaks", 0.0)
            values["fitting.peaks_on_comb.ratio"] = (
                values.get("fitting.peaks_on_comb", 0.0) / peaks if peaks else 0.0)
            metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
        else:
            values = {
                "setup_s": statistics.median(self.setup_s),
                "wall_s": wall,
                # The least over segments: how glibc reuses freed memory makes
                # a pump-sweep worker peak at 154 MB instead of 140 MB in about
                # a third of processes, at random.
                "peak_rss_mb": min(self.rss_mb),
                "import_s": statistics.median(self.import_s),
                "gates_per_s": gates_per_pass / wall,
                "histograms_per_s": histograms_per_pass / wall,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def keep_measuring(op_s: list[list[float]], begin: float, budget: float) -> bool:
    """Start another pass while it is expected to end within the budget; always run one."""
    if not op_s:
        return True
    return time.perf_counter() - begin + statistics.fmean(map(sum, op_s)) <= budget


def import_probe(run: Run, src: Path, log: Path) -> None:
    """A fresh interpreter that imports photonstats and exits."""
    probe = Child([src, "probe"], log, importtime=run.trace)
    text, import_s = probe.line()
    probe.wait()
    run.check(text == "imported" and probe.rc == 0, f"import probe failed: see {log}")
    run.import_s.append(import_s)
    if run.trace:
        run.startup.append(parse_importtime(log.read_text()))


# ---------------------------------------------------------------- cli-chain

def cli_chain(seed: int, budget: float, run: Run, src: Path, out: Path) -> dict:
    mean = ref.calibrate_pairs_per_uw()
    det = (DETECTOR["eta"], DETECTOR["dark_mean"])
    gamma_ref = ref.gamma(ref.detected_pmf("pdc_pairs", mean, *det))
    sweep_ref = [ref.gamma(ref.detected_pmf("pdc_pairs", mean * p, *det)) for p in CLI_SWEEP_POWERS]
    # Error bars of the reconstruction: multinomial noise of the detected
    # frequencies carried through the inverse of the reference detector matrix.
    size = CUTOFF + 1
    source = ref.source_pmf("pdc_pairs", mean, size)
    f = ref.detected_pmf("pdc_pairs", mean, *det)[:size]
    inv = np.linalg.inv(ref.detector_matrix(*det, size))
    rec_sigma = np.sqrt(np.diag(inv @ (np.diag(f) - np.outer(f, f)) @ inv.T) / CLI_GATES)

    for seg in range(SEGMENTS):
        d = out / f"seg{seg}"
        t0 = time.perf_counter()
        config = run_config(d / "run.json", mean=mean, powers=CLI_SWEEP_POWERS,
                            n_gates=CLI_GATES, seed=seed, out=d)
        import_probe(run, src, d / "probe.log")
        run.setup_s.append(time.perf_counter() - t0)

        begin = time.perf_counter()
        seg_passes: list[list[float]] = []
        seg_rss: list[float] = []
        while keep_measuring(seg_passes, begin, budget / SEGMENTS):
            r = d / f"round{len(seg_passes)}"
            r.mkdir(parents=True)
            commands = {
                "simulate": ["simulate", "--config", config, "--out", r],
                "analyze": ["analyze", "--histogram", r / "histogram.csv", "--out", r],
                "reconstruct": ["reconstruct", "--analysis", r / "analysis.json",
                                "--config", config, "--out", r],
                "sweep": ["sweep", "--config", config, "--out", r],
            }
            times, layers = [], {}
            for name, argv in commands.items():
                trace_file = r / f"trace_{name}.json" if run.trace else "-"
                child = Child([src, "cli", trace_file, COMB, *argv], r / f"{name}.log")
                text, import_s = child.line()
                child.wait()
                times.append(child.wall_s)
                seg_rss.append(child.rss_mb)
                if text == "imported":
                    run.import_s.append(import_s)
                run.attempted += 1
                if child.rc != 0:
                    run.failed += 1
                    run.check(False, f"{name} exited {child.rc}: see {child.log}")
                elif run.trace:
                    spans = json.loads(Path(trace_file).read_text())[0]
                    for key, value in tracer.summarize(spans).items():
                        layers[key] = layers.get(key, 0.0) + value
                layers[f"cli.process.{name}.s"] = child.wall_s
            seg_passes.append(times)
            run.layers.append(layers)
            if not run.problems:
                check_cli_round(run, r, gamma_ref, sweep_ref, source, rec_sigma)
        run.op_s += seg_passes
        run.rss_mb.append(max(seg_rss))
    return run.result(gates_per_pass=CLI_GATES * (1 + len(CLI_SWEEP_POWERS)),
                      histograms_per_pass=1 + len(CLI_SWEEP_POWERS))


def read_sweep(path: Path) -> list[tuple[float, float, float, float]]:
    lines = path.read_text().split()
    if lines[0] != "power_uW,gamma,std_error,n_std":
        raise ValueError(f"unexpected sweep header in {path}")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def check_sweep(run: Run, path: Path, powers, gamma_refs) -> list[tuple]:
    rows = read_sweep(path)
    run.check([row[0] for row in rows] == list(powers), f"{path}: powers differ from the config")
    for (power, g, se, _), g_ref in zip(rows, gamma_refs):
        run.check(abs(g - g_ref) <= Z_TOL * se,
                  f"{path}: gamma {g:.4f} +- {se:.4f} at {power} uW, forward model {g_ref:.4f}")
    return rows


def check_cli_round(run: Run, r: Path, gamma_ref, sweep_ref, source, rec_sigma) -> None:
    report = json.loads((r / "analysis.json").read_text())["gamma_report"]
    g, se = report["gamma"], report["std_error"]
    run.check(g > ref.CLASSICAL_GAMMA_BOUND, f"{r}: gamma {g:.4f} not above the classical bound")
    run.check(abs(g - gamma_ref) <= Z_TOL * se,
              f"{r}: gamma {g:.4f} +- {se:.4f}, forward model {gamma_ref:.4f}")
    # The paper's even-odd oscillation: P1 of the pair source vanishes while
    # P0 and P2 follow the pair law. P3 and above are not checked: on about
    # 4 % of seeds fit_peaks splits a tail peak (n = 6 or 7), the rank labels
    # above it shift, and the inversion carries that into P3-P5.
    rows = (r / "reconstruction.csv").read_text().split()[1:]
    rec = np.array([float(row.split(",")[1]) for row in rows])
    for n in range(3):
        run.check(abs(rec[n] - source[n]) <= REC_Z_TOL * rec_sigma[n],
                  f"{r}: reconstructed P{n} = {rec[n]:.5f}, source law {source[n]:.5f} "
                  f"+- {rec_sigma[n]:.5f}")
    check_sweep(run, r / "sweep.csv", CLI_SWEEP_POWERS, sweep_ref)


# --------------------------------------------------------- in-process loops

def loop_segment(run: Run, src: Path, d: Path, t0: float, budget: float, warmup, one_pass) -> int:
    """Start a worker that warms up, then repeats one pass for ``budget`` seconds.

    Returns the number of passes run. Import probes follow the worker, so
    they count neither in the set-up nor in the measured passes.
    """
    spec = write_json(d / "spec.json", {
        "comb": COMB, "budget_s": budget,
        "warmup": [list(map(str, argv)) for argv in warmup],
        "pass": [list(map(str, argv)) for argv in one_pass],
    })
    trace_file = d / "trace.json" if run.trace else "-"
    worker = Child([src, "loop", trace_file, spec], d / "worker.log", importtime=run.trace)
    text, import_s = worker.line()
    ready, _ = worker.line()
    run.setup_s.append(time.perf_counter() - t0)
    run.import_s.append(import_s)
    lines = worker.wait().split("\n")
    if worker.rc != 0 or text != "imported" or ready != "ready":
        raise RuntimeError(f"worker failed with exit code {worker.rc}: see {worker.log}")
    result = json.loads(lines[-2] if lines[-1] == "" else lines[-1])
    run.op_s += result["op_s"]
    run.rss_mb.append(worker.rss_mb)
    for bad in result["bad"]:
        run.check(False, f"{' '.join(bad['argv'])} exited {bad['rc']}")
    if run.trace:
        run.startup.append(parse_importtime(worker.log.read_text()))
        run.layers += [tracer.summarize(spans) for spans in json.loads(trace_file.read_text())]
    for k in range(IMPORT_PROBES):
        import_probe(run, src, d / f"probe{k}.log")
    return len(result["op_s"])


def pump_sweep(seed: int, budget: float, run: Run, src: Path, out: Path) -> dict:
    det = (DETECTOR["eta"], DETECTOR["dark_mean"])
    per_uw = ref.calibrate_pairs_per_uw()
    gamma_refs = [ref.gamma(ref.detected_pmf("pdc_pairs", per_uw * p, *det)) for p in SWEEP_POWERS]
    for seg in range(SEGMENTS):
        d = out / f"seg{seg}"
        t0 = time.perf_counter()
        config = run_config(d / "run.json", mean=per_uw, powers=SWEEP_POWERS,
                            n_gates=SWEEP_GATES, seed=seed, out=d / "sweep")
        small = run_config(d / "warmup.json", mean=per_uw, powers=SWEEP_POWERS,
                           n_gates=WARMUP_GATES, seed=seed, out=d / "warmup")
        passes = loop_segment(run, src, d, t0, budget / SEGMENTS, [["sweep", "--config", small]],
                              [["sweep", "--config", config]])
        run.attempted += passes * len(SWEEP_POWERS)
        rows = check_sweep(run, d / "sweep" / "sweep.csv", SWEEP_POWERS, gamma_refs)
        gammas = [row[1] for row in rows]
        top = int(np.argmax(gammas))
        run.check(0 < top < len(gammas) - 1, f"{d}: gamma maximum at the edge of the sweep")
        n_std = rows[SWEEP_POWERS.index(1.0)][3]
        run.check(n_std >= 40.0, f"{d}: 1 uW point only {n_std:.1f} sigma above the bound")
    return run.result(gates_per_pass=SWEEP_GATES * len(SWEEP_POWERS),
                      histograms_per_pass=len(SWEEP_POWERS))


# ---------------------------------------------------------------- fit-batch

def batch_sources():
    """Poisson and pair sources over a range of means, as in the fit-fidelity criterion."""
    for t in range(BATCH_SIZE):
        if t % 2 == 0:
            yield t, "poisson", 0.5 + 0.02 * t
        else:
            yield t, "pdc_pairs", 0.1 + 0.01 * t


def write_batch(d: Path) -> dict[int, np.ndarray]:
    """Draw and write the histograms (CSV plus sidecar); return the true count frequencies."""
    det = {k: DETECTOR[k] for k in ("gain", "offset", "sigma0", "sigma_per_photon", "adc_max")}
    truth = {}
    for t, kind, mean in batch_sources():
        rng = np.random.default_rng([BATCH_SEED, t])
        counts = ref.sample_gates(rng, kind, mean, DETECTOR["eta"], DETECTOR["dark_mean"],
                                  BATCH_GATES)
        edges, hist, overflow = ref.digitize_areas(rng, counts, bins=BINS, **det)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows = "".join(f"{float(c)!r},{int(n)}\n" for c, n in zip(centers, hist))
        (d / f"h{t:03d}.csv").write_text("bin_center,count\n" + rows)
        write_json(d / f"h{t:03d}.json", {
            "schema_version": 1, "bin_edges": [float(e) for e in edges],
            "n_gates": BATCH_GATES, "overflow": overflow, "detector": DETECTOR,
        })
        truth[t] = np.bincount(counts) / BATCH_GATES
    return truth


def fit_batch(seed: int, budget: float, run: Run, src: Path, out: Path) -> dict:
    order = np.random.default_rng(seed).permutation(BATCH_SIZE)
    for seg in range(SEGMENTS):
        d = out / f"seg{seg}"
        t0 = time.perf_counter()
        d.mkdir(parents=True)
        truth = write_batch(d)
        argv = {t: ["analyze", "--histogram", d / f"h{t:03d}.csv", "--out", d / f"a{t:03d}"]
                for t in order}
        warmup = [["analyze", "--histogram", d / f"h{t:03d}.csv", "--out", d / "warmup"]
                  for t in order[:BATCH_WARMUP]]
        passes = loop_segment(run, src, d, t0, budget / SEGMENTS, warmup, list(argv.values()))
        off_comb = check_batch(run, d, truth)
        run.attempted += passes * BATCH_SIZE
        run.failed += passes * off_comb
    return run.result(gates_per_pass=BATCH_SIZE * BATCH_GATES, histograms_per_pass=BATCH_SIZE)


def check_batch(run: Run, d: Path, truth: dict[int, np.ndarray]) -> int:
    """Count the histograms with a peak off the detector comb, and check the rest.

    fit_peaks labels peaks by their rank, so a missed or split peak shifts
    every label above it; those fits count as failed operations. On the
    others, each fitted P_n must match the true per-gate frequency within
    Z_TOL stated errors, and at least 95 % within 3 (the program's own
    fit-fidelity criterion).
    """
    off_comb, z = 0, []
    for t, freq in truth.items():
        analysis = json.loads((d / f"a{t:03d}" / "analysis.json").read_text())
        fit = analysis["fit"]
        if not fit["converged"]:
            run.check(False, f"{d}/a{t:03d}: fit did not converge")
            continue
        peaks = fit["peaks"]
        if any(p["photon_number"] != round((p["center"] - DETECTOR["offset"]) / DETECTOR["gain"])
               for p in peaks):
            off_comb += 1
            continue
        total = sum(p["area"] for p in peaks)
        for p in peaks:
            n = p["photon_number"]
            expected = freq[n] if n < freq.size else 0.0
            z.append((analysis["probabilities"][n] - expected) / (p["area_std_error"] / total))
    z = np.abs(np.array(z))
    run.check(z.size > 0 and z.max() <= Z_TOL, f"{d}: a fitted P_n is {z.max():.1f} errors off")
    run.check(np.mean(z <= 3.0) >= 0.95, f"{d}: only {np.mean(z <= 3.0):.3f} within 3 errors")
    return off_comb


WORKLOADS = {"cli-chain": cli_chain, "pump-sweep": pump_sweep, "fit-batch": fit_batch}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "photonstats" / "__init__.py").is_file():
        print(f"no photonstats sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    src = out / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if not compileall.compile_dir(src, quiet=1):
        print("photonstats does not compile", file=sys.stderr)
        return 2

    run = Run(trace=bool(args.trace))
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, run, src, out)
    finally:
        stop_children()
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
