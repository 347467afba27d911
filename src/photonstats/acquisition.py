"""Model of the gated acquisition chain, drawn from its sufficient statistics.

Each laser gate draws a true photon number from the source, thins it through
the detector efficiency, adds Poisson dark counts, and turns the detected
count into one pulse-area sample: a Gaussian centered at offset + k * gain
whose width grows with k. Samples beyond the digitizer range are tallied as
overflow rather than binned.

Gates are independent and identically distributed, so the gates themselves
are never drawn. ``simulate_gate_counts`` draws the detected-count
frequencies as one multinomial over the detected-count law (the detector law
of :mod:`photonstats.channel` applied to the source law, cut where its upper
tail falls below ``_TAIL_MASS``), and ``synthesize_histogram`` the areas of
the gates with k counts as one multinomial over the bins (row k of
``bin_mass``); each of the two draws has its own stream seeded by (seed,
stream tag). A caller that needs only the histogram draws it as one
multinomial over the composed area law of one gate (``_cell_laws``), which
has the same distribution. Either way the cost depends on the number of
photon numbers and bins, not on the number of gates, and outputs are
bit-reproducible for a given seed.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .channel import _check_detector_law, _detect
from .distributions import (SourceSpec, _check_pair_statistics, _check_resolvable, _comb_cells,
                            _source_pmf)
from .ioutil import SCHEMA_VERSION, csv_text, real_number, whole_number

_COUNT_STREAM = 0
_AREA_STREAM = 1
# Photon-number windows tried, in order, for the detected-count law; the first
# in whose lower half the law's cut falls (its upper half holds less than
# _TAIL_MASS) is used. They do not depend on any run or reconstruction cutoff.
_WINDOWS = (64, 128, 256, 512, 1024)
_TAIL_MASS = 1e-15
# Largest deviation, relative to the bin width, of a sidecar-less CSV's center
# spacings from its first one, and of a CSV's centers from its sidecar's midpoints.
UNIFORM_BIN_RTOL = 1e-6
# The most gates one multinomial draw takes: its trial count is a C long.
MAX_GATES = 2**63 - 1
# Mean pairs per gate per microwatt when a pump omits pairs_per_uW: the
# Poissonian pair mean whose one-count probability, through efficiency 0.67
# and dark mean 4e-4, is the 0.0818 measured at 1 uW. There is no absolute
# photon-flux calibration, so the measured operating point anchors the pump.
DEFAULT_PAIRS_PER_UW = 0.22529867576686452
HISTOGRAM_CSV_HEADER = "bin_center,count"


@dataclass(frozen=True)
class DetectorModel:
    """Efficiency, dark counts, and pulse-area response of the detector chain.

    The pulse area for k detected photons is Gaussian with mean
    offset + k * gain and standard deviation sqrt(sigma0^2 + k * sigma_per_photon^2).
    ``adc_max`` is the digitizer saturation point: larger areas are lost to
    overflow.
    """

    eta: float = 0.67
    dark_mean: float = 4e-4
    gain: float = 10.0
    offset: float = 0.0
    sigma0: float = 1.0
    sigma_per_photon: float = 0.3
    adc_max: float = 120.0
    dark_after_loss: bool = True

    def __post_init__(self):
        for name in ("eta", "dark_mean", "gain", "offset", "sigma0", "sigma_per_photon",
                     "adc_max"):
            real_number(name, getattr(self, name))
        if not isinstance(self.dark_after_loss, bool):
            raise ValueError(f"dark_after_loss must be true or false, got {self.dark_after_loss!r}")
        _check_detector_law(self.eta, self.dark_mean)
        if self.gain <= 0:
            raise ValueError(f"gain must be positive, got {self.gain}")
        if self.sigma0 <= 0 or self.sigma_per_photon < 0:
            raise ValueError("peak widths must be positive (sigma0 > 0, sigma_per_photon >= 0)")
        if self.adc_max <= self.offset:
            raise ValueError("adc_max must exceed the pedestal offset")

    def peak_center(self, k) -> np.ndarray | float:
        return self.offset + np.asarray(k) * self.gain

    def peak_width(self, k) -> np.ndarray | float:
        return np.sqrt(self.sigma0**2 + np.asarray(k) * self.sigma_per_photon**2)

    def check_resolvable(self, cutoff: int) -> None:
        """Require the peaks up to ``cutoff`` to separate (``_check_resolvable``)."""
        _check_resolvable(self.gain, float(self.peak_width(cutoff)), cutoff)


@dataclass(frozen=True, eq=False)
class AreaHistogram:
    """Binned pulse-area counts from ``n_gates`` gates plus the overflow tally.

    ``detector`` is the pulse-area response the histogram was recorded with,
    when it is known (a simulated histogram, or a sidecar that echoes it).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_gates: int
    overflow: int = 0
    detector: DetectorModel | None = None

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if not np.isfinite(edges).all():
            raise ValueError("bin edges must be finite")
        if edges.ndim != 1 or edges.size < 2 or not (np.diff(edges) > 0).all():
            raise ValueError("bin edges must be a strictly increasing 1-D sequence")
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts length must be number of bins")
        if np.any(counts < 0):
            raise ValueError("bin counts must be nonnegative")
        if self.overflow < 0:
            raise ValueError(f"overflow must be nonnegative, got {self.overflow}")
        if int(counts.sum()) + self.overflow > self.n_gates:
            raise ValueError("binned counts plus overflow exceed the number of gates")
        edges = edges.copy()
        counts = counts.copy()
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def to_csv(self) -> str:
        return csv_text(HISTOGRAM_CSV_HEADER, zip(self.bin_centers.tolist(), self.counts.tolist()))

    def sidecar_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "bin_edges": [float(e) for e in self.bin_edges],
            "n_gates": self.n_gates,
            "overflow": self.overflow,
        }
        if self.detector is not None:
            d["detector"] = asdict(self.detector)
        return d

    @classmethod
    def from_csv(cls, text: str, sidecar: dict | None = None) -> "AreaHistogram":
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != HISTOGRAM_CSV_HEADER:
            raise ValueError(f"expected CSV header {HISTOGRAM_CSV_HEADER!r}")
        if len(lines) < 2:
            raise ValueError("the histogram CSV has no rows below its header")
        rows = np.loadtxt(lines[1:], dtype=[("center", "f8"), ("count", "i8")],
                          delimiter=",", comments=None, ndmin=1)
        centers, counts = rows["center"], rows["count"]
        if sidecar is not None:
            try:
                edges = np.asarray(sidecar["bin_edges"], dtype=np.float64)
                n_gates = whole_number("sidecar n_gates", sidecar["n_gates"])
                overflow = whole_number("sidecar overflow", sidecar.get("overflow", 0))
                detector = DetectorModel(**sidecar["detector"]) if "detector" in sidecar else None
            except KeyError as exc:
                raise ValueError(f"the histogram sidecar has no {exc}") from exc
            except (AttributeError, TypeError) as exc:
                raise ValueError(f"malformed histogram sidecar: {exc}") from exc
            hist = cls(edges, counts, n_gates, overflow, detector)
            off = np.abs(centers - hist.bin_centers)
            if not (off <= UNIFORM_BIN_RTOL * np.diff(hist.bin_edges)).all():
                raise ValueError("the CSV's bin centers are not the midpoints "
                                 "of the sidecar's bin_edges")
            return hist
        # No sidecar (e.g. instrument data): require uniform bins, assume no overflow.
        if centers.size < 2:
            raise ValueError("cannot infer bin edges from fewer than two bins")
        width = centers[1] - centers[0]
        if np.any(np.abs(np.diff(centers) - width) > UNIFORM_BIN_RTOL * abs(width)):
            raise ValueError(
                "bin centers are not evenly spaced; a CSV with non-uniform bins "
                "needs a sidecar JSON with its bin_edges"
            )
        edges = np.concatenate([centers - width / 2.0, [centers[-1] + width / 2.0]])
        return cls(edges, counts, n_gates=int(counts.sum()), overflow=0)

    @classmethod
    def load(cls, csv_path: str | Path, sidecar_path: str | Path) -> "AreaHistogram":
        import json

        text = Path(csv_path).read_text()
        try:
            sidecar = json.loads(Path(sidecar_path).read_text())
        except FileNotFoundError:  # no sidecar: the CSV alone
            sidecar = None
        return cls.from_csv(text, sidecar)


@dataclass(frozen=True)
class PumpModel:
    """Pump powers to sweep and the power-to-pair-rate calibration."""

    powers: tuple[float, ...]
    pairs_per_uW: float | None = None
    pair_statistics: str = "poissonian"

    def __post_init__(self):
        _check_pair_statistics(self.pair_statistics)
        object.__setattr__(self, "powers", tuple(real_number("pump powers", p) for p in self.powers))
        if not self.powers or any(p <= 0 for p in self.powers):
            raise ValueError("pump powers must be a nonempty list of positive values")
        if self.pairs_per_uW is None:
            object.__setattr__(self, "pairs_per_uW", DEFAULT_PAIRS_PER_UW)
        if real_number("pairs_per_uW", self.pairs_per_uW) <= 0:
            raise ValueError(f"pairs_per_uW must be positive, got {self.pairs_per_uW}")

    def mean_pairs(self, power_uw: float) -> float:
        return self.pairs_per_uW * power_uw


def _detected_count_law(source: SourceSpec, det: DetectorModel) -> np.ndarray:
    """Probabilities of 0, 1, 2, ... detected counts in one gate: the detector
    law applied to the source law, cut after the last count whose upper tail
    holds at least ``_TAIL_MASS`` and renormalised. It is taken on the first
    window in whose lower half that cut falls, so the law is effectively
    untruncated and off the uncut law by at most about ``_TAIL_MASS``."""
    for window in _WINDOWS:
        try:
            p = _source_pmf(source, window)
        except ValueError:  # a Fock number above the window, or mass lost beyond it
            continue
        f = _detect(p, det.eta, det.dark_mean, det.dark_after_loss)
        cut = np.count_nonzero(np.cumsum(f[::-1])[::-1] >= _TAIL_MASS)
        if cut <= window // 2:
            return f[:cut] / f[:cut].sum()
    raise ValueError(f"the detected-count law does not fit in {_WINDOWS[-1]} photons")


def _check_gates(n_gates: int) -> None:
    """Refuse a gate count that one multinomial draw cannot take."""
    if n_gates < 1:
        raise ValueError(f"n_gates must be >= 1, got {n_gates}")
    if n_gates > MAX_GATES:
        raise ValueError(f"n_gates must be at most {MAX_GATES}, got {n_gates}")


def simulate_gate_counts(
    source: SourceSpec,
    det: DetectorModel,
    n_gates: int,
    seed: int,
) -> np.ndarray:
    """Detected-count frequencies over ``n_gates`` gates: entry k is the number
    of gates with k detected counts, drawn as one multinomial.

    Each photon survives independently with probability eta and Poisson(dark_mean)
    dark counts are added per gate (before thinning if ``dark_after_loss=False``).
    The source law is not truncated at ``source.cutoff``; the entries sum to
    ``n_gates``.
    """
    _check_gates(n_gates)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng([seed, _COUNT_STREAM])
    return rng.multinomial(n_gates, _detected_count_law(source, det))


@functools.lru_cache(maxsize=8)
def _mass_block(gain: float, offset: float, sigma0: float, sigma_per_photon: float,
                edges_bytes: bytes, n: int) -> np.ndarray:
    """Rows 0..n-1 of ``bin_mass`` for one pulse-area response and one set of
    bin edges (their float64 bytes), read-only: the masses of
    ``_comb_cells`` for teeth 0..n-1. The last eight are kept."""
    k = np.arange(n)
    _, _, block = _comb_cells(offset + k * gain, np.sqrt(sigma0**2 + k * sigma_per_photon**2),
                              np.frombuffer(edges_bytes, dtype=np.float64))
    block.setflags(write=False)
    return block


def bin_mass(det: DetectorModel, edges: np.ndarray, n: int) -> np.ndarray:
    """Probability that a gate with k detected counts puts its pulse area in
    each bin of ``edges``, one row for each k in 0..n-1, n a nonnegative
    integer.

    Row k holds the Gaussian mass of each bin for peak k, with the mass below
    the range clipped into the first bin, and one last entry for the overflow
    above the last edge, so every row sums to one: the cell law of
    ``_comb_cells``, which the fit of an unknown comb shares.

    The rows depend only on the pulse-area response (gain, offset, sigma0,
    sigma_per_photon), the edges and n, so the result is the shared
    read-only block kept for them, not a copy; the blocks of the last eight
    are kept.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    edges = np.asarray(edges, dtype=np.float64)
    return _mass_block(det.gain, det.offset, det.sigma0, det.sigma_per_photon,
                       edges.tobytes(), int(n))


def _area_edges(det: DetectorModel, bins: int) -> np.ndarray:
    """The ``bins + 1`` edges of a simulated histogram: [offset - 5 sigma0,
    adc_max] cut into equal bins."""
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    return np.linspace(det.offset - 5.0 * det.sigma0, det.adc_max, bins + 1)


def _cell_laws(laws, det: DetectorModel, edges: np.ndarray) -> np.ndarray:
    """The area law of one gate for each detected-count law in ``laws``, one
    row each: the probability that the gate's pulse area falls in each bin
    of ``edges``, and last above them (the overflow).

    The laws, cut as ``_detected_count_law`` cuts them, are stacked and
    composed with the bin masses in one ``bin_mass`` call and one matrix
    product. Gates are independent, so one multinomial draw over a row has
    the distribution of the detected counts drawn first and each count's
    gates split over the bins. No cell exceeds 1, so a row whose mass rounds
    above 1 still passes numpy's multinomial check.
    """
    stacked = np.zeros((len(laws), max(map(len, laws), default=0)))
    for row, law in zip(stacked, laws):
        row[: law.size] = law
    cells = stacked @ bin_mass(det, edges, stacked.shape[1])
    return np.minimum(cells, 1.0, out=cells)


def synthesize_histogram(
    frequencies: np.ndarray,
    det: DetectorModel,
    bins: int,
    seed: int,
) -> AreaHistogram:
    """Pulse areas binned over [offset - 5 sigma0, adc_max] for the gates whose
    detected-count frequencies are given (entry k: gates with k counts).

    The gates with k counts split over the bins as one multinomial whose cell
    probabilities are the Gaussian mass of each bin. Areas above adc_max are
    tallied as overflow and the rare area below the range is clipped into the
    first bin, so binned counts plus overflow always equal the number of gates.
    The histogram carries ``det`` as its detector.
    """
    edges = _area_edges(det, bins)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    frequencies = np.asarray(frequencies, dtype=np.int64)
    k = np.flatnonzero(frequencies)
    mass = bin_mass(det, edges, k[-1] + 1 if k.size else 0)[k]
    rng = np.random.default_rng([seed, _AREA_STREAM])
    draws = rng.multinomial(frequencies[k], mass).sum(axis=0)
    return AreaHistogram(edges, draws[:-1], n_gates=int(frequencies.sum()),
                         overflow=int(draws[-1]), detector=det)
