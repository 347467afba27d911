import numpy as np
import pytest


def random_physical_distribution(rng, cutoff, tail_decay=0.55):
    """Random normalized physical distribution with geometrically damped tail.

    The damping (plus a hard cap on the top entry) keeps mass away from the
    cutoff, so little of it leaks past the cutoff through forward channels
    with dark counts.
    """
    while True:
        raw = rng.dirichlet(np.ones(cutoff + 1)) * tail_decay ** np.arange(cutoff + 1)
        p = raw / raw.sum()
        if p[-1] <= 0.01:
            return p


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def _true_counts(spec, size, rng):
    if spec.kind == "poisson":
        return rng.poisson(spec.mean, size)
    if spec.kind == "pdc_pairs" and spec.pair_statistics == "poissonian":
        return 2 * rng.poisson(spec.mean, size)
    if spec.kind == "pdc_pairs":  # thermal: geometric on {1, 2, ...} shifted to {0, 1, ...}
        return 2 * (rng.geometric(1.0 / (1.0 + spec.mean), size) - 1)
    if spec.kind == "fock":
        return np.full(size, spec.n)
    pick = rng.choice(len(spec.weights), size=size, p=spec.weights)  # mixture
    return np.stack([_true_counts(c, size, rng) for c in spec.components])[pick, np.arange(size)]


def per_gate_counts(spec, det, size, rng):
    """Detected counts drawn gate by gate: an independent reference for the
    count law that photonstats samples from its sufficient statistics."""
    true = _true_counts(spec, size, rng)
    if det.dark_after_loss:
        return rng.binomial(true, det.eta) + rng.poisson(det.dark_mean, size)
    return rng.binomial(true + rng.poisson(det.dark_mean, size), det.eta)


def per_gate_histogram(counts, det, edges, rng):
    """One Gaussian pulse area per gate, binned like synthesize_histogram:
    (bin counts, overflow above adc_max), areas below the range in bin 0."""
    areas = rng.normal(det.peak_center(counts), det.peak_width(counts))
    over = areas > det.adc_max
    kept = np.clip(areas[~over], edges[0], edges[-1])
    return np.histogram(kept, bins=edges)[0], int(over.sum())


def padded_below(hist, pad):
    """``hist`` as a CSV without a sidecar reads it, with ``pad`` empty bins
    of its width added below its range."""
    from photonstats.acquisition import AreaHistogram

    edges = np.concatenate((hist.bin_edges[0] - hist.bin_width * np.arange(pad, 0, -1),
                            hist.bin_edges))
    padded = AreaHistogram(edges, np.pad(hist.counts, (pad, 0)), hist.n_gates)
    return AreaHistogram.from_csv(padded.to_csv())


def _gamma_of_poisson_terms(p1, p2, p3):
    """Elementwise gamma from the first three pmf terms; 0 where all vanish."""
    denom = p1 + p2 + p3
    return np.divide(p2, denom, out=np.zeros_like(denom), where=denom > 0)


def poisson_mixture_oracle(
    means_grid,
    weights_trials: int = 10_000,
    rng_seed: int = 0,
    *,
    max_components: int = 5,
) -> float:
    """Brute-force maximum of gamma over Poisson distributions and mixtures.

    Scans every single Poisson mean on ``means_grid``, then draws
    ``weights_trials`` random finite mixtures (2..max_components components
    with means from the grid and Dirichlet weights) and returns the largest
    gamma found. Only the first three pmf terms enter gamma, so they are
    evaluated directly; this keeps the check independent of the distribution
    constructors it is used to validate.
    """
    means = np.asarray(means_grid, dtype=np.float64)
    if means.size == 0:
        raise ValueError("means grid must be nonempty")
    if np.any(means < 0):
        raise ValueError("Poisson means must be nonnegative")

    w0 = np.exp(-means)
    t1 = w0 * means
    t2 = t1 * means / 2.0
    t3 = t2 * means / 3.0
    best = float(_gamma_of_poisson_terms(t1, t2, t3).max())

    rng = np.random.default_rng(rng_seed)
    for _ in range(weights_trials):
        k = int(rng.integers(2, max_components + 1))
        idx = rng.integers(0, means.size, size=k)
        w = rng.dirichlet(np.ones(k))
        p1 = float(w @ t1[idx])
        p2 = float(w @ t2[idx])
        p3 = float(w @ t3[idx])
        if p1 + p2 + p3 > 0:
            best = max(best, p2 / (p1 + p2 + p3))
    return best
