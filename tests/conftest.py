import numpy as np
import pytest


def random_physical_distribution(rng, cutoff, tail_decay=0.55):
    """Random normalized physical distribution with geometrically damped tail.

    The damping (plus a hard cap on the top entry) keeps mass away from the
    cutoff so forward channels with dark counts stay within the
    truncation-leakage tolerance of apply_channel.
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
