import json
import math

import numpy as np
import pytest

from conftest import random_physical_distribution
from photonstats.channel import (
    ConditionNumberWarning,
    TransferMatrix,
    _detect,
    _loss_matrix,
    detector_matrix,
    invert_channel,
    truncation_diagnostics,
)
from photonstats.distributions import (
    PhotonDistribution,
    SourceSpec,
    _poisson_pmf,
    make_distribution,
)
from photonstats.ioutil import dumps_canonical
from photonstats.nonclassical import gamma


def fock(n, cutoff):
    return make_distribution(SourceSpec(kind="fock", cutoff=cutoff, n=n))


def loss_matrix(eta, cutoff):
    """The detector with no dark counts: binomial thinning alone."""
    return detector_matrix(eta, 0.0, cutoff)


def dark_matrix(nu, cutoff):
    """The detector with unit efficiency: the dark-count convolution alone."""
    return detector_matrix(1.0, nu, cutoff)


def forward(m, p):
    return m.entries @ p.probs


def truncated_pair_reconstruction():
    """A pair source whose law extends beyond the analysis window: forward
    at cutoff 40, reconstructed at cutoff 10."""
    truth = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=40, mean=3.0))
    f40 = forward(detector_matrix(0.67, 4e-4, 40), truth)
    return invert_channel(detector_matrix(0.67, 4e-4, 10), PhotonDistribution(f40[:11]))


def oracle_entry(i, j, eta, nu, cutoff, dark_after_loss):
    """Closed-form entry (i, j) of the truncated detector matrix: the chance
    that j photons give i counts, summed over the intermediate count k."""
    def loss(out, into):
        return math.comb(into, out) * eta**out * (1 - eta) ** (into - out) if out <= into else 0.0

    def dark(out, into):
        d = out - into
        return math.exp(-nu) * nu**d / math.factorial(d) if d >= 0 else 0.0

    if dark_after_loss:
        return math.fsum(dark(i, k) * loss(k, j) for k in range(cutoff + 1))
    return math.fsum(loss(i, k) * dark(k, j) for k in range(cutoff + 1))


class TestDetectorMatrixOracle:
    @pytest.mark.parametrize("dark_after_loss", [True, False])
    @pytest.mark.parametrize("eta, nu", [(0.3, 0.5), (0.67, 4e-4), (0.95, 0.1), (0.5, 0.0),
                                         (1.0, 0.2), (0.0, 0.3)])
    def test_every_entry_matches_closed_form(self, eta, nu, dark_after_loss):
        for cutoff in range(3, 13):
            m = detector_matrix(eta, nu, cutoff, dark_after_loss=dark_after_loss).entries
            expected = [[oracle_entry(i, j, eta, nu, cutoff, dark_after_loss)
                         for j in range(cutoff + 1)] for i in range(cutoff + 1)]
            np.testing.assert_allclose(m, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dark_after_loss", [True, False])
    @pytest.mark.parametrize("eta, nu", [(0.05, 0.0), (0.67, 4e-4), (0.9, 1.5), (1.0, 0.3)])
    def test_nonnegative_with_column_sums_at_most_one(self, eta, nu, dark_after_loss):
        m = detector_matrix(eta, nu, 20, dark_after_loss=dark_after_loss).entries
        assert np.all(m >= 0)
        assert np.all(m.sum(axis=0) <= 1.0 + 1e-14)

    def test_cutoff_below_three_rejected(self):
        with pytest.raises(ValueError, match="cutoff must be >= 3"):
            detector_matrix(0.5, 0.0, 2)


class TestBinomialLossMatrix:
    """Zero dark counts: the detector matrix is the binomial loss matrix."""

    def test_eta_one_is_identity(self):
        m = loss_matrix(1.0, 8)
        np.testing.assert_array_equal(m.entries, np.eye(9))

    def test_eta_outside_range_rejected(self):
        with pytest.raises(ValueError):
            loss_matrix(1.2, 10)
        with pytest.raises(ValueError):
            loss_matrix(-0.1, 10)

    def test_half_on_fock2(self):
        f = forward(loss_matrix(0.5, 6), fock(2, 6))
        np.testing.assert_allclose(f[:3], [0.25, 0.5, 0.25], atol=1e-14)
        np.testing.assert_allclose(f[3:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.67, 0.85, 0.999])
    @pytest.mark.parametrize("cutoff", [10, 64])
    def test_columns_sum_to_one(self, eta, cutoff):
        m = loss_matrix(eta, cutoff)
        np.testing.assert_allclose(m.entries.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.3, 0.67])
    def test_upper_triangular_with_eta_powers_on_diagonal(self, eta):
        m = loss_matrix(eta, 12)
        assert np.all(np.tril(m.entries, -1) == 0.0)
        np.testing.assert_allclose(np.diag(m.entries), eta ** np.arange(13), rtol=1e-12)

    def test_weak_pump_single_pair_ratio(self):
        # two-photon input thinned: f1/f2 -> 2(1-eta)/eta as the pair rate vanishes
        eta = 0.67
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=1e-3))
        f = forward(loss_matrix(eta, 10), src)
        assert f[1] / f[2] == pytest.approx(2 * (1 - eta) / eta, rel=2e-3)

    def test_weak_pump_ratio_monte_carlo(self):
        # same ratio from direct photon-level sampling
        eta, mu, n = 0.67, 1e-3, 4_000_000
        rng = np.random.default_rng(11)
        photons = 2 * rng.poisson(mu, n)
        detected = rng.binomial(photons, eta)
        n1, n2 = np.count_nonzero(detected == 1), np.count_nonzero(detected == 2)
        assert n1 / n2 == pytest.approx(2 * (1 - eta) / eta, rel=0.1)


class TestLossMatrixKept:
    """``_loss_matrix`` is kept per (eta, n) and handed out read-only."""

    @pytest.mark.parametrize("eta", [0.0, 0.67, 1.0])
    def test_cannot_be_written_into_the_cache(self, eta):
        m = _loss_matrix(eta, 11)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.5
        assert np.array_equal(_loss_matrix(eta, 11), loss_matrix(eta, 10).entries)

    def test_each_argument_gives_a_new_matrix(self):
        base = _loss_matrix(0.67, 11)
        assert not np.array_equal(_loss_matrix(0.68, 11), base)
        assert _loss_matrix(0.67, 12).shape == (12, 12)
        np.testing.assert_array_equal(_loss_matrix(0.67, 12)[:11, :11], base)


class TestDetectOnAVector:
    """The sampler's vector goes through one convolution; a matrix goes
    through one per column. Both must give the same numbers."""

    @pytest.mark.parametrize("dark_after_loss", [True, False], ids=["after-loss", "before-loss"])
    @pytest.mark.parametrize("n", [65, 129, 1025])
    def test_matches_the_column_formula(self, rng, n, dark_after_loss):
        eta, dark_mean = 0.67, 0.3
        x = random_physical_distribution(rng, n - 1)
        loss, dark = _loss_matrix(eta, n), _poisson_pmf(dark_mean, n)

        def add_dark(y):
            return np.apply_along_axis(lambda col: np.convolve(col, dark)[:n], 0, y)

        expected = add_dark(loss @ x) if dark_after_loss else loss @ add_dark(x)
        assert np.array_equal(_detect(x, eta, dark_mean, dark_after_loss), expected)


class TestDarkMatrix:
    """Unit efficiency: the detector matrix is the lower triangular Poisson
    shift (Toeplitz) matrix of the dark counts."""

    def test_zero_dark_is_identity(self):
        np.testing.assert_array_equal(dark_matrix(0.0, 8).entries, np.eye(9))

    def test_negative_dark_rejected(self):
        with pytest.raises(ValueError):
            dark_matrix(-1e-3, 8)

    def test_device_scale_entries(self):
        # 20,000 1/s dark rate gated over 20 ns -> 4e-4 expected counts
        nu = 20_000 * 20e-9
        m = dark_matrix(nu, 8)
        np.testing.assert_allclose(np.diag(m.entries), math.exp(-nu), rtol=1e-12)
        np.testing.assert_allclose(np.diag(m.entries, -1), nu * math.exp(-nu), rtol=1e-12)

    def test_vacuum_through_dark_is_poisson(self):
        f = forward(dark_matrix(1.0, 20), fock(0, 20))
        expected = np.exp(-1.0) / np.array([math.factorial(i) for i in range(21)])
        np.testing.assert_allclose(f, expected, rtol=1e-12)

    def test_toeplitz(self):
        m = dark_matrix(0.7, 10).entries
        pmf = m[:, 0]
        for j in range(11):
            np.testing.assert_array_equal(m[j:, j], pmf[: 11 - j])
            assert np.all(m[:j, j] == 0.0)


class TestCompose:
    """The two orders of loss and dark counts."""

    def test_identity_composition(self):
        # without dark counts the order does not matter: both are the loss matrix
        after = detector_matrix(0.67, 0.0, 10)
        before = detector_matrix(0.67, 0.0, 10, dark_after_loss=False)
        np.testing.assert_array_equal(after.entries, before.entries)

    def test_dark_after_loss_on_fock1(self):
        f = forward(detector_matrix(0.5, 0.5, 10), fock(1, 10))
        assert f[0] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)

    def test_metadata_combines(self):
        m = detector_matrix(0.8, 0.01, 10)
        assert m.eta == pytest.approx(0.8)
        assert m.dark_mean == pytest.approx(0.01)

    def test_dark_before_loss_thins_darks(self):
        # injecting darks before the loss stage is the same as thinning them;
        # exact on the untruncated space, so compare action on a low-lying state
        before = detector_matrix(0.6, 0.02, 12, dark_after_loss=False)
        equiv = detector_matrix(0.6, 0.02 * 0.6, 12)
        p = fock(2, 12)
        np.testing.assert_allclose(forward(before, p), forward(equiv, p), atol=1e-10)


class TestApplyChannel:
    """The forward map f = M p."""

    def test_identity_channel(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        f = forward(loss_matrix(1.0, 10), p)
        np.testing.assert_array_equal(f, p.probs)

    def test_leakage_is_column_deficit(self):
        p = fock(10, 10)
        m = dark_matrix(0.1, 10)
        # all mass at the cutoff: dark counts push ~nu of it out of the window
        leak = p.probs.sum() - forward(m, p).sum()
        assert leak == pytest.approx(1 - math.exp(-0.1), rel=1e-9)

    def test_forward_is_monotone_physical(self, rng):
        m = detector_matrix(0.67, 4e-4, 12)
        for _ in range(20):
            p = PhotonDistribution(random_physical_distribution(rng, 12))
            f = forward(m, p)
            assert np.all(f >= 0)
            assert f.sum() <= 1.0 + 1e-12

    def test_mass_conserved_up_to_leakage(self, rng):
        m = detector_matrix(0.85, 4e-4, 10)
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        f = forward(m, p)
        leak = (1.0 - m.entries.sum(axis=0)) @ p.probs
        assert p.probs.sum() - f.sum() == pytest.approx(leak, abs=1e-14)


class TestInvertChannel:
    def test_invert_identity(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        m = loss_matrix(1.0, 10)
        rec = invert_channel(m, p)
        np.testing.assert_allclose(rec, p.probs, atol=1e-14)

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            invert_channel(loss_matrix(0.5, 10), fock(0, 12))

    def test_zero_eta_singular(self):
        m = loss_matrix(0.0, 10)
        with pytest.raises(ValueError, match="singular"):
            invert_channel(m, fock(0, 10))

    @pytest.mark.parametrize("eta", [0.3, 0.67, 0.85])
    @pytest.mark.parametrize("nu", [0.0, 4e-4])
    def test_round_trip(self, rng, eta, nu):
        m = detector_matrix(eta, nu, 10)
        for _ in range(10):
            p = PhotonDistribution(random_physical_distribution(rng, 10))
            rec = invert_channel(m, PhotonDistribution(forward(m, p)))
            np.testing.assert_allclose(rec, p.probs, atol=1e-9)

    def test_even_odd_preserved_through_round_trip(self):
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.4))
        m = loss_matrix(0.67, 14)
        rec = invert_channel(m, PhotonDistribution(forward(m, src)))
        assert np.abs(rec[1::2]).max() < 1e-9
        np.testing.assert_allclose(rec, src.probs, atol=1e-9)

    def test_sum_recovers_input_mass(self, rng):
        m = detector_matrix(0.67, 4e-4, 10)
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        rec = invert_channel(m, PhotonDistribution(forward(m, p)))
        assert rec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ill_conditioned_warns_but_solves(self):
        m = loss_matrix(0.05, 20)
        f = PhotonDistribution(forward(m, fock(3, 20)))
        with pytest.warns(ConditionNumberWarning):
            rec = invert_channel(m, f)
        assert rec[3] == pytest.approx(1.0, rel=1e-6)

    def test_returns_read_only_array_keeping_negative_entries(self):
        rec = truncated_pair_reconstruction()
        assert isinstance(rec, np.ndarray) and rec.dtype == np.float64
        assert not rec.flags.writeable
        assert rec.min() < -1e-3

    def test_non_finite_solution_rejected(self):
        # a subnormal pivot: the flat law's P1 overflows to infinity
        m = TransferMatrix(np.diag([1.0, 1e-310, 1.0, 1.0]), eta=0.5, dark_mean=0.0, cutoff=3)
        f = PhotonDistribution(np.full(4, 0.25))
        with pytest.warns(ConditionNumberWarning), \
                pytest.raises(ValueError, match="probability vector contains non-finite entries"):
            invert_channel(m, f)

    def test_gamma_under_loss_limit_via_channel(self):
        # weak pair source through eta=0.67 loss: gamma -> eta/(2-eta)
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=1e-3))
        f = PhotonDistribution(forward(loss_matrix(0.67, 10), src))
        assert gamma(f) == pytest.approx(0.67 / (2 - 0.67), abs=1e-3)


class TestTruncationDiagnostics:
    def test_physical_distribution_zero_negativity(self, rng):
        rep = truncation_diagnostics(random_physical_distribution(rng, 10))
        assert rep.most_negative == 0.0
        assert rep.negative_mass == 0.0

    def test_identity_reconstruction_zero_negativity(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        rec = invert_channel(loss_matrix(1.0, 10), p)
        rep = truncation_diagnostics(rec)
        assert rep.negative_mass < 1e-12

    def test_truncated_reconstruction_goes_negative_at_high_odd_n(self):
        rep = truncation_diagnostics(truncated_pair_reconstruction())
        assert rep.most_negative < -1e-3
        assert rep.index % 2 == 1 and rep.index >= 7
        assert rep.negative_mass > 0
        assert json.loads(dumps_canonical(rep))["index"] == rep.index

    def test_report_sum_deviation(self):
        rep = truncation_diagnostics(np.array([0.5, 0.2, 0.2, 0.2]))
        assert rep.sum_deviation == pytest.approx(0.1, abs=1e-12)


class TestTransferMatrixType:
    def test_rejects_negative_entries(self):
        bad = -np.eye(5)
        with pytest.raises(ValueError):
            TransferMatrix(bad, eta=0.5, dark_mean=0.0, cutoff=4)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            TransferMatrix(np.eye(5), eta=0.5, dark_mean=0.0, cutoff=10)
