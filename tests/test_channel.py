import json
import math

import numpy as np
import pytest

from conftest import random_physical_distribution
from photonstats.channel import (
    ConditionNumberWarning,
    TransferMatrix,
    apply_channel,
    binomial_loss_matrix,
    compose,
    dark_convolution_matrix,
    detector_matrix,
    invert_channel,
    truncation_diagnostics,
)
from photonstats.distributions import (
    PhotonDistribution,
    SourceSpec,
    TruncationLossError,
    make_distribution,
)
from photonstats.ioutil import dumps_canonical
from photonstats.nonclassical import gamma


def fock(n, cutoff):
    return make_distribution(SourceSpec(kind="fock", cutoff=cutoff, n=n))


class TestBinomialLossMatrix:
    def test_eta_one_is_identity(self):
        m = binomial_loss_matrix(1.0, 8)
        np.testing.assert_array_equal(m.entries, np.eye(9))

    def test_eta_outside_range_rejected(self):
        with pytest.raises(ValueError):
            binomial_loss_matrix(1.2, 10)
        with pytest.raises(ValueError):
            binomial_loss_matrix(-0.1, 10)

    def test_half_on_fock2(self):
        f = apply_channel(binomial_loss_matrix(0.5, 6), fock(2, 6))
        np.testing.assert_allclose(f.probs[:3], [0.25, 0.5, 0.25], atol=1e-14)
        np.testing.assert_allclose(f.probs[3:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.67, 0.85, 0.999])
    @pytest.mark.parametrize("cutoff", [10, 64])
    def test_columns_sum_to_one(self, eta, cutoff):
        m = binomial_loss_matrix(eta, cutoff)
        np.testing.assert_allclose(m.entries.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.3, 0.67])
    def test_upper_triangular_with_eta_powers_on_diagonal(self, eta):
        m = binomial_loss_matrix(eta, 12)
        assert np.all(np.tril(m.entries, -1) == 0.0)
        np.testing.assert_allclose(np.diag(m.entries), eta ** np.arange(13), rtol=1e-12)

    def test_weak_pump_single_pair_ratio(self):
        # two-photon input thinned: f1/f2 -> 2(1-eta)/eta as the pair rate vanishes
        eta = 0.67
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=1e-3))
        f = apply_channel(binomial_loss_matrix(eta, 10), src)
        assert f.probs[1] / f.probs[2] == pytest.approx(2 * (1 - eta) / eta, rel=2e-3)

    def test_weak_pump_ratio_monte_carlo(self):
        # same ratio from direct photon-level sampling
        eta, mu, n = 0.67, 1e-3, 4_000_000
        rng = np.random.default_rng(11)
        photons = 2 * rng.poisson(mu, n)
        detected = rng.binomial(photons, eta)
        n1, n2 = np.count_nonzero(detected == 1), np.count_nonzero(detected == 2)
        assert n1 / n2 == pytest.approx(2 * (1 - eta) / eta, rel=0.1)


class TestDarkMatrix:
    def test_zero_dark_is_identity(self):
        np.testing.assert_array_equal(dark_convolution_matrix(0.0, 8).entries, np.eye(9))

    def test_negative_dark_rejected(self):
        with pytest.raises(ValueError):
            dark_convolution_matrix(-1e-3, 8)

    def test_device_scale_entries(self):
        # 20,000 1/s dark rate gated over 20 ns -> 4e-4 expected counts
        nu = 20_000 * 20e-9
        m = dark_convolution_matrix(nu, 8)
        np.testing.assert_allclose(np.diag(m.entries), math.exp(-nu), rtol=1e-12)
        np.testing.assert_allclose(np.diag(m.entries, -1), nu * math.exp(-nu), rtol=1e-12)

    def test_vacuum_through_dark_is_poisson(self):
        f = apply_channel(dark_convolution_matrix(1.0, 20), fock(0, 20))
        expected = np.exp(-1.0) / np.array([math.factorial(i) for i in range(21)])
        np.testing.assert_allclose(f.probs, expected, rtol=1e-12)


class TestCompose:
    def test_identity_composition(self):
        m = binomial_loss_matrix(0.67, 10)
        ident = dark_convolution_matrix(0.0, 10)
        np.testing.assert_array_equal(compose(ident, m).entries, m.entries)

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compose(binomial_loss_matrix(0.5, 10), binomial_loss_matrix(0.5, 12))

    def test_dark_after_loss_on_fock1(self):
        m = compose(dark_convolution_matrix(0.5, 10), binomial_loss_matrix(0.5, 10))
        f = apply_channel(m, fock(1, 10))
        assert f.probs[0] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)

    def test_metadata_combines(self):
        m = detector_matrix(0.8, 0.01, 10)
        assert m.eta == pytest.approx(0.8)
        assert m.dark_mean == pytest.approx(0.01)

    def test_dark_before_loss_thins_darks(self):
        # injecting darks before the loss stage is the same as thinning them;
        # exact on the untruncated space, so compare action on a low-lying state
        before = detector_matrix(0.6, 0.02, 12, dark_after_loss=False)
        equiv = compose(dark_convolution_matrix(0.02 * 0.6, 12), binomial_loss_matrix(0.6, 12))
        p = fock(2, 12)
        np.testing.assert_allclose(
            apply_channel(before, p).probs, apply_channel(equiv, p).probs, atol=1e-10
        )


class TestApplyChannel:
    def test_identity_channel(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        f = apply_channel(binomial_loss_matrix(1.0, 10), p)
        np.testing.assert_array_equal(f.probs, p.probs)

    def test_leakage_reported_and_gated(self):
        p = fock(10, 10)
        m = dark_convolution_matrix(0.1, 10)
        # all mass at the cutoff: dark counts push ~nu of it out of the window
        leak = (1.0 - m.entries.sum(axis=0)) @ p.probs
        assert leak == pytest.approx(1 - math.exp(-0.1), rel=1e-9)
        with pytest.raises(TruncationLossError):
            apply_channel(m, p)

    def test_forward_is_monotone_physical(self, rng):
        m = detector_matrix(0.67, 4e-4, 12)
        for _ in range(20):
            p = PhotonDistribution(random_physical_distribution(rng, 12))
            f = apply_channel(m, p)
            assert np.all(f.probs >= 0)
            assert f.probs.sum() <= 1.0 + 1e-12

    def test_mass_conserved_up_to_leakage(self, rng):
        m = detector_matrix(0.85, 4e-4, 10)
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        f = apply_channel(m, p)
        leak = (1.0 - m.entries.sum(axis=0)) @ p.probs
        assert p.probs.sum() - f.probs.sum() == pytest.approx(leak, abs=1e-14)


class TestInvertChannel:
    def test_invert_identity(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        m = binomial_loss_matrix(1.0, 10)
        rec = invert_channel(m, p)
        np.testing.assert_allclose(rec.probs, p.probs, atol=1e-14)
        assert rec.signed

    def test_zero_eta_singular(self):
        m = binomial_loss_matrix(0.0, 10)
        with pytest.raises(ValueError, match="singular"):
            invert_channel(m, fock(0, 10))

    @pytest.mark.parametrize("eta", [0.3, 0.67, 0.85])
    @pytest.mark.parametrize("nu", [0.0, 4e-4])
    def test_round_trip(self, rng, eta, nu):
        m = detector_matrix(eta, nu, 10)
        for _ in range(10):
            p = PhotonDistribution(random_physical_distribution(rng, 10))
            rec = invert_channel(m, apply_channel(m, p))
            np.testing.assert_allclose(rec.probs, p.probs, atol=1e-9)

    def test_even_odd_preserved_through_round_trip(self):
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=14, mean=0.4))
        m = binomial_loss_matrix(0.67, 14)
        rec = invert_channel(m, apply_channel(m, src))
        assert np.abs(rec.probs[1::2]).max() < 1e-9
        np.testing.assert_allclose(rec.probs, src.probs, atol=1e-9)

    def test_sum_recovers_input_mass(self, rng):
        m = detector_matrix(0.67, 4e-4, 10)
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        rec = invert_channel(m, apply_channel(m, p))
        assert rec.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ill_conditioned_warns_but_solves(self):
        m = binomial_loss_matrix(0.05, 20)
        f = apply_channel(m, fock(3, 20))
        with pytest.warns(ConditionNumberWarning):
            rec = invert_channel(m, f)
        assert rec.probs[3] == pytest.approx(1.0, rel=1e-6)

    def test_gamma_under_loss_limit_via_channel(self):
        # weak pair source through eta=0.67 loss: gamma -> eta/(2-eta)
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=1e-3))
        f = apply_channel(binomial_loss_matrix(0.67, 10), src)
        assert gamma(f) == pytest.approx(0.67 / (2 - 0.67), abs=1e-3)


class TestTruncationDiagnostics:
    def test_physical_distribution_zero_negativity(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        rep = truncation_diagnostics(p)
        assert rep.most_negative == 0.0
        assert rep.negative_mass == 0.0

    def test_identity_reconstruction_zero_negativity(self, rng):
        p = PhotonDistribution(random_physical_distribution(rng, 10))
        rec = invert_channel(binomial_loss_matrix(1.0, 10), p)
        rep = truncation_diagnostics(rec)
        assert rep.negative_mass < 1e-12

    def test_truncated_reconstruction_goes_negative_at_high_odd_n(self):
        # truth extends beyond the analysis window: forward at cutoff 40,
        # reconstruct at cutoff 10
        truth = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=40, mean=3.0))
        f40 = apply_channel(detector_matrix(0.67, 4e-4, 40), truth)
        f10 = PhotonDistribution(f40.probs[:11], normalized=False)
        rec = invert_channel(detector_matrix(0.67, 4e-4, 10), f10)
        rep = truncation_diagnostics(rec)
        assert rep.most_negative < -1e-3
        assert rep.index % 2 == 1 and rep.index >= 7
        assert rep.negative_mass > 0
        assert json.loads(dumps_canonical(rep))["index"] == rep.index

    def test_report_sum_deviation(self):
        d = PhotonDistribution([0.5, 0.2, 0.2, 0.2], normalized=False)
        rep = truncation_diagnostics(d)
        assert rep.sum_deviation == pytest.approx(0.1, abs=1e-12)


class TestTransferMatrixType:
    def test_rejects_negative_entries(self):
        bad = -np.eye(5)
        with pytest.raises(ValueError):
            TransferMatrix(bad, eta=0.5, dark_mean=0.0, cutoff=4)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            TransferMatrix(np.eye(5), eta=0.5, dark_mean=0.0, cutoff=10)
