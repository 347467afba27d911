import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poisson_mixture_oracle
from photonstats.channel import detector_matrix
from photonstats.distributions import PhotonDistribution, SourceSpec, make_distribution
from photonstats.ioutil import dumps_canonical
from photonstats.nonclassical import (
    classical_gamma_bound,
    eta_from_ratio,
    gamma,
    gamma_significance,
    gamma_under_loss,
    parity_test,
)

SQRT6 = math.sqrt(6.0)
REF_P123 = (0.0818, 0.0696, 0.0061)


def dist_from_p123(p1, p2, p3):
    return PhotonDistribution([1.0 - (p1 + p2 + p3), p1, p2, p3])


class TestGamma:
    def test_reference_probabilities(self):
        assert gamma(dist_from_p123(*REF_P123)) == pytest.approx(0.442, abs=5e-4)

    def test_fock2_is_one(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=5, n=2))
        assert gamma(d) == 1.0

    def test_poisson_sqrt6_saturates_bound(self):
        d = make_distribution(SourceSpec(kind="poisson", cutoff=40, mean=SQRT6))
        assert gamma(d) == pytest.approx(classical_gamma_bound(), abs=1e-9)

    def test_zero_denominator(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=5, n=0))
        with pytest.raises(ZeroDivisionError):
            gamma(d)

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=20))
    @example([0.0, 0.0, 0.0, 5e-324, 1.0, 1.0])  # P3 underflows to 0 once normalized
    @settings(max_examples=100, deadline=None)
    def test_gamma_in_unit_interval_for_physical(self, raw):
        total = sum(raw)
        if total <= 0:
            return
        d = PhotonDistribution(np.asarray(raw) / total)
        if d.probs[1] + d.probs[2] + d.probs[3] <= 0.0:
            with pytest.raises(ZeroDivisionError):
                gamma(d)
        else:
            assert 0.0 <= gamma(d) <= 1.0


class TestClassicalBound:
    def test_value(self):
        assert classical_gamma_bound() == pytest.approx(3 / (3 + 2 * SQRT6), abs=0)
        assert classical_gamma_bound() == pytest.approx(0.37979589711, abs=1e-10)

    def test_below_reference_violation(self):
        assert classical_gamma_bound() < 0.442

    def test_single_point_grid(self):
        assert poisson_mixture_oracle([SQRT6], weights_trials=0) == pytest.approx(
            classical_gamma_bound(), abs=1e-12
        )

    def test_vacuum_grid(self):
        assert poisson_mixture_oracle([0.0], weights_trials=0) == 0.0

    def test_oracle_never_exceeds_bound(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 1e-3)
        best = poisson_mixture_oracle(grid, weights_trials=10_000, rng_seed=3)
        assert best <= classical_gamma_bound() + 1e-9
        # the scan itself should get within grid resolution of the bound
        assert best >= classical_gamma_bound() - 1e-5

    def test_oracle_argmax_near_sqrt6(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 1e-3)
        w0 = np.exp(-grid)
        t1, t2, t3 = w0 * grid, w0 * grid**2 / 2, w0 * grid**3 / 6
        denom = t1 + t2 + t3
        g = np.divide(t2, denom, out=np.zeros_like(denom), where=denom > 0)
        assert abs(grid[np.argmax(g)] - SQRT6) < 1e-2

    @given(
        x=st.floats(0.0, 1e3),
        y=st.floats(1e-3, 1e3),
        xp=st.floats(0.0, 1e3),
        yp=st.floats(1e-3, 1e3),
        alpha=st.floats(0.0, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_mediant_inequality(self, x, y, xp, yp, alpha):
        # blending in a strictly smaller ratio cannot raise the ratio; the
        # relative gap requirement keeps the strict comparison out of float noise
        if not xp / yp < x / y * (1 - 1e-6):
            return
        blend = (alpha * x + (1 - alpha) * xp) / (alpha * y + (1 - alpha) * yp)
        assert blend < x / y
        # at alpha = 1 the blend equals the larger ratio exactly
        assert (1.0 * x + 0.0 * xp) / (1.0 * y + 0.0 * yp) == x / y


class TestGammaUnderLoss:
    def test_perfect_detector(self):
        assert gamma_under_loss(1.0) == 1.0

    def test_threshold_efficiency_hits_bound(self):
        eta_thr = 3 / (3 + SQRT6)
        assert gamma_under_loss(eta_thr) == pytest.approx(classical_gamma_bound(), abs=1e-12)

    def test_reference_efficiency(self):
        assert gamma_under_loss(0.67) == pytest.approx(0.5038, abs=5e-5)

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            gamma_under_loss(0.0)

    def test_monotone_in_eta(self):
        etas = np.linspace(0.05, 1.0, 50)
        vals = [gamma_under_loss(e) for e in etas]
        assert np.all(np.diff(vals) > 0)


class TestEtaFromRatio:
    def test_half_ratio(self):
        assert eta_from_ratio(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_p2(self):
        assert eta_from_ratio(0.3, 0.0) == 0.0

    def test_reference_values_give_0630(self):
        # the reference probabilities imply 0.630 through the estimator, not
        # the 0.67 the detector was independently calibrated at
        assert eta_from_ratio(0.0818, 0.0696) == pytest.approx(0.62986, abs=1e-5)

    def test_zero_p1_rejected(self):
        with pytest.raises(ValueError):
            eta_from_ratio(0.0, 0.1)

    def test_negative_p2_rejected(self):
        with pytest.raises(ValueError, match="p2 must be nonnegative"):
            eta_from_ratio(0.1, -0.01)

    @pytest.mark.parametrize("eta", [0.3, 0.67, 0.85])
    def test_recovers_channel_eta_from_forward_model(self, eta):
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=1e-3))
        f = detector_matrix(eta, 0.0, 10).entries @ src.probs
        assert eta_from_ratio(f[1], f[2]) == pytest.approx(eta, abs=1e-3)


class TestGammaSignificance:
    def test_hand_worked_counts(self):
        rep = gamma_significance((100, 100, 0))
        assert rep.gamma == pytest.approx(0.5, abs=0)
        assert rep.std_error == pytest.approx(0.0354, abs=1e-4)
        assert rep.n_std_above_classical == pytest.approx(3.40, abs=5e-3)
        assert rep.violated

    def test_single_count_no_violation(self):
        rep = gamma_significance((1, 0, 0))
        assert rep.gamma == 0.0
        assert not rep.violated

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_significance((0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            gamma_significance((-1, 5, 5))

    @given(
        n1=st.integers(0, 10_000),
        n2=st.integers(1, 10_000),
        n3=st.integers(0, 10_000),
        k=st.integers(2, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_scaling_with_total_counts(self, n1, n2, n3, k):
        if n1 + n3 == 0:
            return  # gamma == 1 has zero variance
        base = gamma_significance((n1, n2, n3))
        scaled = gamma_significance((k * n1, k * n2, k * n3))
        assert scaled.gamma == pytest.approx(base.gamma, rel=1e-12)
        assert scaled.n_std_above_classical == pytest.approx(
            math.sqrt(k) * base.n_std_above_classical, rel=1e-9
        )

    def test_counts_basis_recorded(self):
        rep = gamma_significance((10, 20, 30))
        assert rep.counts_basis == (10, 20, 30, 60)
        d = json.loads(dumps_canonical(rep))
        assert d["counts_basis"] == [10, 20, 30, 60]


class TestParityTest:
    def test_fock1_nonclassical(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=5, n=1))
        rep = parity_test(d)
        assert rep.parity == -1.0
        assert rep.nonclassical

    def test_poisson_mixtures_positive(self, rng):
        # classical fields (Poisson mixtures) always have positive parity
        for _ in range(50):
            k = int(rng.integers(1, 5))
            means = rng.uniform(0.0, 4.0, size=k)
            w = rng.dirichlet(np.ones(k))
            comps = tuple(
                SourceSpec(kind="poisson", cutoff=40, mean=float(m)) for m in means
            )
            spec = SourceSpec(kind="mixture", cutoff=40, weights=tuple(w), components=comps)
            rep = parity_test(make_distribution(spec))
            assert rep.parity > 0
            assert not rep.nonclassical

    def test_lossy_pair_source_positive_parity(self):
        # even through a lossy detector the pair source keeps positive parity
        src = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=20, mean=0.2))
        f = PhotonDistribution(detector_matrix(0.67, 4e-4, 20).entries @ src.probs)
        rep = parity_test(f)
        assert rep.parity > 0
        assert not rep.nonclassical

    def test_json_dict(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=4, n=3))
        j = json.loads(dumps_canonical(parity_test(d)))
        assert j["nonclassical"] is True
        assert j["p_odd"] == 1.0
