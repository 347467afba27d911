import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstats.cli import RunConfig
from photonstats.distributions import (
    PhotonDistribution,
    SourceSpec,
    TruncationLossError,
    _log_factorials,
    _poisson_pmf,
    make_distribution,
)
from photonstats.ioutil import dumps_canonical
from photonstats.nonclassical import parity_test

SQRT6 = math.sqrt(6.0)


def mean_photon_number(d):
    """First moment sum(n * p_n) of a normalized distribution."""
    return float(np.arange(d.probs.size) @ d.probs)


class TestPhotonDistribution:
    def test_rejects_short_vector(self):
        with pytest.raises(ValueError, match="cutoff"):
            PhotonDistribution([0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative entries"):
            PhotonDistribution([0.6, -0.1, 0.3, 0.2])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PhotonDistribution([0.5, np.nan, 0.3, 0.2])

    def test_rejects_table_that_is_not_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            PhotonDistribution(np.full((2, 4), 0.125))

    def test_immutable(self):
        d = PhotonDistribution([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestSourceSpecValidation:
    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec(kind="poisson", cutoff=10, mean=-1.0)

    def test_fock_beyond_cutoff_rejected(self):
        with pytest.raises(ValueError, match="exceeds cutoff"):
            SourceSpec(kind="fock", cutoff=4, n=5)

    def test_numpy_integers_are_whole_numbers(self):
        spec = SourceSpec(kind="fock", cutoff=np.int64(6), n=np.int32(2))
        assert (spec.cutoff, spec.n) == (6, 2)
        assert make_distribution(spec).probs[2] == 1.0

    @pytest.mark.parametrize("field, value", [("cutoff", 6.5), ("cutoff", True), ("n", 2.5),
                                              ("n", "2")])
    def test_integer_fields_refuse_other_values(self, field, value):
        with pytest.raises(ValueError, match=f"source {field} must be a whole number"):
            SourceSpec(**{"kind": "fock", "cutoff": 6, "n": 2, field: value})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            SourceSpec(kind="laser", cutoff=10, mean=1.0)

    def test_cutoff_below_three_rejected(self):
        with pytest.raises(ValueError, match="cutoff must be >= 3"):
            SourceSpec(kind="poisson", cutoff=2, mean=0.1)

    @pytest.mark.parametrize("n", [-1, None], ids=["negative", "missing"])
    def test_fock_needs_nonnegative_n(self, n):
        with pytest.raises(ValueError, match="fock source needs n >= 0"):
            SourceSpec(kind="fock", cutoff=6, n=n)

    @pytest.mark.parametrize("weights, components, rule", [
        (None, None, "needs weights and components"),
        ((0.5, 0.5), (SourceSpec(kind="fock", cutoff=6, n=1),), "differ in length"),
        ((1.5, -0.5), (SourceSpec(kind="fock", cutoff=6, n=1),
                       SourceSpec(kind="fock", cutoff=6, n=2)), "nonnegative"),
        ((0.5, 0.5), (SourceSpec(kind="fock", cutoff=6, n=1),
                      SourceSpec(kind="fock", cutoff=7, n=2)), "share the mixture cutoff"),
    ], ids=["no-weights", "lengths-differ", "negative-weight", "cutoffs-differ"])
    def test_mixture_rules(self, weights, components, rule):
        with pytest.raises(ValueError, match=rule):
            SourceSpec(kind="mixture", cutoff=6, weights=weights, components=components)

    def test_mixture_weights_must_sum_to_one(self):
        comps = (
            SourceSpec(kind="fock", cutoff=6, n=1),
            SourceSpec(kind="fock", cutoff=6, n=2),
        )
        with pytest.raises(ValueError, match="sum"):
            SourceSpec(kind="mixture", cutoff=6, weights=(0.5, 0.4), components=comps)

    def test_bad_pair_statistics(self):
        with pytest.raises(ValueError, match="pair_statistics"):
            SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.1, pair_statistics="bose")

    @pytest.mark.parametrize(
        "spec",
        [
            SourceSpec(kind="poisson", cutoff=12, mean=1.3),
            SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.15, pair_statistics="thermal"),
            SourceSpec(kind="fock", cutoff=5, n=3),
            SourceSpec(
                kind="mixture",
                cutoff=8,
                weights=(0.25, 0.75),
                components=(
                    SourceSpec(kind="fock", cutoff=8, n=0),
                    SourceSpec(kind="poisson", cutoff=8, mean=0.5),
                ),
            ),
        ],
    )
    def test_json_roundtrip(self, spec):
        # the report encoder's echo of a source reloads through the config loader
        echo = json.loads(dumps_canonical(spec))
        config = RunConfig.from_json_dict(
            {"source": echo, "detector": {}, "n_gates": 1, "cutoff": spec.cutoff, "seed": 0}
        )
        assert config.source == spec


class TestPoissonPmf:
    @pytest.mark.parametrize("mean", [0.0, 1e-6, 0.005, 0.2, 1.0, SQRT6, 10.0, 25.0, 50.0])
    def test_matches_scipy(self, mean):
        from scipy.stats import poisson

        k = np.arange(200)
        ours, oracle = _poisson_pmf(mean, k.size), poisson.pmf(k, mean)
        np.testing.assert_array_equal(ours[oracle == 0.0], 0.0)
        # Below k = 64 (the smallest simulation window) and above 1e-100, each
        # term of the exponent is under 256, so its rounding stays under 1e-13
        # of the pmf. Out to k = 199, log(k!) reaches 860 and its rounding
        # alone reaches 3e-13. Subnormal entries carry fewer digits.
        head = (k < 64) & (oracle > 1e-100)
        np.testing.assert_allclose(ours[head], oracle[head], rtol=1e-13, atol=0)
        normal = oracle >= np.finfo(float).tiny
        np.testing.assert_allclose(ours[normal], oracle[normal], rtol=5e-13, atol=0)

    def test_mean_zero_is_point_mass(self):
        np.testing.assert_array_equal(_poisson_pmf(0.0, 5), [1.0, 0.0, 0.0, 0.0, 0.0])


class TestLogFactorials:
    """``_log_factorials`` is kept per size and handed out read-only."""

    @pytest.mark.parametrize("n", [1, 2, 11, 41, 65, 129, 1025])
    def test_matches_cumulative_logs(self, n):
        expected = np.zeros(n)
        expected[1:] = np.cumsum(np.log(np.arange(1, n, dtype=np.float64)))
        logfact = _log_factorials(n)
        assert np.array_equal(logfact, expected)
        with pytest.raises(ValueError, match="read-only"):
            logfact[0] = 1.0
        assert np.array_equal(_log_factorials(n), expected)


class TestMakeDistribution:
    def test_fock_point_mass(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=10, n=2))
        expected = np.zeros(11)
        expected[2] = 1.0
        np.testing.assert_array_equal(d.probs, expected)

    def test_poisson_closed_form(self):
        d = make_distribution(SourceSpec(kind="poisson", cutoff=30, mean=SQRT6))
        # direct evaluation of e^-m m^n / n!
        assert d.probs[2] == pytest.approx(math.exp(-SQRT6) * 6 / 2, abs=1e-9)
        assert d.probs[0] == pytest.approx(math.exp(-SQRT6), abs=1e-9)

    def test_pdc_poissonian_pair_pushforward(self):
        d = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.1))
        assert d.probs[0] == pytest.approx(math.exp(-0.1), abs=1e-8)
        assert d.probs[2] == pytest.approx(0.1 * math.exp(-0.1), abs=1e-8)
        np.testing.assert_array_equal(d.probs[1::2], 0.0)

    def test_pdc_monte_carlo_oracle(self):
        # pair-count pushforward checked against direct sampling
        rng = np.random.default_rng(7)
        pairs = rng.poisson(0.1, 400_000)
        emp = np.bincount(2 * pairs, minlength=11)[:11] / pairs.size
        d = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=10, mean=0.1))
        assert np.abs(d.probs - emp).max() < 4.0 * math.sqrt(0.09 / 400_000)

    def test_pdc_thermal_pair_law(self):
        mu = 0.3
        d = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=40, mean=mu,
                                         pair_statistics="thermal"))
        for k in range(5):
            assert d.probs[2 * k] == pytest.approx(mu**k / (1 + mu) ** (k + 1), rel=1e-9)
        np.testing.assert_array_equal(d.probs[1::2], 0.0)

    def test_mixture_exact_convex_combination(self):
        a = SourceSpec(kind="fock", cutoff=6, n=1)
        b = SourceSpec(kind="fock", cutoff=6, n=4)
        mix = SourceSpec(kind="mixture", cutoff=6, weights=(0.25, 0.75), components=(a, b))
        d = make_distribution(mix)
        da, db = make_distribution(a), make_distribution(b)
        np.testing.assert_array_equal(d.probs, 0.25 * da.probs + 0.75 * db.probs)

    def test_truncation_loss_error(self):
        with pytest.raises(TruncationLossError) as err:
            make_distribution(SourceSpec(kind="poisson", cutoff=3, mean=5.0))
        assert err.value.lost_mass > 1e-6

    @given(mean=st.floats(0.0, 2.0), thermal=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pdc_even_only_and_normalized(self, mean, thermal):
        spec = SourceSpec(
            kind="pdc_pairs",
            cutoff=40,
            mean=mean,
            pair_statistics="thermal" if thermal else "poissonian",
        )
        try:
            d = make_distribution(spec)
        except TruncationLossError:
            return  # heavy thermal tail beyond the window: the gate is the contract
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert np.all(d.probs >= 0)
        np.testing.assert_array_equal(d.probs[1::2], 0.0)


class TestMoments:
    def test_fock_mean(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=10, n=2))
        assert mean_photon_number(d) == 2.0

    def test_poisson_mean_matches_closed_form(self):
        d = make_distribution(SourceSpec(kind="poisson", cutoff=40, mean=SQRT6))
        assert mean_photon_number(d) == pytest.approx(SQRT6, abs=1e-9)

    def test_pdc_mean_is_twice_pair_mean(self):
        d = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=30, mean=0.1))
        assert mean_photon_number(d) == pytest.approx(0.2, abs=1e-9)

    def test_parity_fock_odd(self):
        d = make_distribution(SourceSpec(kind="fock", cutoff=5, n=1))
        assert parity_test(d).parity == -1.0

    @pytest.mark.parametrize("stats", ["poissonian", "thermal"])
    @pytest.mark.parametrize("mean", [0.05, 0.4, 1.1])
    def test_parity_pdc_plus_one(self, stats, mean):
        d = make_distribution(SourceSpec(kind="pdc_pairs", cutoff=60, mean=mean,
                                         pair_statistics=stats))
        assert parity_test(d).parity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mean", [0.2, 1.0, 2.5])
    def test_parity_poisson_closed_form(self, mean):
        d = make_distribution(SourceSpec(kind="poisson", cutoff=60, mean=mean))
        assert parity_test(d).parity == pytest.approx(math.exp(-2 * mean), abs=1e-9)
        assert parity_test(d).parity > 0

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_parity_bounded(self, raw):
        total = sum(raw)
        if total <= 0:
            return
        d = PhotonDistribution(np.asarray(raw) / total)
        # float renormalization can leave the sum off 1 by a few ulps
        assert -1.0 - 1e-12 <= parity_test(d).parity <= 1.0 + 1e-12
