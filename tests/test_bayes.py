import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from uidforge import (
    DemandObservation,
    DomainError,
    InitializationError,
    InsufficientDataError,
    PosteriorChain,
    PriorSpec,
    conjugate_posterior,
    log_posterior_unnormalized,
    metropolis_sample,
    summarize_chain,
)

TWO_OBS = [DemandObservation(2012, 4, 1.0), DemandObservation(2013, 6, 1.0)]


class TestTypes:
    def test_observation_validation(self):
        with pytest.raises(DomainError):
            DemandObservation(2012, -1, 1.0)
        with pytest.raises(DomainError):
            DemandObservation(2012, 3, 0.0)
        with pytest.raises(DomainError):
            DemandObservation(2012, 2.5, 1.0)

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            PriorSpec(0.0, 1.0)
        with pytest.raises(DomainError):
            PriorSpec(1.0, -1.0)


class TestLogPosterior:
    def test_empty_data_reduces_to_prior_kernel(self):
        prior = PriorSpec(3.0, 2.0)
        for beta in (0.3, 1.0, 4.2):
            expected = (3.0 - 1.0) * math.log(beta) - 2.0 * beta
            assert log_posterior_unnormalized(beta, [], prior) == pytest.approx(
                expected, rel=1e-12
            )

    def test_two_observation_ratio_hand_value(self):
        # kernel is 11*log(beta) - 3*beta for this prior and data, so
        # logpost(2) - logpost(1) = 11*ln 2 - 3
        prior = PriorSpec(2.0, 1.0)
        delta = log_posterior_unnormalized(2.0, TWO_OBS, prior) - log_posterior_unnormalized(
            1.0, TWO_OBS, prior
        )
        assert delta == pytest.approx(11.0 * math.log(2.0) - 3.0, rel=1e-12)

    def test_decreasing_beyond_prior_mode_when_counts_zero(self):
        prior = PriorSpec(2.0, 1.0)
        data = [DemandObservation(2012, 0, 5.0)]
        mode = (prior.shape - 1) / (prior.rate + 5.0)
        betas = [mode * (1 + k) for k in range(1, 8)]
        values = [log_posterior_unnormalized(b, data, prior) for b in betas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonpositive_beta_rejected(self):
        prior = PriorSpec(1.0, 1.0)
        for beta in (0.0, -1.0):
            with pytest.raises(DomainError):
                log_posterior_unnormalized(beta, [], prior)

    def test_differences_free_of_additive_constant(self):
        # independent closed-form route that never includes the constant
        prior = PriorSpec(1.5, 0.7)
        data = [DemandObservation(2012, 3, 2.0), DemandObservation(2013, 8, 5.0)]
        b1, b2 = 1.7, 0.4
        got = log_posterior_unnormalized(b1, data, prior) - log_posterior_unnormalized(
            b2, data, prior
        )
        shape_eff = prior.shape + 3 + 8
        rate_eff = prior.rate + 2.0 + 5.0
        expected = (shape_eff - 1) * math.log(b1 / b2) - rate_eff * (b1 - b2)
        assert got == pytest.approx(expected, rel=1e-12)


class TestConjugatePosterior:
    def test_no_data_returns_prior(self):
        assert conjugate_posterior([], PriorSpec(2.5, 4.0)) == (2.5, 4.0)

    def test_counts_and_exposures_accumulate(self):
        shape, rate = conjugate_posterior(TWO_OBS, PriorSpec(1.0, 1.0))
        assert (shape, rate) == (11.0, 3.0)
        assert shape / rate == pytest.approx(11.0 / 3.0, rel=1e-12)

    def test_zero_counts_huge_exposure_drives_mean_to_zero(self):
        data = [DemandObservation(2012, 0, 1e9)]
        shape, rate = conjugate_posterior(data, PriorSpec(1.0, 1.0))
        assert shape / rate < 1e-8


class TestMetropolisSampler:
    def test_same_seed_is_bit_identical(self):
        prior = PriorSpec(1.0, 1.0)
        a = metropolis_sample(TWO_OBS, prior, 5000, seed=11, proposal_scale=0.5)
        b = metropolis_sample(TWO_OBS, prior, 5000, seed=11, proposal_scale=0.5)
        assert np.array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    # sha256 of chain.samples and the acceptance rate of each chain,
    # recorded from the one-sample-at-a-time loop; the lengths straddle
    # the sampler's 4096-sample blocks
    @pytest.mark.parametrize(
        "seed, n, digest, acceptance",
        [
            (7, 1, "f235c65eb8da3b521054724169ef73015141614896a46cf49ad9019884ca1fc5", 1.0),
            (7, 4095, "3e059897380f9c5efca966b0d5ab65c922c42550d2456f0fb650efe09f2b1c8c", 0.5567765567765568),
            (7, 4096, "5bfb901692b50518041e181f499d8e9205e3031b9a6cdf03340b4930a608b094", 0.5576171875),
            (7, 4097, "70b9768e294ddd6844353758834f3322a4af8fdc49076df7ded500938c49ce73", 0.5630949475225775),
            (7, 100000, "3eea794d947ca7f6ebb5563c8dbe27fbfe5e4c15d4004fe7c424d19affbde64a", 0.56119),
            (2011, 1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712", 0.0),
            (2011, 4095, "425a6a9c5ac54b3eeb538c618d33848936c02d2dfa8a58453ab791ead20ba758", 0.546031746031746),
            (2011, 4096, "cb611cbfa38cce1d6b112b68f8eedd2c0baa29dc78964a40960cb5690c62cd0b", 0.550048828125),
            (2011, 4097, "82fa6fc46df2fa278f35252d8786903ec9f1dca609860b510921afca68abc4ae", 0.5528435440566268),
            (2011, 100000, "d9058286ed4d2c6114600506601cfb6ac29e3c925248e245ebb861c6f3cb02f5", 0.55993),
        ],
    )
    def test_chain_matches_recorded_digest(self, seed, n, digest, acceptance):
        chain = metropolis_sample(TWO_OBS, PriorSpec(1.0, 1.0), n, seed=seed, proposal_scale=0.5)
        assert hashlib.sha256(chain.samples.tobytes()).hexdigest() == digest
        assert chain.acceptance_rate == acceptance

    def test_different_seeds_differ(self):
        prior = PriorSpec(1.0, 1.0)
        a = metropolis_sample(TWO_OBS, prior, 2000, seed=1)
        b = metropolis_sample(TWO_OBS, prior, 2000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_chain_mean_matches_conjugate_oracle(self):
        prior = PriorSpec(1.0, 1.0)
        chain = metropolis_sample(TWO_OBS, prior, 100_000, seed=7, proposal_scale=0.5)
        shape, rate = conjugate_posterior(TWO_OBS, prior)
        mean = summarize_chain(chain).mean
        assert abs(mean - shape / rate) / (shape / rate) < 0.01

    @pytest.mark.parametrize(
        "prior,counts,exposures,seed",
        [
            (PriorSpec(2.5, 1.5), [3, 0, 8], [1.5, 2.0, 0.7], 31),
            (PriorSpec(0.5, 0.2), [12], [4.0], 47),
            (PriorSpec(4.0, 8.0), [0, 0], [10.0, 10.0], 59),
        ],
    )
    def test_oracle_agreement_across_fixtures(self, prior, counts, exposures, seed):
        data = [
            DemandObservation(2012 + i, c, e)
            for i, (c, e) in enumerate(zip(counts, exposures))
        ]
        shape, rate = conjugate_posterior(data, prior)
        chain = metropolis_sample(data, prior, 100_000, seed=seed, proposal_scale=0.5)
        mean = summarize_chain(chain).mean
        assert abs(mean - shape / rate) / (shape / rate) < 0.01

    def test_extreme_scales_push_acceptance_to_limits(self):
        prior = PriorSpec(1.0, 1.0)
        wild = metropolis_sample(TWO_OBS, prior, 5000, seed=3, proposal_scale=200.0)
        timid = metropolis_sample(TWO_OBS, prior, 5000, seed=3, proposal_scale=1e-6)
        assert wild.acceptance_rate < 0.05
        assert timid.acceptance_rate > 0.95

    def test_burn_in_is_ten_percent(self):
        prior = PriorSpec(1.0, 1.0)
        chain = metropolis_sample(TWO_OBS, prior, 12345, seed=5)
        assert chain.burn_in == 1234
        assert chain.post_burn_in.size == 12345 - 1234

    def test_all_samples_positive(self):
        prior = PriorSpec(1.0, 1.0)
        chain = metropolis_sample(TWO_OBS, prior, 5000, seed=9)
        assert np.all(chain.samples > 0)

    def test_parameter_validation(self):
        prior = PriorSpec(1.0, 1.0)
        with pytest.raises(DomainError):
            metropolis_sample(TWO_OBS, prior, 0, seed=1)
        with pytest.raises(DomainError):
            metropolis_sample(TWO_OBS, prior, 100, seed=1, proposal_scale=0.0)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            metropolis_sample(TWO_OBS, prior, 100, seed=-1)

    def test_nonfinite_start_is_initialization_error(self):
        prior = PriorSpec(1e308, 1e-308)  # prior mean overflows to inf
        with pytest.raises(InitializationError):
            metropolis_sample(TWO_OBS, prior, 100, seed=1)

    def test_stationary_histogram_matches_analytic_posterior(self):
        # long-run occupancy vs the exact Gamma posterior on a 200-bin
        # grid, total variation distance under 0.02
        prior = PriorSpec(1.0, 1.0)
        chain = metropolis_sample(TWO_OBS, prior, 1_000_000, seed=2024, proposal_scale=0.5)
        shape, rate = conjugate_posterior(TWO_OBS, prior)
        dist = stats.gamma(a=shape, scale=1.0 / rate)
        edges = np.linspace(0.0, dist.ppf(1.0 - 1e-7), 201)
        kept = chain.post_burn_in
        counts, _ = np.histogram(kept, bins=edges)
        in_range = counts.sum()
        assert in_range > 0.999 * kept.size
        empirical = counts / in_range
        analytic = np.diff(dist.cdf(edges))
        analytic = analytic / analytic.sum()
        tv = 0.5 * np.abs(empirical - analytic).sum()
        assert tv < 0.02


class TestSummarizeChain:
    def make_chain(self, samples, burn_in=0):
        return PosteriorChain(
            samples=np.asarray(samples, dtype=float),
            seed=0,
            acceptance_rate=0.5,
            burn_in=burn_in,
        )

    def test_constant_chain(self):
        chain = self.make_chain([3.25] * 200)
        summary = summarize_chain(chain)
        assert summary.mean == 3.25
        assert summary.variance == 0.0
        assert summary.interval == (3.25, 3.25)

    def test_moments_match_analytic_gamma(self):
        prior = PriorSpec(1.0, 1.0)
        chain = metropolis_sample(TWO_OBS, prior, 100_000, seed=7, proposal_scale=0.5)
        shape, rate = conjugate_posterior(TWO_OBS, prior)
        summary = summarize_chain(chain)
        assert abs(summary.mean - shape / rate) / (shape / rate) < 0.01
        analytic_var = shape / rate**2
        assert abs(summary.variance - analytic_var) / analytic_var < 0.05
        assert summary.interval[0] < shape / rate < summary.interval[1]

    def test_too_few_samples_rejected(self):
        chain = self.make_chain([1.0] * 120, burn_in=30)
        with pytest.raises(InsufficientDataError):
            summarize_chain(chain)

    def test_burn_in_excluded_from_mean(self):
        samples = [100.0] * 50 + [2.0] * 150
        summary = summarize_chain(self.make_chain(samples, burn_in=50))
        assert summary.mean == 2.0
