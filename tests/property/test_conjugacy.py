"""Property-based tests of the conjugate machinery (hypothesis).

These check the *algebraic identities* the paper's derivation rests on,
over randomly generated dimensions, hyper-parameters and data:

* prior mode anchoring (Eq. 15-20),
* posterior counting and weighted-mean identities (Eq. 24-28),
* batch == sequential posterior (conjugacy),
* MAP formulas equal the posterior mode (Eq. 29-32),
* the MLE limits (Eq. 33-36).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.bmf import map_moments
from repro.core.prior import PriorKnowledge

# Keep example counts moderate: each example does several O(d^3) solves.
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def problem(draw):
    """A random (prior, data, kappa0, v0) tuple with valid shapes."""
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kappa0 = draw(st.floats(min_value=1e-3, max_value=1e3))
    v0_offset = draw(st.floats(min_value=1e-3, max_value=1e3))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    sigma_e = a @ a.T + (d + 1.0) * np.eye(d)
    mu_e = rng.standard_normal(d)
    data = rng.standard_normal((n, d)) * 1.5 + mu_e
    return PriorKnowledge(mu_e, sigma_e), data, kappa0, d + v0_offset


class TestPriorAnchoring:
    @SETTINGS
    @given(problem())
    def test_prior_mode_equals_early_moments(self, prob):
        prior, _data, kappa0, v0 = prob
        nw = prior.to_normal_wishart(kappa0, v0)
        mu_m, lam_m = nw.mode()
        assert np.allclose(mu_m, prior.mean)
        assert np.allclose(lam_m @ prior.covariance, np.eye(prior.dim), atol=1e-6)


class TestPosteriorIdentities:
    @SETTINGS
    @given(problem())
    def test_counting(self, prob):
        prior, data, kappa0, v0 = prob
        nw = prior.to_normal_wishart(kappa0, v0)
        post = nw.posterior(data)
        n = data.shape[0]
        assert np.isclose(post.kappa0, kappa0 + n)
        assert np.isclose(post.v0, v0 + n)

    @SETTINGS
    @given(problem())
    def test_posterior_mean_between_prior_and_data(self, prob):
        """mu_n is a convex combination: each coord inside the segment."""
        prior, data, kappa0, v0 = prob
        nw = prior.to_normal_wishart(kappa0, v0)
        post = nw.posterior(data)
        xbar = data.mean(axis=0)
        lo = np.minimum(prior.mean, xbar) - 1e-9
        hi = np.maximum(prior.mean, xbar) + 1e-9
        assert np.all(post.mu0 >= lo) and np.all(post.mu0 <= hi)

    @SETTINGS
    @given(problem())
    def test_batch_equals_sequential(self, prob):
        prior, data, kappa0, v0 = prob
        if data.shape[0] < 2:
            return
        nw = prior.to_normal_wishart(kappa0, v0)
        split = data.shape[0] // 2
        batch = nw.posterior(data)
        seq = nw.posterior(data[:split]).posterior(data[split:])
        assert np.isclose(seq.kappa0, batch.kappa0)
        assert np.allclose(seq.mu0, batch.mu0, atol=1e-8)
        assert np.allclose(seq.T0, batch.T0, rtol=1e-6, atol=1e-12)


class TestMapFormulas:
    @SETTINGS
    @given(problem())
    def test_map_equals_posterior_mode(self, prob):
        prior, data, kappa0, v0 = prob
        nw = prior.to_normal_wishart(kappa0, v0)
        mode = nw.posterior(data).map_estimate()
        mu, sigma = map_moments(prior, data, kappa0, v0)
        assert np.allclose(mode.mean, mu, atol=1e-9)
        assert np.allclose(mode.covariance, sigma, rtol=1e-6, atol=1e-12)

    @SETTINGS
    @given(problem())
    def test_map_covariance_is_spd(self, prob):
        prior, data, kappa0, v0 = prob
        _mu, sigma = map_moments(prior, data, kappa0, v0)
        np.linalg.cholesky(sigma + 1e-12 * np.eye(sigma.shape[0]))

    @SETTINGS
    @given(problem())
    def test_mean_mle_limit(self, prob):
        prior, data, _kappa0, v0 = prob
        mu, _ = map_moments(prior, data, 1e-12, v0)
        assert np.allclose(mu, data.mean(axis=0), atol=1e-6)

    @SETTINGS
    @given(problem())
    def test_mean_prior_limit(self, prob):
        prior, data, _kappa0, v0 = prob
        mu, _ = map_moments(prior, data, 1e12, v0)
        assert np.allclose(mu, prior.mean, atol=1e-6)

    @SETTINGS
    @given(problem())
    def test_covariance_prior_limit(self, prob):
        prior, data, kappa0, _v0 = prob
        _, sigma = map_moments(prior, data, kappa0, 1e12)
        assert np.allclose(sigma, prior.covariance, rtol=1e-4)
