"""Tests for the normal-Wishart prior (Eq. 12-30) — the paper's core math."""

import numpy as np
import pytest

from repro.exceptions import DimensionError, HyperParameterError, NotSPDError
from repro.stats.normal_wishart import NormalWishart


@pytest.fixture
def nw(spd5, rng):
    mu0 = rng.standard_normal(5)
    return NormalWishart.from_early_stage(mu0, spd5, kappa0=3.0, v0=12.0)


class TestConstruction:
    def test_rejects_v0_at_dimension(self, spd5):
        with pytest.raises(HyperParameterError):
            NormalWishart.from_early_stage(np.zeros(5), spd5, kappa0=1.0, v0=5.0)

    def test_rejects_nonpositive_kappa(self, spd5):
        with pytest.raises(HyperParameterError):
            NormalWishart.from_early_stage(np.zeros(5), spd5, kappa0=0.0, v0=10.0)

    def test_rejects_shape_mismatch(self, spd5):
        with pytest.raises(DimensionError):
            NormalWishart(np.zeros(3), 1.0, 10.0, spd5)


class TestModeConstraints:
    """Eq. 15-20: the prior mode must sit exactly at the early moments."""

    def test_mode_mean_is_early_mean(self, nw):
        mu_m, _lam_m = nw.mode()
        assert np.allclose(mu_m, nw.mu0)

    def test_mode_precision_is_early_precision(self, spd5, rng):
        mu0 = rng.standard_normal(5)
        nw = NormalWishart.from_early_stage(mu0, spd5, kappa0=2.0, v0=20.0)
        _mu_m, lam_m = nw.mode()
        assert np.allclose(lam_m, np.linalg.inv(spd5), rtol=1e-8)

    def test_map_estimate_covariance_is_early_covariance(self, spd5, rng):
        mu0 = rng.standard_normal(5)
        nw = NormalWishart.from_early_stage(mu0, spd5, kappa0=2.0, v0=20.0)
        est = nw.map_estimate()
        assert np.allclose(est.covariance, spd5, rtol=1e-8)

    def test_t0_constraint_eq20(self, spd5, rng):
        # T0 = Lambda_E / (v0 - d)
        v0 = 14.0
        nw = NormalWishart.from_early_stage(rng.standard_normal(5), spd5, 1.0, v0)
        assert np.allclose(nw.T0, np.linalg.inv(spd5) / (v0 - 5), rtol=1e-8)


class TestDensity:
    def test_logpdf_peaks_at_mode(self, nw, rng):
        mu_m, lam_m = nw.mode()
        at_mode = nw.logpdf(mu_m, lam_m)
        for _ in range(10):
            mu = mu_m + 0.3 * rng.standard_normal(5)
            lam = lam_m * float(np.exp(0.2 * rng.standard_normal()))
            assert nw.logpdf(mu, lam) <= at_mode + 1e-9

    def test_normalizer_consistency_d1(self):
        # Numerically integrate the d=1 normal-gamma density over a grid
        # and check it is close to 1 (validates Z0 of Eq. 13).
        nw = NormalWishart(np.array([0.0]), 2.0, 5.0, np.array([[0.5]]))
        mus = np.linspace(-6, 6, 400)
        lams = np.linspace(1e-3, 20, 400)
        dmu = mus[1] - mus[0]
        dlam = lams[1] - lams[0]
        mu_grid, lam_grid = np.meshgrid(mus, lams)
        vals = np.exp(
            nw.logpdf_batch(mu_grid.reshape(-1, 1), lam_grid.reshape(-1, 1, 1))
        )
        total = float(np.sum(vals)) * dmu * dlam
        assert total == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("d", [1, 3])
    def test_logpdf_batch_matches_scalar(self, d, rng):
        a = rng.standard_normal((d, d))
        nw = NormalWishart(rng.standard_normal(d), 2.0, d + 4.0, a @ a.T + d * np.eye(d))
        mus = rng.standard_normal((4, d))
        b = rng.standard_normal((4, d, d))
        lams = b @ np.swapaxes(b, -1, -2) + d * np.eye(d)
        stacked = nw.logpdf_batch(mus, lams)
        scalar = [nw.logpdf(mu, lam) for mu, lam in zip(mus, lams)]
        assert np.allclose(stacked, scalar, rtol=0, atol=1e-12)

    def test_logpdf_batch_rejects_any_non_spd_member(self):
        nw = NormalWishart(np.zeros(2), 1.0, 5.0, np.eye(2))
        lams = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
        with pytest.raises(NotSPDError, match=r"lambda\[1\]"):
            nw.logpdf_batch(np.zeros((3, 2)), lams)
        lams[1] = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(NotSPDError, match=r"lambda\[1\]"):
            nw.logpdf_batch(np.zeros((3, 2)), lams)


class TestPosterior:
    """Eq. 24-28: conjugate update identities."""

    def test_counting_updates(self, nw, gaussian5, rng):
        data = gaussian5.sample(9, rng)
        post = nw.posterior(data)
        assert post.kappa0 == pytest.approx(nw.kappa0 + 9)   # Eq. 28
        assert post.v0 == pytest.approx(nw.v0 + 9)           # Eq. 27

    def test_posterior_mean_is_weighted_average(self, nw, gaussian5, rng):
        data = gaussian5.sample(9, rng)
        post = nw.posterior(data)
        xbar = data.mean(axis=0)
        expected = (nw.kappa0 * nw.mu0 + 9 * xbar) / (nw.kappa0 + 9)  # Eq. 24
        assert np.allclose(post.mu0, expected)

    def test_tn_inverse_identity(self, nw, gaussian5, rng):
        data = gaussian5.sample(7, rng)
        post = nw.posterior(data)
        xbar = data.mean(axis=0)
        centered = data - xbar
        scatter = centered.T @ centered
        diff = nw.mu0 - xbar
        expected_inv = (
            np.linalg.inv(nw.T0)
            + scatter
            + nw.kappa0 * 7 / (nw.kappa0 + 7) * np.outer(diff, diff)
        )  # Eq. 25
        assert np.allclose(np.linalg.inv(post.T0), expected_inv, rtol=1e-8)

    def test_sequential_equals_batch(self, nw, gaussian5, rng):
        """Conjugacy: updating twice with halves == once with all."""
        data = gaussian5.sample(10, rng)
        batch = nw.posterior(data)
        seq = nw.posterior(data[:4]).posterior(data[4:])
        assert seq.kappa0 == pytest.approx(batch.kappa0)
        assert seq.v0 == pytest.approx(batch.v0)
        assert np.allclose(seq.mu0, batch.mu0)
        assert np.allclose(seq.T0, batch.T0, rtol=1e-8)

    def test_rejects_wrong_width(self, nw):
        with pytest.raises(DimensionError):
            nw.posterior(np.zeros((3, 4)))


class TestSampling:
    def test_shapes(self, nw, rng):
        mus, lams = nw.sample(6, rng)
        assert mus.shape == (6, 5)
        assert lams.shape == (6, 5, 5)

    def test_mu_centered_on_mu0(self, nw, rng):
        mus, _lams = nw.sample(3000, rng)
        assert np.allclose(mus.mean(axis=0), nw.mu0, atol=0.1)


class TestPredictive:
    def test_predictive_mean_is_mu0(self, nw):
        mean, _cov = nw.posterior_predictive_moments()
        assert np.allclose(mean, nw.mu0)

    def test_predictive_cov_none_at_low_dof(self, spd5):
        nw = NormalWishart.from_early_stage(np.zeros(5), spd5, 1.0, 5.5)
        _mean, cov = nw.posterior_predictive_moments()
        assert cov is None

    def test_predictive_cov_wider_than_map(self, spd5):
        nw = NormalWishart.from_early_stage(np.zeros(5), spd5, 2.0, 30.0)
        _mean, cov = nw.posterior_predictive_moments()
        map_cov = nw.map_estimate().covariance
        # Predictive includes parameter uncertainty -> strictly wider trace.
        assert np.trace(cov) > np.trace(map_cov)

    def test_expected_covariance(self, spd5):
        nw = NormalWishart.from_early_stage(np.zeros(5), spd5, 1.0, 20.0)
        expected = np.linalg.inv(nw.T0) / (20.0 - 5 - 1)
        assert np.allclose(nw.expected_covariance(), expected)
