"""Tests for the two-dimensional Q-fold cross validation (Sec. 4.2)."""

import numpy as np
import pytest

from repro.core.crossval import TwoDimensionalCV, make_folds
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import InsufficientDataError


class TestMakeFolds:
    def test_partition_is_exact(self, rng):
        folds = make_folds(20, 4, rng)
        assert len(folds) == 4
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(20))

    def test_near_equal_sizes(self, rng):
        folds = make_folds(10, 4, rng)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [2, 2, 3, 3]

    def test_deterministic_with_rng(self):
        a = make_folds(12, 3, np.random.default_rng(5))
        b = make_folds(12, 3, np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_too_few_samples(self, rng):
        with pytest.raises(InsufficientDataError):
            make_folds(3, 4, rng)

    def test_rejects_one_fold(self, rng):
        with pytest.raises(ValueError):
            make_folds(10, 1, rng)


class TestTwoDimensionalCV:
    def test_result_surface_shape(self, synthetic_prior, gaussian5, rng):
        grid = HyperParameterGrid.paper_default(5, n_kappa=4, n_v=3)
        cv = TwoDimensionalCV(synthetic_prior, grid)
        result = cv.select(gaussian5.sample(20, rng), rng=rng)
        assert result.scores.shape == (4, 3)
        assert np.all(np.isfinite(result.scores) | (result.scores == -np.inf))

    def test_winner_is_argmax(self, synthetic_prior, gaussian5, rng):
        grid = HyperParameterGrid.paper_default(5, n_kappa=4, n_v=4)
        result = TwoDimensionalCV(synthetic_prior, grid).select(
            gaussian5.sample(24, rng), rng=rng
        )
        assert result.best_score == pytest.approx(np.max(result.scores))
        assert result.score_at(result.kappa0, result.v0) == pytest.approx(
            result.best_score
        )

    def test_good_prior_selects_larger_v0_than_bad_prior(self, gaussian5, rng):
        """CV credibility ordering: perfect prior >> corrupted prior.

        A single draw is noisy, so compare medians over repeats.
        """
        good = PriorKnowledge(gaussian5.mean, gaussian5.covariance)
        bad = PriorKnowledge(gaussian5.mean, gaussian5.covariance * 25.0)
        grid = HyperParameterGrid.paper_default(5)
        good_v0, bad_v0 = [], []
        for _ in range(10):
            data = gaussian5.sample(16, rng)
            good_v0.append(TwoDimensionalCV(good, grid).select(data, rng=rng).v0)
            bad_v0.append(TwoDimensionalCV(bad, grid).select(data, rng=rng).v0)
        assert np.median(good_v0) > np.median(bad_v0)

    def test_bad_prior_covariance_gets_small_v0(self, gaussian5, rng):
        """A wildly wrong prior covariance must be downweighted."""
        prior = PriorKnowledge(gaussian5.mean, gaussian5.covariance * 50.0)
        grid = HyperParameterGrid.paper_default(5)
        result = TwoDimensionalCV(prior, grid).select(
            gaussian5.sample(64, rng), rng=rng
        )
        assert result.v0 < 5.0 + 10.0

    def test_bad_prior_mean_gets_small_kappa(self, gaussian5, rng):
        sigmas = np.sqrt(np.diag(gaussian5.covariance))
        prior = PriorKnowledge(gaussian5.mean + 5.0 * sigmas, gaussian5.covariance)
        grid = HyperParameterGrid.paper_default(5)
        result = TwoDimensionalCV(prior, grid).select(
            gaussian5.sample(64, rng), rng=rng
        )
        assert result.kappa0 < 1.0

    def test_fold_clamping(self, synthetic_prior, gaussian5, rng):
        """Requesting more folds than samples falls back to leave-one-out."""
        cv = TwoDimensionalCV(
            synthetic_prior, HyperParameterGrid.paper_default(5, n_kappa=2, n_v=2),
            n_folds=10,
        )
        result = cv.select(gaussian5.sample(4, rng), rng=rng)
        assert result.n_folds == 4

    def test_rejects_dim_mismatch(self, synthetic_prior, rng):
        cv = TwoDimensionalCV(synthetic_prior)
        with pytest.raises(InsufficientDataError):
            cv.select(rng.standard_normal((10, 3)))

    def test_rejects_single_sample(self, synthetic_prior, gaussian5, rng):
        with pytest.raises(InsufficientDataError):
            TwoDimensionalCV(synthetic_prior).select(gaussian5.sample(1, rng))

    def test_grid_prior_dim_mismatch(self, synthetic_prior):
        grid = HyperParameterGrid.paper_default(3)
        with pytest.raises(InsufficientDataError):
            TwoDimensionalCV(synthetic_prior, grid)
