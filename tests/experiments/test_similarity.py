"""Tests for the stage-similarity diagnostics."""

import numpy as np

from repro.circuits.montecarlo import PairedDataset
from repro.experiments.similarity import stage_similarity


def _make_dataset(rng, mean_shift=0.0, std_scale=1.0, n=800, d=4):
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d + np.eye(d)
    chol = np.linalg.cholesky(cov)
    base = rng.standard_normal((n, d)) @ chol.T
    early = base + 5.0
    late = base * std_scale + 5.0 + mean_shift
    return PairedDataset(
        early=early,
        late=late,
        early_nominal=np.full(d, 5.0),
        late_nominal=np.full(d, 5.0),
        metric_names=tuple(f"m{j}" for j in range(d)),
    )


class TestStageSimilarity:
    def test_identical_stages_near_zero(self, rng):
        report = stage_similarity(_make_dataset(rng))
        assert report.mean_mismatch_norm < 0.05
        assert report.cov_gap < 0.05
        assert np.allclose(report.std_ratio, 1.0, atol=0.01)
        assert report.hellinger < 0.05

    def test_mean_shift_detected(self, rng):
        # Shift not captured by the (equal) nominals: pure mean mismatch.
        report = stage_similarity(_make_dataset(rng, mean_shift=1.0))
        assert report.mean_mismatch_norm > 0.5
        assert report.cov_gap < 0.1  # covariance untouched

    def test_scale_change_detected(self, rng):
        report = stage_similarity(_make_dataset(rng, std_scale=1.5))
        assert np.all(report.std_ratio > 1.3)
        assert report.cov_gap > 0.5
        assert report.mean_mismatch_norm < 0.2

    def test_distances_increase_with_mismatch(self, rng):
        small = stage_similarity(_make_dataset(rng, mean_shift=0.2))
        large = stage_similarity(_make_dataset(rng, mean_shift=2.0))
        assert large.hellinger > small.hellinger
        assert large.wasserstein2 > small.wasserstein2


class TestRegimePredictions:
    def test_matched_stages_predict_large_hyperparams(self, rng):
        report = stage_similarity(_make_dataset(rng))
        assert report.expected_kappa0_regime(16) == "large"
        assert report.expected_v0_regime(16) == "large"
        assert "BMF recommended" in report.recommendation()

    def test_broken_stages_predict_fallback(self, rng):
        report = stage_similarity(
            _make_dataset(rng, mean_shift=8.0, std_scale=4.0)
        )
        assert report.expected_kappa0_regime(64) == "small"
        assert report.expected_v0_regime(256) == "small"
        assert "little gain" in report.recommendation(256)


class TestOnCircuits:
    def test_opamp_matches_paper_regime(self, opamp_dataset_small):
        """Our calibration target: op-amp mean weaker than covariance."""
        report = stage_similarity(opamp_dataset_small)
        assert report.cov_gap < 0.8
        # The mean mismatch should be non-trivial (drives small kappa0)...
        assert report.mean_mismatch_norm > 0.15
        # ...but the distributions overall remain similar.
        assert report.hellinger < 0.6

    def test_adc_matches_paper_regime(self, adc_dataset_small):
        """ADC: both moments well matched -> both priors trustworthy."""
        report = stage_similarity(adc_dataset_small)
        assert report.mean_mismatch_norm < 0.5
        assert report.cov_gap < 0.6
        assert "BMF recommended" in report.recommendation(8)
