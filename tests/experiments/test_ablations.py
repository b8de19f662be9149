"""Tests for the ablation studies (reduced sizes — behaviour only)."""

import pytest

from repro.experiments.ablations import (
    ShrinkageEstimator,
    ablate_dimensionality,
    ablate_fixed_hyperparams,
    ablate_fold_count,
    ablate_prior_quality,
    ablate_shift_scale,
    ablate_shrinkage_baselines,
)
from repro.experiments.sweep import SweepConfig


@pytest.fixture(scope="module")
def tiny_config():
    return SweepConfig(sample_sizes=(8, 16), n_repeats=3, seed=13)


class TestShrinkageEstimatorAdapter:
    def test_names(self):
        assert ShrinkageEstimator("oas").name == "oas"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            ShrinkageEstimator("ridge")

    def test_estimate_valid(self, gaussian5, rng):
        est = ShrinkageEstimator("ledoit_wolf").estimate(gaussian5.sample(10, rng))
        est.validate()


class TestAblations:
    def test_shift_scale_arms(self, opamp_dataset_small, tiny_config):
        out = ablate_shift_scale(opamp_dataset_small, tiny_config)
        assert set(out) == {"with_shift_scale", "without_shift_scale"}

    def test_fixed_hyperparams_methods(self, opamp_dataset_small, tiny_config):
        result = ablate_fixed_hyperparams(
            opamp_dataset_small, pinned=((1.0, 10.0),), config=tiny_config
        )
        assert "bmf_cv" in result.methods
        assert "bmf_k1_v10" in result.methods

    def test_fold_count_methods(self, opamp_dataset_small, tiny_config):
        result = ablate_fold_count(
            opamp_dataset_small, fold_counts=(2, 4), config=tiny_config
        )
        assert set(result.methods) == {"bmf_q2", "bmf_q4"}

    def test_shrinkage_baseline_methods(self, opamp_dataset_small, tiny_config):
        result = ablate_shrinkage_baselines(opamp_dataset_small, tiny_config)
        assert set(result.methods) == {"mle", "bmf", "ledoit_wolf", "oas"}

    def test_prior_quality_kappa_decreases_with_bias(self, opamp_dataset_small):
        out = ablate_prior_quality(
            opamp_dataset_small,
            mean_bias_sigmas=(0.0, 3.0),
            n_late=24,
            n_repeats=6,
        )
        # A heavily biased prior mean must get a (weakly) smaller kappa0
        # and a larger mean error.
        assert out[3.0]["median_kappa0"] <= out[0.0]["median_kappa0"]
        assert out[3.0]["mean_error"] >= out[0.0]["mean_error"] * 0.8

    def test_selector_ablation_methods(self, opamp_dataset_small, tiny_config):
        from repro.experiments.ablations import ablate_selector

        result = ablate_selector(opamp_dataset_small, tiny_config)
        assert set(result.methods) == {"bmf_cv", "bmf_evidence", "mle"}

    def test_process_quality_ablation(self):
        """Fusion pays more on a mature process: heavy local mismatch
        amplifies the nonlinear layout interactions (the proximity
        quadratic scales with dvth^2), degrading the early-stage prior."""
        from repro.experiments.ablations import ablate_process_quality

        out = ablate_process_quality(
            local_scales=(0.5, 2.0), n_bank=250, n_repeats=6
        )
        assert out[0.5]["advantage"] > out[2.0]["advantage"]
        assert all(v["advantage"] > 1.0 for v in out.values())

    def test_non_gaussian_advantage_survives(self):
        from repro.experiments.ablations import ablate_non_gaussian

        out = ablate_non_gaussian(skew_levels=(0.0, 1.0), n_repeats=8)
        assert out[0.0]["advantage"] > 1.5
        assert out[1.0]["advantage"] > 1.5
        # Absolute errors grow with model violation for both methods.
        assert out[1.0]["mle_cov_error"] > out[0.0]["mle_cov_error"]

    def test_dimensionality_advantage_grows(self):
        out = ablate_dimensionality(dims=(2, 8), n_late=10, n_repeats=10)
        assert out[8]["advantage"] > out[2]["advantage"]
        assert all(v["bmf_cov_error"] > 0 for v in out.values())
