"""Tests for the convergence-rate analysis."""

import pytest

from repro.exceptions import DimensionError
from repro.experiments.convergence import convergence_report, fit_decay
from repro.experiments.sweep import ErrorSweep, SweepConfig


class TestFitDecay:
    def test_exact_power_law(self):
        curve = {n: 3.0 * n**-0.5 for n in (8, 16, 32, 64, 128)}
        fit = fit_decay(curve)
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(64) == pytest.approx(3.0 * 64**-0.5)

    def test_flat_curve_zero_slope(self):
        curve = {8: 0.4, 16: 0.4, 32: 0.4}
        fit = fit_decay(curve)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(DimensionError):
            fit_decay({8: 1.0, 16: 0.5})

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(DimensionError):
            fit_decay({8: 1.0, 16: 0.0, 32: 0.1})


class TestConvergenceReport:
    @pytest.fixture(scope="class")
    def sweep(self, opamp_dataset_small):
        return ErrorSweep(
            opamp_dataset_small,
            config=SweepConfig(sample_sizes=(8, 16, 32, 64, 128), n_repeats=10, seed=3),
        ).run()

    def test_mle_slope_near_half(self, sweep):
        """The end-to-end statistical sanity check: MLE error must decay
        like n^-1/2 on real simulator data."""
        report = convergence_report(sweep, "covariance")
        mle_fit = report["fits"]["mle"]
        assert -0.7 < mle_fit.slope < -0.3
        assert mle_fit.r_squared > 0.9

    def test_bmf_slope_shallower(self, sweep):
        """BMF starts near its floor, so its fitted decay is shallower."""
        report = convergence_report(sweep, "covariance")
        assert report["fits"]["bmf"].slope > report["fits"]["mle"].slope

    def test_implied_cost_ratio_positive(self, sweep):
        report = convergence_report(sweep, "covariance")
        assert report["implied_cost_ratio_at_16"] > 1.0

    def test_floor_is_minimum(self, sweep):
        report = convergence_report(sweep, "covariance")
        curve = sweep.cov_error_curve("bmf")
        assert report["bmf_floor"] == min(curve.values())

    def test_rejects_bad_metric(self, sweep):
        with pytest.raises(ValueError):
            convergence_report(sweep, "skew")
