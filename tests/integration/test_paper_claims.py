"""Integration tests of the paper's qualitative claims (reduced scale).

Full-scale replication lives in ``benchmarks/``; here the claims are
verified directionally with small banks/repeats so the suite stays fast:

* Sec. 5.1: BMF covariance accuracy at tiny n beats MLE by a large factor;
  optimal kappa0 is small while optimal v0 is large.
* Sec. 5.2: BMF beats MLE for both moments; both hyper-parameters large.
* Sec. 3.3: the CV adapts hyper-parameters to prior quality.
"""

import pytest

from repro.experiments.cost import cost_reduction
from repro.experiments.sweep import ErrorSweep, SweepConfig


@pytest.fixture(scope="module")
def opamp_sweep(opamp_dataset_small):
    return ErrorSweep(
        opamp_dataset_small,
        config=SweepConfig(sample_sizes=(8, 16, 64), n_repeats=12, seed=21),
    ).run()


@pytest.fixture(scope="module")
def adc_sweep(adc_dataset_small):
    return ErrorSweep(
        adc_dataset_small,
        config=SweepConfig(sample_sizes=(8, 16, 64), n_repeats=12, seed=22),
    ).run()


class TestOpampClaims:
    def test_bmf_covariance_dominates_at_small_n(self, opamp_sweep):
        bmf = opamp_sweep.cov_error_curve("bmf")
        mle = opamp_sweep.cov_error_curve("mle")
        assert bmf[8] < 0.6 * mle[8]
        assert bmf[16] < 0.7 * mle[16]

    def test_cost_reduction_factor(self, opamp_sweep):
        reduction = cost_reduction(opamp_sweep, metric="covariance")
        assert reduction.ratios[8] > 2.0

    def test_kappa0_small_v0_large(self, opamp_sweep):
        """Sec 5.1: 'optimized kappa0 quite small... v0 significantly larger'."""
        k0, v0 = opamp_sweep.hyperparam_medians(16)
        assert k0 < 50.0
        assert v0 > k0

    def test_mean_estimation_no_worse_than_mle(self, opamp_sweep):
        bmf = opamp_sweep.mean_error_curve("bmf")
        mle = opamp_sweep.mean_error_curve("mle")
        assert bmf[8] <= 1.15 * mle[8]


class TestAdcClaims:
    def test_bmf_wins_both_moments_at_n8(self, adc_sweep):
        assert adc_sweep.mean_error_curve("bmf")[8] < adc_sweep.mean_error_curve("mle")[8]
        assert adc_sweep.cov_error_curve("bmf")[8] < 0.5 * adc_sweep.cov_error_curve("mle")[8]

    def test_both_hyperparams_large(self, adc_sweep):
        """Sec 5.2: 'optimized values of v0 and kappa0 are all relatively large'."""
        k0, v0 = adc_sweep.hyperparam_medians(16)
        assert k0 > 5.0
        assert v0 > 50.0

    def test_error_small_even_at_eight_samples(self, adc_sweep):
        """'even if the number of late-stage samples is as small as eight,
        the error of BMF is already small enough'."""
        bmf = adc_sweep.cov_error_curve("bmf")
        mle = adc_sweep.cov_error_curve("mle")
        # BMF at n=8 roughly matches (or beats) MLE at n=64: ~8x cheaper.
        assert bmf[8] <= 1.25 * mle[64]


class TestConvergence:
    def test_bmf_and_mle_converge_with_n(self, opamp_sweep):
        """Both methods approach the truth; the BMF advantage shrinks."""
        bmf = opamp_sweep.cov_error_curve("bmf")
        mle = opamp_sweep.cov_error_curve("mle")
        gap_small_n = mle[8] - bmf[8]
        gap_large_n = mle[64] - bmf[64]
        assert gap_large_n < gap_small_n
