"""Tests for the sample-budget planner."""

import pytest

from repro.exceptions import DimensionError
from repro.experiments.budget import BudgetPlanner
from repro.experiments.sweep import ErrorSweep, SweepConfig, SweepResult


def _fake_sweep(mle_coeff=4.0, bmf_coeff=1.0, bmf_slope=-0.2):
    """A synthetic sweep with exact power-law curves."""
    ns = (8, 16, 32, 64, 128)

    class Fake(SweepResult):
        def __init__(self):
            pass

        config = SweepConfig(sample_sizes=ns, n_repeats=1)
        methods = ["bmf", "mle"]
        mean_errors = {}
        cov_errors = {}
        hyperparams = {}

        def mean_error_curve(self, m):
            return self.cov_error_curve(m)

        def cov_error_curve(self, m):
            if m == "mle":
                return {n: mle_coeff * n**-0.5 for n in ns}
            return {n: bmf_coeff * n**bmf_slope for n in ns}

    return Fake()


class TestPlanner:
    def test_inverts_mle_power_law(self):
        planner = BudgetPlanner(_fake_sweep())
        plan = planner.plan(0.5)
        # 4 n^-1/2 = 0.5 -> n = 64.
        assert plan.n_mle == pytest.approx(64.0, rel=0.01)

    def test_bmf_requires_fewer(self):
        planner = BudgetPlanner(_fake_sweep())
        plan = planner.plan(0.7)
        assert plan.n_bmf < plan.n_mle
        assert plan.saving > 1.0

    def test_floor_detection(self):
        planner = BudgetPlanner(_fake_sweep())
        floor = planner.bmf_floor
        plan = planner.plan(floor * 0.5)
        assert plan.n_bmf is None
        assert plan.n_mle is not None

    def test_bmf_capped_by_mle(self):
        # A very shallow BMF fit must never be reported as needing more
        # samples than MLE.
        planner = BudgetPlanner(_fake_sweep(bmf_coeff=0.9, bmf_slope=-0.05))
        plan = planner.plan(0.4)
        if plan.n_bmf is not None and plan.n_mle is not None:
            assert plan.n_bmf <= plan.n_mle

    def test_plan_table_sorted(self):
        planner = BudgetPlanner(_fake_sweep())
        plans = planner.plan_table([0.4, 1.0, 0.6])
        targets = [p.target_error for p in plans]
        assert targets == [1.0, 0.6, 0.4]

    def test_max_error_for_budget(self):
        planner = BudgetPlanner(_fake_sweep())
        err_8 = planner.max_error_for_budget(8, "mle")
        err_64 = planner.max_error_for_budget(64, "mle")
        assert err_64 < err_8
        assert err_8 == pytest.approx(4.0 * 8**-0.5, rel=0.01)

    def test_rejects_bad_inputs(self):
        planner = BudgetPlanner(_fake_sweep())
        with pytest.raises(DimensionError):
            planner.plan(0.0)
        with pytest.raises(DimensionError):
            planner.plan_table([])
        with pytest.raises(DimensionError):
            planner.max_error_for_budget(1)
        with pytest.raises(DimensionError):
            planner.max_error_for_budget(8, "ridge")
        with pytest.raises(ValueError):
            BudgetPlanner(_fake_sweep(), metric="mode")

    def test_requires_both_methods(self, opamp_dataset_small):
        from repro.core.mle import MLEstimator

        sweep = ErrorSweep(
            opamp_dataset_small,
            estimators={"mle": lambda prior: MLEstimator()},
            config=SweepConfig(sample_sizes=(8, 16, 32), n_repeats=2),
        ).run()
        with pytest.raises(DimensionError):
            BudgetPlanner(sweep)

    def test_on_real_pilot(self, opamp_dataset_small):
        pilot = ErrorSweep(
            opamp_dataset_small,
            config=SweepConfig(sample_sizes=(8, 16, 32, 64), n_repeats=8, seed=4),
        ).run()
        planner = BudgetPlanner(pilot)
        loose = planner.plan(planner.max_error_for_budget(8, "mle"))
        assert loose.n_mle == pytest.approx(8.0, rel=0.3)
        assert loose.saving is None or loose.saving >= 1.0
