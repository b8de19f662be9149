"""Tests for metric sensitivity analysis and variance budgeting."""

import pytest

from repro.circuits.opamp import TwoStageOpAmp
from repro.circuits.sensitivity import metric_sensitivities, variance_budget
from repro.exceptions import SimulationError


@pytest.fixture(scope="module")
def sim():
    return TwoStageOpAmp.schematic()


@pytest.fixture(scope="module")
def sens(sim):
    return metric_sensitivities(sim)


class TestJacobian:
    def test_covers_all_devices_and_params(self, sim, sens):
        assert len(sens.jacobian) == 2 * len(sim.devices)
        for device in sim.devices:
            assert sens.of(device.name, "dvth").shape == (5,)
            assert sens.of(device.name, "dkp_rel").shape == (5,)

    def test_offset_sensitivity_of_input_pair(self, sens):
        """Offset (index 3) responds ~1:1 to input-pair Vth mismatch and
        antisymmetrically between M1 and M2."""
        d1 = float(sens.of("M1", "dvth")[3])
        d2 = float(sens.of("M2", "dvth")[3])
        assert d1 == pytest.approx(1.0, rel=0.05)
        assert d2 == pytest.approx(-1.0, rel=0.05)

    def test_matched_pair_symmetric_on_gain(self, sens):
        """Gain is symmetric in the input pair: equal-magnitude opposite
        first-order effects (ideally zero; numerically small)."""
        g1 = float(sens.of("M1", "dvth")[0])
        g2 = float(sens.of("M2", "dvth")[0])
        assert g1 == pytest.approx(-g2, rel=0.2, abs=10.0)

    def test_bias_diode_drives_power(self, sens):
        """M8 sets every mirror's gate: its Vth moves the power strongly."""
        power_sens = abs(float(sens.of("M8", "dvth")[2]))
        pair_sens = abs(float(sens.of("M1", "dvth")[2]))
        assert power_sens > 10.0 * max(pair_sens, 1e-12)

    def test_ranking(self, sens):
        ranked = sens.ranked_for_metric(3)  # offset
        top_names = {(d, p) for d, p, _v in ranked[:4]}
        assert ("M1", "dvth") in top_names
        assert ("M2", "dvth") in top_names

    def test_unknown_pair_raises(self, sens):
        with pytest.raises(SimulationError):
            sens.of("M99", "dvth")

    def test_rejects_bad_step(self, sim):
        with pytest.raises(SimulationError):
            metric_sensitivities(sim, step_vth=0.0)


class TestVarianceBudget:
    @pytest.fixture(scope="class")
    def offset_budget(self, sim):
        return variance_budget(sim, metric_index=3, n_mc=200, seed=1)

    def test_shares_sum_to_one(self, offset_budget):
        assert sum(offset_budget["shares"].values()) == pytest.approx(1.0)

    def test_offset_dominated_by_input_devices(self, offset_budget):
        """Offset variance must come mostly from the pair and load mirror."""
        shares = offset_budget["shares"]
        front_end = shares["M1"] + shares["M2"] + shares["M3"] + shares["M4"]
        assert front_end > 0.8

    def test_linearisation_matches_monte_carlo(self, offset_budget):
        """Offset is an (almost) linear function of mismatch: the
        first-order budget must reproduce the MC variance closely."""
        ratio = offset_budget["linear_variance"] / offset_budget["mc_variance"]
        assert 0.7 < ratio < 1.4

    def test_metric_label(self, offset_budget):
        assert offset_budget["metric"] == "offset"
