"""Lookahead planner: greedy setpoints and budgets, batched over packs."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    """One pack's plan: a single-row batch."""
    planner = LookaheadPlanner(**kwargs)
    forecast = np.asarray(forecast, dtype=float)[None, :]
    demand_j = np.full(forecast.shape, float(demand))
    return planner.plan_window(
        forecast, demand_j, [capacity], [charge_step], [soc]
    )[0]


def project(modes, demand_j, soc, capacity=CAPACITY_J,
            charge_step=CHARGE_STEP_J, **kwargs):
    """One pack's projected SoC: a single-row batch."""
    planner = LookaheadPlanner(**kwargs)
    return planner.project_state_of_charge(
        np.asarray(modes)[None, :], np.asarray(demand_j, dtype=float)[None, :],
        [capacity], [charge_step], [soc],
    )[0]


# -- the scalar planner, one pack at a time: the batched pass's oracle ------


def oracle_plan_window(forecast, demand, capacity_j, charge_step_j,
                       state_of_charge, min_state_of_charge=0.25):
    modes = np.full(len(forecast), DISPATCH_HOLD, dtype=np.int8)
    if capacity_j <= 0 or charge_step_j < 0:
        return modes
    budget_j = max(0.0, state_of_charge - min_state_of_charge) * capacity_j
    dirty_first = np.argsort(-forecast, kind="stable")
    clean_first = deque(int(h) for h in np.argsort(forecast, kind="stable"))
    for d in (int(h) for h in dirty_first):
        if demand[d] <= 0:
            continue
        while budget_j < demand[d] and clean_first:
            c = clean_first[0]
            if forecast[c] >= forecast[d]:
                break
            clean_first.popleft()
            if c == d or modes[c] != DISPATCH_HOLD:
                continue
            modes[c] = DISPATCH_CHARGE
            budget_j += charge_step_j
        if budget_j <= 0:
            break
        if modes[d] != DISPATCH_HOLD:
            continue
        modes[d] = DISPATCH_DISCHARGE
        budget_j -= min(budget_j, demand[d])
    return modes


def oracle_project_state_of_charge(modes, demand, capacity_j, charge_step_j,
                                   state_of_charge, min_state_of_charge=0.25):
    soc = float(state_of_charge)
    if capacity_j <= 0:
        return soc
    for mode, need_j in zip(modes, demand):
        if mode == DISPATCH_CHARGE:
            soc = min(1.0, soc + charge_step_j / capacity_j)
        elif mode == DISPATCH_DISCHARGE:
            available = max(0.0, soc - min_state_of_charge) * capacity_j
            soc -= min(need_j, available) / capacity_j
    return soc


INTENSITIES = st.floats(-50.0, 1_000.0)
DEMANDS = st.one_of(st.just(0.0), st.floats(0.0, 6_000.0))
#: Planning packs first (hypothesis favours the first branch), then
#: zero-capacity rows, zero charge steps and negative (never planning) ones.
CAPACITIES = st.one_of(st.floats(1.0, 20_000.0), st.just(0.0))
CHARGE_STEPS = st.one_of(st.floats(1.0, 5_000.0), st.just(0.0), st.just(-1.0))
#: SoCs at, below and above the 0.25 floor.
SOCS = st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 1.0))


@st.composite
def batches(draw):
    """A ``(P, H)`` planning batch; tied rows hold integer intensities."""
    n_packs = draw(st.integers(1, 8))
    n_hours = draw(st.integers(1, 48))
    forecast = draw(arrays(float, (n_packs, n_hours), elements=INTENSITIES))
    # Integer-valued rows (0..5) force rank ties.
    tied = draw(arrays(bool, n_packs))
    forecast[tied] = np.floor(np.abs(forecast[tied]) / 200.0)
    demand = draw(arrays(float, (n_packs, n_hours), elements=DEMANDS))

    def per_pack(values):
        return np.array(draw(st.lists(values, min_size=n_packs, max_size=n_packs)))

    return (
        forecast,
        demand,
        per_pack(CAPACITIES),
        per_pack(CHARGE_STEPS),
        per_pack(SOCS),
    )


class TestBatchedOracle:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_plans_and_projections_match_the_scalar_oracle(self, batch):
        forecast, demand, capacity, charge_step, soc = batch
        planner = LookaheadPlanner()
        modes = planner.plan_window(forecast, demand, capacity, charge_step, soc)
        projected = planner.project_state_of_charge(
            modes, demand, capacity, charge_step, soc
        )
        assert modes.shape == forecast.shape and modes.dtype == np.int8
        assert projected.shape == soc.shape
        for row in range(forecast.shape[0]):
            expected = oracle_plan_window(
                forecast[row], demand[row], capacity[row], charge_step[row],
                soc[row],
            )
            assert np.array_equal(modes[row], expected), row
            expected_soc = oracle_project_state_of_charge(
                expected, demand[row], capacity[row], charge_step[row], soc[row]
            )
            assert float(projected[row]).hex() == expected_soc.hex(), row

    @settings(max_examples=100, deadline=None)
    @given(batches(), st.integers(0, 2**32 - 1))
    def test_projection_of_any_modes_matches_the_oracle(self, batch, seed):
        forecast, demand, capacity, charge_step, soc = batch
        modes = np.random.default_rng(seed).choice(
            np.array([DISPATCH_HOLD, DISPATCH_CHARGE, DISPATCH_DISCHARGE], dtype=np.int8),
            size=forecast.shape,
        )
        projected = LookaheadPlanner().project_state_of_charge(
            modes, demand, capacity, charge_step, soc
        )
        for row in range(forecast.shape[0]):
            expected = oracle_project_state_of_charge(
                modes[row], demand[row], capacity[row], charge_step[row], soc[row]
            )
            assert float(projected[row]).hex() == expected.hex(), row


class TestPlanWindow:
    def test_dirtiest_hours_discharge_first(self):
        modes = plan([100.0, 500.0, 900.0, 200.0], soc=1.0)
        # Initial budget (0.75 * 10k J) covers all demand without charging.
        assert modes[2] == DISPATCH_DISCHARGE  # 900, the dirtiest
        assert modes[1] == DISPATCH_DISCHARGE  # 500
        assert np.all(modes != DISPATCH_CHARGE)

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
        forecast = np.array([[100.0, 900.0, 800.0]])
        demand_j = np.array([[0.0, 0.0, 1_000.0]])
        modes = planner.plan_window(
            forecast, demand_j, [CAPACITY_J], [CHARGE_STEP_J], [1.0]
        )[0]
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
        with pytest.raises(ValueError, match="two-dimensional"):
            planner.plan_window(np.ones(2), np.ones(2), [1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="two-dimensional"):
            planner.plan_window(
                np.ones((1, 2, 2)), np.ones((1, 2, 2)), [1.0], [1.0], [1.0]
            )
        with pytest.raises(ValueError, match="demand shape"):
            planner.plan_window(np.ones((1, 3)), np.ones((1, 4)), [1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="per-pack"):
            planner.plan_window(np.ones((2, 3)), np.ones((2, 3)), [1.0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            planner.plan_window(
                np.array([[1.0, np.nan]]), np.ones((1, 2)), [1.0], [1.0], [1.0]
            )
        with pytest.raises(ValueError, match="non-negative"):
            planner.plan_window(
                np.ones((1, 2)), np.array([[1.0, -1.0]]), [1.0], [1.0], [1.0]
            )
        with pytest.raises(ValueError, match="non-negative"):
            planner.plan_window(
                np.ones((1, 2)), np.array([[1.0, np.nan]]), [1.0], [1.0], [1.0]
            )

    def test_only_a_strictly_cleaner_hour_funds_a_discharge(self):
        funded = plan([100.0, 109.0], soc=0.25, demand=2_000.0)
        assert funded[1] == DISPATCH_DISCHARGE and funded[0] == DISPATCH_CHARGE
        tied = plan([100.0, 100.0], soc=0.25, demand=2_000.0)
        assert np.all(tied == DISPATCH_HOLD)


class TestProjection:
    def test_projection_tracks_charge_and_discharge(self):
        modes = np.array([DISPATCH_CHARGE, DISPATCH_DISCHARGE, DISPATCH_HOLD])
        demand_j = np.array([0.0, 3_000.0, 0.0])
        assert project(modes, demand_j, 0.5) == pytest.approx(0.5 + 0.2 - 0.3)

    def test_projection_respects_floor_and_ceiling(self):
        full = project(np.array([DISPATCH_CHARGE] * 10), np.zeros(10), 0.9,
                       min_state_of_charge=0.25)
        assert full == 1.0
        drained = project(np.array([DISPATCH_DISCHARGE] * 10),
                          np.full(10, 5_000.0), 1.0, min_state_of_charge=0.25)
        assert drained == pytest.approx(0.25)

    def test_validation(self):
        planner = LookaheadPlanner()
        with pytest.raises(ValueError, match="packs, hours"):
            planner.project_state_of_charge(
                np.zeros(3, dtype=np.int8), np.zeros(3), [1.0], [1.0], [1.0]
            )
        with pytest.raises(ValueError, match="per-pack"):
            planner.project_state_of_charge(
                np.zeros((2, 3), dtype=np.int8), np.zeros((2, 3)), [1.0], [1.0], [1.0]
            )
