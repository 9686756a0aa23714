"""Battery-level charging simulation against grid traces."""

import numpy as np
import pytest

from repro.charging.simulation import (
    ChargingSimulator,
    compare_policies,
    smart_charging_savings,
)
from repro.charging.smart_charging import AlwaysPlugged, NaiveCharging, SmartChargingPolicy
from repro.devices.catalog import PIXEL_3A, POWEREDGE_R740, THINKPAD_X1_CARBON_G3
from repro.grid.traces import CaisoLikeTraceGenerator, GridTrace


@pytest.fixture(scope="module")
def week_trace():
    return CaisoLikeTraceGenerator(seed=42).generate_days(7)


def test_device_without_battery_rejected():
    with pytest.raises(ValueError):
        ChargingSimulator(device=POWEREDGE_R740)


def test_always_plugged_has_zero_savings(week_trace):
    simulator = ChargingSimulator(device=PIXEL_3A, policy=AlwaysPlugged())
    result = simulator.run(week_trace)
    assert result.median_savings == pytest.approx(0.0, abs=1e-9)
    for day in result.days:
        assert day.carbon_g == pytest.approx(day.baseline_carbon_g, rel=1e-9)


def test_smart_charging_saves_carbon_for_pixel(week_trace):
    result = smart_charging_savings(PIXEL_3A, week_trace)
    assert result.median_savings > 0.02
    assert result.median_savings < 0.40
    assert result.overall_savings > 0.0


def test_pixel_saves_more_than_thinkpad(week_trace):
    pixel = smart_charging_savings(PIXEL_3A, week_trace)
    laptop = smart_charging_savings(THINKPAD_X1_CARBON_G3, week_trace)
    assert pixel.median_savings > laptop.median_savings


def test_soc_floor_respected(week_trace):
    simulator = ChargingSimulator(
        device=PIXEL_3A, policy=SmartChargingPolicy(min_state_of_charge=0.25)
    )
    result = simulator.run(week_trace)
    for day in result.days:
        # The floor may be crossed within one interval, but never collapses.
        assert day.minimum_state_of_charge > 0.10


def test_charging_fraction_is_plausible(week_trace):
    result = smart_charging_savings(PIXEL_3A, week_trace)
    for day in result.days:
        assert 0.03 < day.charging_time_fraction < 0.5


def test_energy_conservation_against_baseline(week_trace):
    # Smart charging shifts energy in time but the wall energy over a long
    # window stays close to the always-plugged draw (battery losses are not
    # modelled).
    simulator = ChargingSimulator(device=PIXEL_3A)
    result = simulator.run(week_trace, skip_first_day=False)
    draw_kwh_per_day = PIXEL_3A.average_power_w(simulator.load_profile) * 86_400 / 3.6e6
    total_wall = sum(day.wall_energy_kwh for day in result.days)
    assert total_wall == pytest.approx(draw_kwh_per_day * len(result.days), rel=0.15)


def test_compare_policies_ranks_smart_best(week_trace):
    results = compare_policies(
        PIXEL_3A,
        week_trace,
        policies=[AlwaysPlugged(), NaiveCharging(), SmartChargingPolicy()],
    )
    by_name = {r.policy_name: r for r in results}
    assert by_name["SmartChargingPolicy"].median_savings >= by_name["NaiveCharging"].median_savings
    assert by_name["SmartChargingPolicy"].median_savings > by_name["AlwaysPlugged"].median_savings


def test_requires_at_least_two_days():
    single_day = CaisoLikeTraceGenerator(seed=1).generate_days(1)
    simulator = ChargingSimulator(device=PIXEL_3A)
    with pytest.raises(ValueError):
        simulator.run(single_day)


def test_daily_savings_array_matches_days(week_trace):
    result = smart_charging_savings(PIXEL_3A, week_trace)
    assert len(result.daily_savings) == len(result.days) == 6  # first day skipped
    assert np.all(np.isfinite(result.daily_savings))
