"""Device cohort lifecycle: intake, aging, battery wear, churn, replacement."""

import numpy as np
import pytest

from repro.devices.catalog import PIXEL_3A, PROLIANT_DL380_G6
from repro.fleet.population import (
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
    steady_state_intake_rate,
)


def make_cohort(**overrides):
    defaults = dict(
        device=PIXEL_3A,
        policy=ReplacementPolicy(target_size=100),
        intake=IntakeStream(arrivals_per_day=2.0, initial_spares=10),
        failure_model=FailureModel(annual_rate=0.1, age_acceleration_per_year=0.05),
        seed=123,
    )
    defaults.update(overrides)
    return DeviceCohort(**defaults)


class TestCohortBasics:
    def test_initial_deployment_hits_target(self):
        cohort = make_cohort()
        assert cohort.active_count == 100
        assert cohort.availability == 1.0
        assert cohort.spares == 10

    def test_step_produces_consistent_records(self):
        cohort = make_cohort()
        steps = cohort.run(60)
        assert len(steps) == 60
        assert cohort.day == pytest.approx(60.0)
        for step in steps:
            assert step.active <= 100
            assert step.churn == step.failures + step.retirements
        assert cohort.total_failures == sum(s.failures for s in steps)
        assert cohort.total_deployed >= 100  # initial deployment counts

    def test_aging_accumulates_on_survivors(self):
        cohort = make_cohort(failure_model=FailureModel(0.0, 0.0))
        cohort.run(30)
        assert cohort.mean_age_days() == pytest.approx(30.0)

    def test_determinism(self):
        first = make_cohort().run(120)
        second = make_cohort().run(120)
        assert [s.failures for s in first] == [s.failures for s in second]
        assert [s.deployed for s in first] == [s.deployed for s in second]


class TestFailuresAndReplacement:
    def test_failures_deplete_without_intake(self):
        cohort = make_cohort(
            intake=IntakeStream(arrivals_per_day=0.0, initial_spares=0),
            failure_model=FailureModel(annual_rate=2.0),
        )
        cohort.run(365)
        assert cohort.active_count < 100
        assert cohort.total_failures > 0

    def test_intake_refills_the_fleet(self):
        cohort = make_cohort(
            intake=IntakeStream(arrivals_per_day=5.0, initial_spares=50),
            failure_model=FailureModel(annual_rate=1.0),
        )
        availability = [cohort.step().active for _ in range(180)]
        assert min(availability) >= 95  # spares cover the churn

    def test_deterministic_intake_without_poisson(self):
        cohort = make_cohort(
            intake=IntakeStream(arrivals_per_day=0.5, initial_spares=0, poisson=False),
            failure_model=FailureModel(0.0, 0.0),
        )
        cohort.run(10)
        assert cohort.spares == 5  # 0.5/day accumulates to one device every 2 days


class TestBatteryWear:
    def test_full_load_wears_batteries_out(self):
        # At full utilisation a Pixel 3A draws 2.5 W -> ~4.8 cycles/day ->
        # the 2,500-cycle pack wears out in ~520 days.
        cohort = make_cohort(failure_model=FailureModel(0.0, 0.0))
        for _ in range(540):
            cohort.step(1.0, utilization=1.0)
        assert cohort.total_battery_swaps > 0
        assert cohort.total_replacement_carbon_g > 0
        battery = PIXEL_3A.battery
        assert cohort.total_replacement_carbon_g == pytest.approx(
            cohort.total_battery_swaps * battery.embodied_carbon_kgco2e * 1_000.0
        )

    def test_no_swap_policy_retires_devices(self):
        cohort = make_cohort(
            policy=ReplacementPolicy(target_size=100, swap_batteries=False),
            intake=IntakeStream(arrivals_per_day=0.0, initial_spares=0),
            failure_model=FailureModel(0.0, 0.0),
        )
        for _ in range(540):
            cohort.step(1.0, utilization=1.0)
        assert cohort.total_battery_swaps == 0
        assert cohort.total_retirements > 0
        assert cohort.total_replacement_carbon_g == 0.0

    def test_batteryless_device_never_cycles(self):
        cohort = make_cohort(
            device=PROLIANT_DL380_G6,
            policy=ReplacementPolicy(target_size=10, swap_batteries=False),
            failure_model=FailureModel(0.0, 0.0),
        )
        cohort.run(365)
        assert cohort.total_battery_swaps == 0
        assert cohort.mean_battery_wear() == 0.0

    def test_mean_battery_wear_grows(self):
        cohort = make_cohort(failure_model=FailureModel(0.0, 0.0))
        cohort.step(1.0, utilization=1.0)
        wear_early = cohort.mean_battery_wear()
        for _ in range(100):
            cohort.step(1.0, utilization=1.0)
        assert cohort.mean_battery_wear() > wear_early > 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReplacementPolicy(target_size=0)
        with pytest.raises(ValueError):
            IntakeStream(arrivals_per_day=-1.0)
        with pytest.raises(ValueError):
            FailureModel(annual_rate=-0.1)
        with pytest.raises(ValueError):
            make_cohort().step(0.0)
        with pytest.raises(ValueError):
            make_cohort().step(1.0, utilization=1.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["annual_rate", "age_acceleration_per_year"])
    def test_failure_rates_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="non-negative and finite"):
            FailureModel(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_intake_rate_must_be_finite(self, value):
        with pytest.raises(ValueError, match="non-negative and finite"):
            IntakeStream(arrivals_per_day=value)

    @pytest.mark.parametrize("dt_days", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step_moves_no_state(self, dt_days):
        cohort = make_cohort()
        cohort.run(5)
        before = (
            cohort.active_count,
            cohort.spares,
            cohort.day,
            cohort.mean_age_days(),
            cohort._rng.bit_generator.state,
        )
        with pytest.raises(ValueError, match="positive and finite"):
            cohort.step(dt_days)
        after = (
            cohort.active_count,
            cohort.spares,
            cohort.day,
            cohort.mean_age_days(),
            cohort._rng.bit_generator.state,
        )
        assert after == before

    def test_bad_utilization_moves_no_state(self):
        cohort = make_cohort()
        state = cohort._rng.bit_generator.state
        with pytest.raises(ValueError, match="outside"):
            cohort.step(1.0, utilization=1.5)
        assert cohort._rng.bit_generator.state == state
        assert (cohort.active_count, cohort.day) == (100, 0.0)


def test_steady_state_intake_rate_sustains_fleet():
    policy = ReplacementPolicy(target_size=200)
    model = FailureModel(annual_rate=0.2, age_acceleration_per_year=0.0)
    rate = steady_state_intake_rate(PIXEL_3A, policy, model)
    assert rate > 0
    cohort = DeviceCohort(
        device=PIXEL_3A,
        policy=policy,
        intake=IntakeStream(arrivals_per_day=1.3 * rate, initial_spares=20),
        failure_model=model,
        seed=5,
    )
    availability = [cohort.step().active / 200 for _ in range(365)]
    assert np.mean(availability) > 0.97
