"""Device cohort lifecycle: intake, aging, battery wear, churn, replacement."""

import numpy as np
import pytest

from churn_oracle import run_alone
from repro.devices.catalog import PIXEL_3A, PROLIANT_DL380_G6
from repro.fleet.population import (
    ChurnTable,
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
    steady_state_intake_rate,
)


#: Count field -> a record built with that field set to a value.
COUNT_FIELDS = {
    "target_size": lambda value: ReplacementPolicy(target_size=value),
    "max_battery_swaps": lambda value: ReplacementPolicy(10, max_battery_swaps=value),
    "initial_spares": lambda value: IntakeStream(initial_spares=value),
}


def total(steps, field):
    return sum(getattr(step, field) for step in steps)


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
        table = ChurnTable([make_cohort()])
        assert table.active.tolist() == [100]
        assert table.spares.tolist() == [10]
        assert table.count[0, : table.width].tolist() == [100]

    def test_step_produces_consistent_records(self):
        table, steps = run_alone(make_cohort(), 60)
        assert len(steps) == 60
        assert steps[-1].day == pytest.approx(60.0)
        for step in steps:
            assert step.active <= 100
            assert step.churn == step.failures + step.retirements
        # Every device ever deployed is active or has left.
        assert 100 + total(steps, "deployed") == (
            table.active[0] + total(steps, "failures") + total(steps, "retirements")
        )

    def test_aging_accumulates_on_survivors(self):
        table, _ = run_alone(make_cohort(failure_model=FailureModel(0.0, 0.0)), 30)
        assert table.mean_age_days()[0] == pytest.approx(30.0)

    def test_determinism(self):
        _, first = run_alone(make_cohort(), 120)
        _, second = run_alone(make_cohort(), 120)
        assert [s.failures for s in first] == [s.failures for s in second]
        assert [s.deployed for s in first] == [s.deployed for s in second]

    def test_a_cohort_is_frozen_config(self):
        cohort = make_cohort()
        with pytest.raises(AttributeError):
            cohort.seed = 7
        run_alone(cohort, 30)
        assert cohort == make_cohort()


class TestFailuresAndReplacement:
    def test_failures_deplete_without_intake(self):
        cohort = make_cohort(
            intake=IntakeStream(arrivals_per_day=0.0, initial_spares=0),
            failure_model=FailureModel(annual_rate=2.0),
        )
        table, steps = run_alone(cohort, 365)
        assert table.active[0] < 100
        assert total(steps, "failures") > 0

    def test_intake_refills_the_fleet(self):
        cohort = make_cohort(
            intake=IntakeStream(arrivals_per_day=5.0, initial_spares=50),
            failure_model=FailureModel(annual_rate=1.0),
        )
        _, steps = run_alone(cohort, 180)
        assert min(step.active for step in steps) >= 95  # spares cover the churn

    def test_deterministic_intake_without_poisson(self):
        cohort = make_cohort(
            intake=IntakeStream(arrivals_per_day=0.5, initial_spares=0, poisson=False),
            failure_model=FailureModel(0.0, 0.0),
        )
        table, _ = run_alone(cohort, 10)
        assert table.spares[0] == 5  # 0.5/day accumulates to one device every 2 days


class TestBatteryWear:
    def test_full_load_wears_batteries_out(self):
        # At full utilisation a Pixel 3A draws 2.5 W -> ~4.8 cycles/day ->
        # the 2,500-cycle pack wears out in ~520 days.
        cohort = make_cohort(failure_model=FailureModel(0.0, 0.0))
        _, steps = run_alone(cohort, 540, utilization=1.0)
        swaps = total(steps, "battery_swaps")
        assert swaps > 0
        assert total(steps, "replacement_carbon_g") > 0
        battery = PIXEL_3A.battery
        assert total(steps, "replacement_carbon_g") == pytest.approx(
            swaps * battery.embodied_carbon_kgco2e * 1_000.0
        )

    def test_no_swap_policy_retires_devices(self):
        cohort = make_cohort(
            policy=ReplacementPolicy(target_size=100, swap_batteries=False),
            intake=IntakeStream(arrivals_per_day=0.0, initial_spares=0),
            failure_model=FailureModel(0.0, 0.0),
        )
        _, steps = run_alone(cohort, 540, utilization=1.0)
        assert total(steps, "battery_swaps") == 0
        assert total(steps, "retirements") > 0
        assert total(steps, "replacement_carbon_g") == 0.0

    def test_batteryless_device_never_cycles(self):
        cohort = make_cohort(
            device=PROLIANT_DL380_G6,
            policy=ReplacementPolicy(target_size=10, swap_batteries=False),
            failure_model=FailureModel(0.0, 0.0),
        )
        table, steps = run_alone(cohort, 365)
        assert total(steps, "battery_swaps") == 0
        assert table.mean_battery_wear().tolist() == [0.0]

    def test_mean_battery_wear_grows(self):
        table = ChurnTable([make_cohort(failure_model=FailureModel(0.0, 0.0))])
        table.step(1.0, [1.0])
        wear_early = table.mean_battery_wear()[0]
        for _ in range(100):
            table.step(1.0, [1.0])
        assert table.mean_battery_wear()[0] > wear_early > 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReplacementPolicy(target_size=0)
        with pytest.raises(ValueError):
            IntakeStream(arrivals_per_day=-1.0)
        with pytest.raises(ValueError):
            FailureModel(annual_rate=-0.1)
        with pytest.raises(ValueError):
            ChurnTable([make_cohort()]).step(0.0)
        with pytest.raises(ValueError):
            ChurnTable([make_cohort()]).step(1.0, [1.5])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["annual_rate", "age_acceleration_per_year"])
    def test_failure_rates_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="non-negative and finite"):
            FailureModel(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), True, np.bool_(True)])
    @pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
    def test_counts_must_be_integers(self, field, value):
        """A fractional or boolean count used to construct and then deploy
        a truncated fleet, or fail later inside the churn step."""
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            COUNT_FIELDS[field](value)

    def test_counts_accept_numpy_integers(self):
        cohort = make_cohort(
            policy=ReplacementPolicy(np.int64(5), max_battery_swaps=np.int32(2)),
            intake=IntakeStream(initial_spares=np.int64(3)),
        )
        table = ChurnTable([cohort])
        assert (table.active.tolist(), table.spares.tolist()) == ([5], [3])
        assert table.swap_budget.tolist() == [2]

    @pytest.mark.parametrize(
        "rate", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_request_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="must be positive and finite"):
            make_cohort(requests_per_device_s=rate)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_intake_rate_must_be_finite(self, value):
        with pytest.raises(ValueError, match="non-negative and finite"):
            IntakeStream(arrivals_per_day=value)

    @pytest.mark.parametrize("dt_days", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step_moves_no_state(self, dt_days):
        table, _ = run_alone(make_cohort(), 5)

        def state():
            return (
                table.active.tolist(),
                table.spares.tolist(),
                table.width,
                table.mean_age_days().tolist(),
                table._rngs[0].bit_generator.state,
            )

        before = state()
        with pytest.raises(ValueError, match="positive and finite"):
            table.step(dt_days)
        assert state() == before

    def test_bad_utilization_moves_no_state(self):
        table = ChurnTable([make_cohort()])
        state = table._rngs[0].bit_generator.state
        with pytest.raises(ValueError, match="outside"):
            table.step(1.0, [1.5])
        assert table._rngs[0].bit_generator.state == state
        assert (table.active.tolist(), table.width) == ([100], 1)


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
    _, steps = run_alone(cohort, 365)
    assert np.mean([step.active / 200 for step in steps]) > 0.97
