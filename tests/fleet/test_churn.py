"""Deploy-day bucket churn: exact conservation, determinism, and
distributional equivalence of the bucket and per-device failure draws."""

import dataclasses

import numpy as np
import pytest

from churn_oracle import run_alone
from repro.devices.catalog import PIXEL_3A
from repro.fleet.population import (
    CHURN_SAMPLERS,
    ChurnTable,
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
)

# A Pixel 3A whose battery wears out in ~2 months at high load, so swap and
# retirement paths fire inside short test horizons (the stock ~2.3-year
# cycle life would need a 900-day run to see a single wear event).
FAST_WEAR_PIXEL = dataclasses.replace(
    PIXEL_3A,
    battery=dataclasses.replace(PIXEL_3A.battery, cycle_life=40.0),
)


def build_cohort(
    sampler,
    device=FAST_WEAR_PIXEL,
    target=300,
    seed=0,
    intake_per_day=3.0,
    initial_spares=20,
    poisson=True,
    max_battery_swaps=1,
):
    return DeviceCohort(
        device,
        ReplacementPolicy(
            target_size=target, max_battery_swaps=max_battery_swaps
        ),
        intake=IntakeStream(
            arrivals_per_day=intake_per_day,
            initial_spares=initial_spares,
            poisson=poisson,
        ),
        failure_model=FailureModel(),
        seed=seed,
        sampler=sampler,
    )


def total(steps, field):
    return sum(getattr(step, field) for step in steps)


def slot_index(table):
    """A one-row table's slot -> column index and its live column counts."""
    slots = table.slots[0]
    return slots, slots[: table.n_slots[0]], table.count[0, : table.width]


class TestSamplerRegistry:
    """The constructor validates ``sampler`` against CHURN_SAMPLERS."""

    def test_known_samplers(self):
        assert CHURN_SAMPLERS == ("device", "bucket")
        for sampler in CHURN_SAMPLERS:
            assert ChurnTable([build_cohort(sampler)]).active.tolist() == [300]

    def test_unknown_sampler_raises(self):
        with pytest.raises(ValueError, match="unknown churn sampler.*device, bucket"):
            build_cohort("per-atom")

    def test_sampler_names(self):
        assert DeviceCohort(FAST_WEAR_PIXEL, ReplacementPolicy(10)).sampler == "device"
        assert build_cohort("bucket").sampler == "bucket"


class TestBucketConservation:
    def test_counts_and_carbon_conserved_every_step(self):
        _, steps = run_alone(build_cohort("bucket", seed=3), 200, utilization=0.9)
        embodied_g = 1_000.0 * FAST_WEAR_PIXEL.battery.embodied_carbon_kgco2e
        previous_active = 300
        for step in steps:
            assert (
                step.deployed - step.failures - step.retirements
                == step.active - previous_active
            )
            assert step.replacement_carbon_g == step.battery_swaps * embodied_g
            previous_active = step.active
        # The shrunk cycle life must actually exercise every lifecycle path.
        assert total(steps, "failures") > 0
        assert total(steps, "battery_swaps") > 0
        assert total(steps, "retirements") > 0

    def test_bucket_count_bounded_by_days(self):
        n_days = 250
        table, _ = run_alone(build_cohort("bucket", seed=5), n_days, utilization=0.9)
        live = np.count_nonzero(table.count[0, : table.width])
        peak = int(table.buckets_peak()[0])
        # Only deployment fills a column (one per step, plus the initial
        # one), and emptied columns stop counting as live.
        assert peak <= n_days + 1
        assert live <= peak
        # At steady state the population spans far fewer distinct states
        # than it has members.
        assert live < table.active[0]

    def test_wear_hits_whole_bucket_at_once(self):
        # No failures, no swaps allowed: the initial bucket crosses its
        # cycle life in lockstep and retires in a single step.
        cohort = DeviceCohort(
            FAST_WEAR_PIXEL,
            ReplacementPolicy(target_size=100, swap_batteries=False),
            intake=IntakeStream(arrivals_per_day=0.0, initial_spares=0),
            failure_model=FailureModel(
                annual_rate=0.0, age_acceleration_per_year=0.0
            ),
            seed=0,
            sampler="bucket",
        )
        table, steps = run_alone(cohort, 120, utilization=1.0)
        retire_days = [s.day for s in steps if s.retirements]
        assert len(retire_days) == 1
        assert steps[int(retire_days[0]) - 1].retirements == 100
        assert table.active[0] == 0


class TestBucketDeterminism:
    def test_same_seed_is_bitwise_identical(self):
        _, first = run_alone(build_cohort("bucket", seed=11), 150, utilization=0.8)
        _, second = run_alone(build_cohort("bucket", seed=11), 150, utilization=0.8)
        assert first == second

    def test_one_cohort_rebuilt_is_bitwise_identical(self):
        """A table reads its cohort, never writes it: a second table built
        from the same cohort steps the same trajectory."""
        cohort = build_cohort("device", seed=11)
        _, first = run_alone(cohort, 150, utilization=0.8)
        _, second = run_alone(cohort, 150, utilization=0.8)
        assert first == second

    def test_different_seeds_diverge(self):
        _, first = run_alone(build_cohort("bucket", seed=11), 150, utilization=0.8)
        _, second = run_alone(build_cohort("bucket", seed=12), 150, utilization=0.8)
        assert first != second


class TestDistributionalEquivalence:
    """Bucket and device engines draw from the same distribution.

    Binomial(count, p(age)) over a bucket is exactly the sum of count
    i.i.d. Bernoulli(p(age)) device draws, wear events are deterministic
    in both engines, and intake/deploy arithmetic is identical — so every
    aggregate statistic must agree up to sampling noise across seeds.
    """

    N_SEEDS = 40
    N_DAYS = 220

    def _totals(self, sampler, seed, utilization):
        _, steps = run_alone(
            build_cohort(sampler, seed=seed), self.N_DAYS, utilization=utilization
        )
        tail = steps[self.N_DAYS // 2 :]
        return np.array(
            [
                total(steps, "failures"),
                total(steps, "battery_swaps"),
                total(steps, "retirements"),
                float(np.mean([s.active for s in tail])),
            ]
        )

    @pytest.mark.parametrize("utilization", [0.6, 0.95])
    def test_means_agree_across_seed_grid(self, utilization):
        device = np.array(
            [
                self._totals("device", seed, utilization)
                for seed in range(self.N_SEEDS)
            ]
        )
        bucket = np.array(
            [
                self._totals("bucket", seed, utilization)
                for seed in range(self.N_SEEDS)
            ]
        )
        labels = ("failures", "swaps", "retirements", "steady_active")
        for j, label in enumerate(labels):
            mean_d = device[:, j].mean()
            mean_b = bucket[:, j].mean()
            # Standard error of the difference of the two seed-grid means;
            # 5 sigma keeps the false-failure rate negligible while still
            # catching any systematic bias between the engines.
            sem = np.sqrt(
                (device[:, j].var(ddof=1) + bucket[:, j].var(ddof=1))
                / self.N_SEEDS
            )
            tolerance = 5.0 * max(sem, 1e-9) + 1e-9
            assert abs(mean_d - mean_b) < tolerance, (
                f"{label}: device {mean_d:.2f} vs bucket {mean_b:.2f} "
                f"(tolerance {tolerance:.2f})"
            )

    def test_failure_variance_agrees(self):
        device = np.array(
            [self._totals("device", s, 0.6)[0] for s in range(self.N_SEEDS)]
        )
        bucket = np.array(
            [self._totals("bucket", s, 0.6)[0] for s in range(self.N_SEEDS)]
        )
        # Variance of a variance estimate is large at N=40; a 3x band
        # still rules out structurally different sampling (e.g. one draw
        # for the whole population).
        ratio = device.var(ddof=1) / bucket.var(ddof=1)
        assert 1 / 3 < ratio < 3, f"variance ratio {ratio:.2f}"


class TestDeviceSamplerMicroOpts:
    """The slot pre-sizing and battery-skip paths stay bitwise-exact."""

    def test_slot_index_tracks_bucket_counts(self):
        # Every live slot holds its column and every gone slot is -1,
        # through failures, swaps and retirements.
        table = ChurnTable([build_cohort("device", seed=6, max_battery_swaps=0)])
        retirements = failures = 0
        for _ in range(150):
            out = table.step(1.0, [0.9])
            retirements += int(out["retirements"][0])
            failures += int(out["failures"][0])
            _, slots, counts = slot_index(table)
            live = np.bincount(slots[slots >= 0], minlength=len(counts))
            assert np.array_equal(live, counts)
        assert retirements > 0 and failures > 0

    def test_slot_index_grows_past_its_initial_size(self):
        # The index starts at twice the target; 200 days of intake deploy
        # more devices than that, so it must grow and keep every slot on
        # its column.
        cohort = build_cohort("device", seed=9)
        initial = len(slot_index(ChurnTable([cohort]))[0])
        assert initial == 2 * 300
        table, _ = run_alone(cohort, 200, utilization=0.9)
        index, slots, counts = slot_index(table)
        assert len(slots) > initial
        assert len(index) >= len(slots)
        live = np.bincount(slots[slots >= 0], minlength=len(counts))
        assert np.array_equal(live, counts)
        assert np.all(index[len(slots) :] == -1)

    def test_zero_draw_skips_wear_but_not_failures(self):
        # utilization=0 still has idle power on a real phone, so force a
        # zero draw via a zero-idle synthetic device to hit the skip path.
        from repro.devices.power import PiecewiseLinearPowerModel

        zero_idle = dataclasses.replace(
            FAST_WEAR_PIXEL,
            power_model=PiecewiseLinearPowerModel({0.0: 0.0, 1.0: 2.5}),
        )
        cohort = DeviceCohort(
            zero_idle,
            ReplacementPolicy(target_size=200),
            intake=IntakeStream(arrivals_per_day=2.0, initial_spares=5),
            seed=4,
        )
        table, steps = run_alone(cohort, 100, utilization=0.0)
        assert total(steps, "battery_swaps") == 0
        assert total(steps, "retirements") == 0
        assert total(steps, "failures") > 0
        assert float(table.battery_cycles.max()) == 0.0


class TestBucketSamplerSurface:
    """The bucket sampler presents the same read surface as the device one."""

    def test_means_and_availability(self):
        cohort = build_cohort("bucket", seed=2)
        table, _ = run_alone(cohort, 60, utilization=0.7)
        assert 0.0 < table.active[0] / cohort.policy.target_size <= 1.5
        assert table.mean_age_days()[0] > 0.0
        assert 0.0 <= table.mean_battery_wear()[0] <= 1.0
        assert cohort.average_draw_w(0.5) == FAST_WEAR_PIXEL.power_model.power_at(
            0.5
        )

    def test_invalid_arguments(self):
        table = ChurnTable([build_cohort("bucket")])
        with pytest.raises(ValueError):
            table.step(0.0)
        with pytest.raises(ValueError):
            table.step(1.0, [1.5])
        with pytest.raises(ValueError, match="at least one cohort"):
            ChurnTable([])
