"""Charging policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.charging.smart_charging import (
    AlwaysPlugged,
    ChargingDecisionContext,
    NaiveCharging,
    SmartChargingPolicy,
    charge_percentile,
    charge_time_percentile,
    threshold_from_intensities,
)
from repro.devices.catalog import PIXEL_3A, THINKPAD_X1_CARBON_G3
from repro.grid.traces import GridTrace


def _context(intensity, soc, threshold=None, time_s=0.0):
    return ChargingDecisionContext(
        time_s=time_s,
        intensity_g_per_kwh=intensity,
        state_of_charge=soc,
        threshold_g_per_kwh=threshold,
    )


def test_always_plugged_always_charges():
    policy = AlwaysPlugged()
    policy.prepare_day(None, PIXEL_3A.battery, 1.54)
    assert policy.should_charge(_context(999.0, 1.0))
    assert policy.should_charge(_context(1.0, 0.0))


class TestNaiveCharging:
    def test_hysteresis(self):
        policy = NaiveCharging(low_watermark=0.25, high_watermark=0.9)
        policy.prepare_day(None, PIXEL_3A.battery, 1.54)
        assert not policy.should_charge(_context(100.0, 0.5))
        assert policy.should_charge(_context(100.0, 0.2))       # dropped below low
        assert policy.should_charge(_context(100.0, 0.5))       # keeps charging
        assert not policy.should_charge(_context(100.0, 0.95))  # reached high


class TestSmartChargingPolicy:
    def test_charge_time_percentile(self):
        # Pixel 3A: 1.54 W draw against an 18 W charger -> ~8.6 % of the day.
        p = SmartChargingPolicy.charge_time_percentile(PIXEL_3A.battery, 1.54)
        assert p == pytest.approx(8.6, abs=0.2)
        # ThinkPad: 11.47 W against a 45 W charger -> ~25 %.
        p_laptop = SmartChargingPolicy.charge_time_percentile(
            THINKPAD_X1_CARBON_G3.battery, 11.47
        )
        assert p_laptop == pytest.approx(25.5, abs=1.0)

    def test_threshold_from_previous_day_percentile(self):
        policy = SmartChargingPolicy(percentile_margin=0.0)
        previous = GridTrace.from_series([100, 200, 300, 400] * 72, interval_s=300)
        policy.prepare_day(previous, PIXEL_3A.battery, 1.54)
        assert policy.threshold_g_per_kwh is not None
        assert policy.threshold_g_per_kwh <= previous.percentile(10)

    def test_charges_below_threshold_only(self):
        policy = SmartChargingPolicy()
        previous = GridTrace.from_series([100, 200, 300, 400] * 72, interval_s=300)
        policy.prepare_day(previous, PIXEL_3A.battery, 1.54)
        threshold = policy.threshold_g_per_kwh
        assert policy.should_charge(_context(threshold - 1, 0.8, threshold))
        assert not policy.should_charge(_context(threshold + 50, 0.8, threshold))

    def test_forced_charge_below_soc_floor(self):
        policy = SmartChargingPolicy(min_state_of_charge=0.25)
        previous = GridTrace.from_series([100, 200, 300, 400] * 72, interval_s=300)
        policy.prepare_day(previous, PIXEL_3A.battery, 1.54)
        assert policy.should_charge(_context(10_000.0, 0.10))

    def test_never_charges_when_full(self):
        policy = SmartChargingPolicy()
        previous = GridTrace.from_series([100, 200, 300, 400] * 72, interval_s=300)
        policy.prepare_day(previous, PIXEL_3A.battery, 1.54)
        assert not policy.should_charge(_context(1.0, 1.0))

    def test_first_day_behaves_like_plugged(self):
        policy = SmartChargingPolicy()
        policy.prepare_day(None, PIXEL_3A.battery, 1.54)
        assert policy.should_charge(_context(500.0, 0.9))

    def test_fixed_percentile_override(self):
        policy = SmartChargingPolicy(fixed_percentile=50.0)
        previous = GridTrace.from_series([100, 200, 300, 400] * 72, interval_s=300)
        policy.prepare_day(previous, PIXEL_3A.battery, 1.54)
        assert policy.threshold_g_per_kwh == pytest.approx(previous.percentile(50.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            SmartChargingPolicy(min_state_of_charge=1.5)
        with pytest.raises(ValueError):
            SmartChargingPolicy(percentile_margin=-1.0)
        with pytest.raises(ValueError):
            SmartChargingPolicy(fixed_percentile=150.0)


class TestThresholdFromIntensities:
    """Hardening: bad sample arrays fail loudly, absent history stays None."""

    def test_no_history_returns_none(self):
        from repro.charging import threshold_from_intensities

        assert threshold_from_intensities(None, 50.0) is None

    def test_valid_samples_give_a_percentile_threshold(self):
        import numpy as np

        from repro.charging import threshold_from_intensities

        threshold = threshold_from_intensities(
            np.array([100.0, 200.0, 300.0, 400.0]), 50.0
        )
        assert threshold == pytest.approx(250.0)

    def test_empty_array_raises_naming_the_input(self):
        import numpy as np

        from repro.charging import threshold_from_intensities

        with pytest.raises(ValueError, match="intensities is empty"):
            threshold_from_intensities(np.array([]), 50.0)
        with pytest.raises(ValueError, match="intensities is empty"):
            threshold_from_intensities([], 50.0)
        with pytest.raises(ValueError, match="intensities is empty"):
            threshold_from_intensities(np.empty((0, 2)), np.array([50.0, 60.0]))

    def test_nan_samples_raise_naming_the_input(self):
        import numpy as np

        from repro.charging import threshold_from_intensities

        with pytest.raises(ValueError, match="intensities contains 1 non-finite"):
            threshold_from_intensities(np.array([100.0, np.nan, 300.0]), 50.0)
        with pytest.raises(ValueError, match="intensities contains 1 non-finite"):
            threshold_from_intensities(
                np.array([[100.0, np.nan], [300.0, 200.0]]), np.array([50.0, np.nan])
            )

    def test_infinite_samples_raise_with_the_offending_value(self):
        import numpy as np

        from repro.charging import threshold_from_intensities

        with pytest.raises(ValueError, match="inf"):
            threshold_from_intensities(np.array([np.inf, 100.0]), 50.0)


class TestChargePercentile:
    def test_adds_the_margin_to_the_charge_time_percentile(self):
        p = charge_time_percentile(PIXEL_3A.battery, 1.54)
        assert charge_percentile(PIXEL_3A.battery, 1.54) == min(100.0, p + 5.0)
        assert charge_percentile(PIXEL_3A.battery, 1.54, margin=0.0) == p

    def test_is_capped_at_100(self):
        assert charge_percentile(PIXEL_3A.battery, 1e6) == 100.0

    def test_the_policy_thresholds_at_it(self):
        previous = GridTrace.from_series([100, 250, 300, 425] * 72, interval_s=300)
        policy = SmartChargingPolicy(percentile_margin=2.5)
        policy.prepare_day(previous, PIXEL_3A.battery, 1.54)
        expected = threshold_from_intensities(
            previous.intensity_g_per_kwh,
            charge_percentile(PIXEL_3A.battery, 1.54, margin=2.5),
        )
        assert policy.threshold_g_per_kwh.hex() == expected.hex()


class TestMatrixThresholds:
    """``(H, C)`` samples with a ``(C,)`` percentile vector: one per column."""

    def test_each_column_gets_its_own_percentile(self):
        samples = np.array([[100.0, 10.0], [200.0, 20.0], [300.0, 30.0]])
        thresholds = threshold_from_intensities(samples, np.array([50.0, 100.0]))
        assert thresholds.tolist() == [200.0, 30.0]

    def test_a_nan_percentile_gives_a_nan_threshold(self):
        samples = np.array([[100.0, 10.0], [200.0, 20.0]])
        thresholds = threshold_from_intensities(samples, np.array([np.nan, 50.0]))
        assert np.isnan(thresholds[0]) and thresholds[1] == 15.0

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 30), st.integers(1, 8)),
            elements=st.integers(0, 12).map(float),
        ),
        st.data(),
    )
    def test_matches_the_per_column_call_bitwise(self, samples, data):
        """Integer-valued samples make ties common; percentiles repeat."""
        n_cols = samples.shape[1]
        choices = st.sampled_from([0.0, 8.6, 13.6, 50.0, 99.9, 100.0, np.nan])
        percentile = np.array([data.draw(choices) for _ in range(n_cols)])
        thresholds = threshold_from_intensities(samples, percentile)
        assert thresholds.shape == (n_cols,)
        for j in range(n_cols):
            if np.isnan(percentile[j]):
                assert np.isnan(thresholds[j])
            else:
                want = threshold_from_intensities(samples[:, j], percentile[j])
                assert thresholds[j].hex() == want.hex()

