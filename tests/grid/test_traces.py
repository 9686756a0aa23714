"""Grid traces and the synthetic CAISO-like generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.grid.traces import CaisoLikeTraceGenerator, GridTrace


@pytest.fixture(scope="module")
def one_day():
    return CaisoLikeTraceGenerator(seed=7).generate_days(1)


@pytest.fixture(scope="module")
def five_days():
    return CaisoLikeTraceGenerator(seed=7).generate_days(5)


class TestGridTrace:
    def test_from_series_and_basic_properties(self):
        trace = GridTrace.from_series([100, 200, 300, 400], interval_s=600)
        assert len(trace) == 4
        assert trace.interval_s == 600
        assert trace.mean_intensity() == pytest.approx(250.0)
        assert trace.percentile(0) == pytest.approx(100.0)
        assert trace.percentile(100) == pytest.approx(400.0)

    def test_constant_trace(self):
        trace = GridTrace.constant(257.0, duration_s=3_600, interval_s=300)
        assert trace.mean_intensity() == pytest.approx(257.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridTrace.from_series([100.0])
        with pytest.raises(ValueError):
            GridTrace(times_s=np.array([0.0, 1.0]), intensity_g_per_kwh=np.array([1.0]))
        with pytest.raises(ValueError):
            GridTrace(times_s=np.array([1.0, 0.0]), intensity_g_per_kwh=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GridTrace(times_s=np.array([0.0, 1.0]), intensity_g_per_kwh=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="intensity_g_per_kwh must be finite"):
            GridTrace.from_series([100.0, bad, 300.0])
        with pytest.raises(ValueError, match="times_s must be finite"):
            GridTrace(
                times_s=np.array([0.0, 300.0, bad]),
                intensity_g_per_kwh=np.array([100.0, 200.0, 300.0]),
            )

    def test_intensity_at_interpolates_and_clamps(self):
        trace = GridTrace.from_series([100, 300], interval_s=100)
        assert trace.intensity_at(50) == pytest.approx(200.0)
        assert trace.intensity_at(-10) == pytest.approx(100.0)
        assert trace.intensity_at(1_000) == pytest.approx(300.0)

    def test_slice_and_day_split(self, five_days):
        assert five_days.n_days == 5
        day2 = five_days.day(2)
        assert day2.duration_s == pytest.approx(units.SECONDS_PER_DAY, rel=0.01)
        assert len(five_days.days()) == 5
        with pytest.raises(IndexError):
            five_days.day(5)

    def test_days_are_the_single_day_runs(self, five_days):
        """A run's day slices equal the one-day runs that start on those days."""
        generator = CaisoLikeTraceGenerator(seed=7)
        for index, day in enumerate(five_days.days()):
            alone = generator.generate_days(1, start_day=index)
            assert np.array_equal(day.times_s, alone.times_s)
            assert np.array_equal(day.intensity_g_per_kwh, alone.intensity_g_per_kwh)

    def test_stacked_supply_rows_are_the_single_day_stacks(self):
        """A day's supply row does not depend on the days sharing its call."""
        generator = CaisoLikeTraceGenerator(seed=7)
        stacked = generator.supply_mw(4, start_day=2)
        for day in range(4):
            alone = generator.supply_mw(1, start_day=2 + day)
            for source, rows in stacked.items():
                assert rows.shape == (4, 288)
                assert np.array_equal(rows[day], alone[source][0]), source

    def test_carbon_for_constant_power(self):
        trace = GridTrace.constant(250.0, duration_s=units.SECONDS_PER_DAY, interval_s=300)
        grams = trace.carbon_for_constant_power(1_000.0)
        # 1 kW for ~one day at 250 g/kWh is ~6 kg.
        expected = 1_000 * len(trace) * 300 / units.JOULES_PER_KWH * 250
        assert grams == pytest.approx(expected)

    def test_carbon_rejects_negative_power(self, one_day):
        with pytest.raises(ValueError):
            one_day.carbon_for_constant_power(-5.0)


class TestCaisoLikeGenerator:
    def test_day_has_5_minute_resolution(self, one_day):
        assert len(one_day) == 288
        assert one_day.interval_s == pytest.approx(300.0)

    def test_mean_intensity_near_california_average(self, five_days):
        assert 200 < five_days.mean_intensity() < 350

    def test_intensity_anticorrelated_with_solar(self, one_day):
        solar = CaisoLikeTraceGenerator(seed=7).supply_mw(1)["solar"][0]
        correlation = np.corrcoef(solar, one_day.intensity_g_per_kwh)[0, 1]
        assert correlation < -0.7

    def test_midday_cleaner_than_evening(self, one_day):
        hours = one_day.times_s / 3_600.0
        midday = one_day.intensity_g_per_kwh[(hours >= 11) & (hours < 15)].mean()
        evening = one_day.intensity_g_per_kwh[(hours >= 19) & (hours < 22)].mean()
        assert midday < evening

    def test_deterministic_for_seed(self):
        a = CaisoLikeTraceGenerator(seed=3).generate_days(1, start_day=1)
        b = CaisoLikeTraceGenerator(seed=3).generate_days(1, start_day=1)
        np.testing.assert_allclose(a.intensity_g_per_kwh, b.intensity_g_per_kwh)

    def test_days_differ_from_each_other(self):
        a, b = CaisoLikeTraceGenerator(seed=3).generate_days(2).days()
        assert not np.allclose(a.intensity_g_per_kwh, b.intensity_g_per_kwh)

    def test_generate_days_length(self):
        trace = CaisoLikeTraceGenerator(seed=1).generate_days(3)
        assert trace.n_days == 3
        assert len(trace) == 3 * 288

    def test_invalid_day_count(self):
        with pytest.raises(ValueError):
            CaisoLikeTraceGenerator().generate_days(0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_any_day_is_physically_sane(self, day_index):
        generator = CaisoLikeTraceGenerator(seed=11)
        day = generator.generate_days(1, start_day=day_index)
        assert np.all(day.intensity_g_per_kwh > 0)
        assert np.all(day.intensity_g_per_kwh < 820)  # never dirtier than pure coal
        assert np.all(generator.supply_mw(1, start_day=day_index)["solar"] >= 0)


class TestTraceEdgeCases:
    """Interval-boundary and wrap-around behaviour of slice/intensity_at."""

    def test_slice_is_half_open_at_interval_boundaries(self):
        trace = GridTrace.from_series([10, 20, 30, 40, 50, 60], interval_s=100)
        part = trace.slice(100, 400)
        # [100, 400) keeps the samples at 100, 200, 300 but not 400.
        assert list(part.intensity_g_per_kwh) == [20, 30, 40]
        # Times are re-based to zero.
        assert part.times_s[0] == 0.0
        assert part.times_s[-1] == 200.0

    def test_adjacent_slices_partition_the_trace(self):
        trace = GridTrace.from_series(list(range(10)), interval_s=100)
        left = trace.slice(0, 500)
        right = trace.slice(500, 1_000)
        rejoined = np.concatenate(
            [left.intensity_g_per_kwh, right.intensity_g_per_kwh]
        )
        assert np.array_equal(rejoined, trace.intensity_g_per_kwh)

    def test_slice_requires_at_least_two_samples(self):
        trace = GridTrace.from_series([10, 20, 30, 40], interval_s=100)
        with pytest.raises(ValueError, match="fewer than two samples"):
            trace.slice(150, 199)
        with pytest.raises(ValueError, match="end must be after start"):
            trace.slice(200, 200)

    def test_intensity_at_exact_sample_times(self):
        trace = GridTrace.from_series([10, 20, 30], interval_s=300)
        for i, expected in enumerate([10.0, 20.0, 30.0]):
            assert trace.intensity_at(i * 300.0) == pytest.approx(expected)

    def test_wraparound_periodicity(self):
        trace = GridTrace.from_series([10, 20, 30], interval_s=300)
        assert trace.period_s == pytest.approx(900.0)
        for t in (0.0, 150.0, 600.0):
            assert trace.intensity_at(t + trace.period_s, wrap=True) == pytest.approx(
                trace.intensity_at(t, wrap=True)
            )
            assert trace.intensity_at(t + 7 * trace.period_s, wrap=True) == pytest.approx(
                trace.intensity_at(t, wrap=True)
            )

    def test_wraparound_seam_interpolates_last_to_first(self):
        trace = GridTrace.from_series([10, 20, 30], interval_s=300)
        # Halfway between the last sample (30 at t=600) and the repeated
        # first sample (10 at t=900).
        assert trace.intensity_at(750.0, wrap=True) == pytest.approx(20.0)
        # Exactly at the period boundary, back to the first sample.
        assert trace.intensity_at(900.0, wrap=True) == pytest.approx(10.0)

    def test_wraparound_daily_trace_is_seamless(self, one_day):
        """A midnight-to-midnight day wraps with a one-day period."""
        assert one_day.period_s == pytest.approx(units.SECONDS_PER_DAY)
        noon = 12 * 3_600.0
        week_later = noon + 7 * units.SECONDS_PER_DAY
        assert one_day.intensity_at(week_later, wrap=True) == pytest.approx(
            one_day.intensity_at(noon)
        )

    def test_intensities_at_vectorizes_intensity_at(self, one_day):
        times = np.array([-100.0, 0.0, 40_000.0, 90_000.0])
        unwrapped = one_day.intensities_at(times)
        assert unwrapped == pytest.approx(
            [one_day.intensity_at(t) for t in times]
        )
        wrapped = one_day.intensities_at(times, wrap=True)
        assert wrapped == pytest.approx(
            [one_day.intensity_at(t, wrap=True) for t in times]
        )

    def test_negative_times_wrap_backwards(self):
        trace = GridTrace.from_series([10, 20, 30], interval_s=300)
        assert trace.intensity_at(-300.0, wrap=True) == pytest.approx(
            trace.intensity_at(600.0, wrap=True)
        )


class TestUniformSpacing:
    """The constructor holds every trace to the one uniform-spacing rule
    ``from_csv`` applies, after the historical checks in their order."""

    def test_uneven_times_are_rejected(self):
        with pytest.raises(ValueError) as error:
            GridTrace(times_s=[0, 100, 1000], intensity_g_per_kwh=[100, 200, 300])
        assert str(error.value) == (
            "trace times must be uniformly spaced; expected 100 s between "
            "samples but sample 2 is 900 s after its predecessor"
        )

    def test_overflowing_gap_is_rejected(self):
        # Each gap is +inf; every gap equal used to pass the spacing rule.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as error:
                GridTrace(times_s=[-1e308, 1e308], intensity_g_per_kwh=[1.0, 2.0])
        assert str(error.value) == "gaps between trace times must be finite"

    @pytest.mark.parametrize(
        "times, intensity, message",
        [
            ([0, np.nan, 2], [1, -1, 1], "times_s must be finite"),
            ([0, 1, 2], [1, np.inf, -1], "intensity_g_per_kwh must be finite"),
            ([0, 2, 1], [1, -1, 1], "trace times must be strictly increasing"),
            ([0, 1, 1], [1, 1, 1], "trace times must be strictly increasing"),
            # A repeat within the spacing slack of a tiny first gap.
            ([0, 1e-7, 1e-7], [1, 1, 1], "trace times must be strictly increasing"),
            ([0, 1, 5], [1, -1, 1], "carbon intensities must be non-negative"),
        ],
    )
    def test_earlier_faults_keep_their_messages(self, times, intensity, message):
        with pytest.raises(ValueError) as error:
            GridTrace(times_s=times, intensity_g_per_kwh=intensity)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "last, uniform", [("7200.0035", True), ("7200.0037", False)]
    )
    def test_constructor_and_csv_share_the_tolerance(self, tmp_path, last, uniform):
        """Gaps of 3600 s tolerate 1e-6 + 1e-6 * 3600 = 0.003601 s."""
        path = tmp_path / "grid.csv"
        path.write_text(f"timestamp,intensity_gco2_per_kwh\n0,1\n3600,2\n{last},3\n")
        times = np.array([0.0, 3600.0, float(last)])
        if uniform:
            GridTrace.from_csv(str(path))
            GridTrace(times_s=times, intensity_g_per_kwh=[1.0, 2.0, 3.0])
            return
        with pytest.raises(ValueError, match="uniformly spaced.*row 4"):
            GridTrace.from_csv(str(path))
        with pytest.raises(ValueError, match="uniformly spaced.*sample 2"):
            GridTrace(times_s=times, intensity_g_per_kwh=[1.0, 2.0, 3.0])

    def test_a_uniform_trace_keeps_its_lookups(self):
        trace = GridTrace(times_s=[0, 100, 200], intensity_g_per_kwh=[100, 200, 300])
        assert (trace.interval_s, trace.period_s) == (100.0, 300.0)
        assert trace.intensity_at(250, wrap=True) == pytest.approx(200.0)


class TestFromCsv:
    def test_bundled_sample_loads(self):
        from repro.grid.traces import CAISO_SAMPLE_CSV

        trace = GridTrace.from_csv(CAISO_SAMPLE_CSV)
        assert len(trace) == 72
        assert trace.interval_s == pytest.approx(3600.0)
        assert trace.times_s[0] == 0.0
        assert 150 < trace.mean_intensity() < 450

    def test_numeric_seconds_and_custom_columns(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("t,extra,ci\n0,x,100\n300,y,200\n600,z,150\n")
        trace = GridTrace.from_csv(str(path), time_col="t", intensity_col="ci")
        assert trace.intensity_g_per_kwh == pytest.approx([100.0, 200.0, 150.0])
        assert trace.interval_s == pytest.approx(300.0)

    def test_iso_timestamps_are_rebased_to_zero(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "timestamp,intensity_gco2_per_kwh\n"
            "2021-04-01T00:00:00+00:00,100\n"
            "2021-04-01T01:00:00+00:00,200\n"
        )
        trace = GridTrace.from_csv(str(path))
        assert trace.times_s == pytest.approx([0.0, 3600.0])

    def test_missing_column_names_available_ones(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("time,ci\n0,100\n300,200\n")
        with pytest.raises(ValueError, match="missing column 'timestamp'.*time, ci"):
            GridTrace.from_csv(str(path))

    def test_unparseable_cell_names_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("timestamp,intensity_gco2_per_kwh\n0,100\nnoon-ish,200\n")
        with pytest.raises(ValueError, match="row 3"):
            GridTrace.from_csv(str(path))

    def test_too_few_rows_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("timestamp,intensity_gco2_per_kwh\n0,100\n")
        with pytest.raises(ValueError, match="two data rows"):
            GridTrace.from_csv(str(path))

    def test_gapped_rows_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "timestamp,intensity_gco2_per_kwh\n"
            "0,100\n3600,110\n10800,120\n14400,130\n"
        )
        with pytest.raises(ValueError, match="uniformly spaced.*row 4"):
            GridTrace.from_csv(str(path))

    def test_non_finite_cells_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("timestamp,intensity_gco2_per_kwh\n0,100\n3600,NaN\n")
        with pytest.raises(ValueError, match="row 3.*not finite"):
            GridTrace.from_csv(str(path))
        path.write_text("timestamp,intensity_gco2_per_kwh\ninf,100\n3600,200\n")
        with pytest.raises(ValueError, match="row 2.*not finite"):
            GridTrace.from_csv(str(path))
