"""The CCI metric and the single-device carbon model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cci import (
    DeviceCarbonModel,
    computational_carbon_intensity,
    second_life_cci,
)
from repro.devices.benchmarks import DIJKSTRA, PDF_RENDER, SGEMM
from repro.devices.catalog import (
    NEXUS_4,
    NEXUS_5,
    PIXEL_3A,
    POWEREDGE_R740,
    PROLIANT_DL380_G6,
)
from repro.grid.mix import california, solar_24_7, zero_carbon


class TestBareCCI:
    def test_ratio(self):
        assert computational_carbon_intensity(1_000.0, 500.0) == pytest.approx(2.0)

    def test_rejects_non_positive_work(self):
        with pytest.raises(ValueError):
            computational_carbon_intensity(1.0, 0.0)

    def test_rejects_negative_carbon(self):
        with pytest.raises(ValueError):
            computational_carbon_intensity(-1.0, 10.0)


class TestWorkRate:
    def test_throughput_from_benchmark_name(self):
        model = DeviceCarbonModel(PIXEL_3A)
        assert model.throughput("SGEMM") == pytest.approx(39.0)
        assert model.throughput(SGEMM) == model.throughput("SGEMM")
        assert PIXEL_3A.benchmark_suite.score("SGEMM").benchmark.work_unit == "Gflop"

    def test_throughput_scales_with_device_count(self):
        assert DeviceCarbonModel(PIXEL_3A, n_devices=54).throughput("SGEMM") == (
            pytest.approx(54 * 39.0)
        )

    def test_rejects_device_without_benchmark_suite(self):
        model = DeviceCarbonModel(NEXUS_5)
        with pytest.raises(ValueError, match="has no benchmark suite"):
            model.total_work("SGEMM", 12.0)

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError, match="no score for 'Bogus'"):
            DeviceCarbonModel(PIXEL_3A).cci("Bogus", 12.0)


class TestDeviceCarbonModel:
    def test_reused_device_has_zero_device_embodied(self):
        model = DeviceCarbonModel(PIXEL_3A, reused=True)
        assert model.carbon_components(36.0).embodied_g == 0.0

    def test_new_device_pays_embodied(self):
        model = DeviceCarbonModel(POWEREDGE_R740, reused=False)
        components = model.carbon_components(36.0)
        assert components.embodied_g == pytest.approx(3_000_000.0)

    def test_operational_scales_linearly_with_lifetime(self):
        model = DeviceCarbonModel(PIXEL_3A, reused=True)
        one = model.carbon_components(12.0).operational_g
        three = model.carbon_components(36.0).operational_g
        assert three == pytest.approx(3 * one)

    def test_battery_replacement_adds_embodied_steps(self):
        with_battery = DeviceCarbonModel(
            PIXEL_3A, reused=True, include_battery_replacement=True
        )
        without = DeviceCarbonModel(PIXEL_3A, reused=True)
        assert with_battery.carbon_components(36.0).embodied_g > 0
        assert without.carbon_components(36.0).embodied_g == 0

    def test_smart_charging_reduces_operational(self):
        plain = DeviceCarbonModel(PIXEL_3A, reused=True)
        smart = DeviceCarbonModel(PIXEL_3A, reused=True, smart_charging=True)
        assert (
            smart.carbon_components(36.0).operational_g
            < plain.carbon_components(36.0).operational_g
        )

    def test_smart_charging_requires_battery(self):
        with pytest.raises(ValueError):
            DeviceCarbonModel(POWEREDGE_R740, smart_charging=True)
        with pytest.raises(ValueError):
            DeviceCarbonModel(PROLIANT_DL380_G6, include_battery_replacement=True)

    def test_networking_term(self):
        model = DeviceCarbonModel(
            PIXEL_3A, reused=True, network_rate_bytes_per_s=1e6
        )
        components = model.carbon_components(12.0)
        assert components.networking_g > 0
        no_net = DeviceCarbonModel(PIXEL_3A, reused=True)
        assert no_net.carbon_components(12.0).networking_g == 0.0

    def test_zero_carbon_grid_leaves_only_embodied(self):
        model = DeviceCarbonModel(POWEREDGE_R740, reused=False, energy_mix=zero_carbon())
        components = model.carbon_components(36.0)
        assert components.operational_g == 0.0
        assert components.total_g == components.embodied_g

    def test_cci_decreases_with_lifetime_for_new_devices(self):
        model = DeviceCarbonModel(POWEREDGE_R740, reused=False)
        months = np.array([6.0, 12.0, 24.0, 48.0])
        series = model.cci_series(SGEMM, months)
        assert np.all(np.diff(series) < 0)

    def test_cci_constant_with_lifetime_for_reused_device_without_battery(self):
        model = DeviceCarbonModel(PROLIANT_DL380_G6, reused=True)
        series = model.cci_series(SGEMM, [6.0, 24.0, 60.0])
        assert series[0] == pytest.approx(series[-1], rel=1e-9)

    def test_reused_phone_beats_new_server_on_dijkstra(self):
        phone = DeviceCarbonModel(PIXEL_3A, reused=True)
        server = DeviceCarbonModel(POWEREDGE_R740, reused=False)
        assert phone.cci(DIJKSTRA, 36.0) < server.cci(DIJKSTRA, 36.0)

    def test_work_follows_light_medium_scaling(self):
        model = DeviceCarbonModel(PIXEL_3A, reused=True)
        work = model.total_work(SGEMM, 1.0)
        expected = 39.0 * 0.305 * 30.4375 * 86_400
        assert work == pytest.approx(expected, rel=1e-6)

    def test_cleaner_grid_means_lower_cci(self):
        dirty = DeviceCarbonModel(PIXEL_3A, reused=True, energy_mix=california())
        clean = DeviceCarbonModel(PIXEL_3A, reused=True, energy_mix=solar_24_7())
        assert clean.cci(SGEMM, 36.0) < dirty.cci(SGEMM, 36.0)

    def test_as_new_round_trip(self):
        model = DeviceCarbonModel(PIXEL_3A, reused=True)
        as_new = model.as_new()
        assert not as_new.reused
        assert as_new.device is PIXEL_3A

    def test_invalid_lifetime(self):
        model = DeviceCarbonModel(PIXEL_3A, reused=True)
        with pytest.raises(ValueError):
            model.carbon_components(0.0)
        with pytest.raises(ValueError):
            model.total_work(SGEMM, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1.0, max_value=120.0))
    def test_cci_is_positive_and_finite(self, months):
        model = DeviceCarbonModel(NEXUS_4, reused=True, include_battery_replacement=True)
        value = model.cci(PDF_RENDER, months)
        assert value > 0
        assert np.isfinite(value)


class TestSecondLifeCCI:
    def test_second_life_between_new_and_reused(self):
        reused = DeviceCarbonModel(PIXEL_3A, reused=True)
        new = DeviceCarbonModel(PIXEL_3A, reused=False)
        two_life = second_life_cci(
            first_life=new,
            second_life=reused,
            benchmark=SGEMM,
            first_life_months=24.0,
            second_life_months=36.0,
        )
        # Charging the manufacturing carbon but also crediting first-life work
        # lands between the pure-reuse and short-new-life extremes.
        assert reused.cci(SGEMM, 36.0) < two_life < new.cci(SGEMM, 24.0)

    def test_requires_same_device(self):
        with pytest.raises(ValueError):
            second_life_cci(
                DeviceCarbonModel(PIXEL_3A),
                DeviceCarbonModel(NEXUS_4),
                SGEMM,
                12.0,
                12.0,
            )
