"""Cloudlet-scale carbon designs (Figure 5)."""

import numpy as np
import pytest

from repro.cluster.cloudlet import (
    nexus4_cloudlet_design,
    paper_cloudlets,
    pixel_cloudlet_design,
    poweredge_baseline,
    proliant_cloudlet,
    thinkpad_cloudlet,
)
from repro.cluster.peripherals import SERVER_FAN, PeripheralSet
from repro.core.cci import DeviceCarbonModel
from repro.core.lifetime import crossover_month, default_lifetimes
from repro.devices.benchmarks import DIJKSTRA, PDF_RENDER, SGEMM
from repro.devices.catalog import NEXUS_4, PIXEL_3A, POWEREDGE_R740
from repro.grid.mix import california, zero_carbon


@pytest.fixture(scope="module")
def california_designs():
    return paper_cloudlets(SGEMM, regime="california")


class TestDesignConstruction:
    def test_paper_cloudlet_sizes_for_sgemm(self, california_designs):
        assert california_designs["PowerEdge R740"].n_devices == 1
        assert california_designs["ProLiant"].n_devices == 20
        assert california_designs["ThinkPad"].n_devices == 17
        assert california_designs["Pixel 3A"].n_devices == 54
        assert california_designs["Nexus 4"].n_devices in (255, 256)

    def test_nexus_cloudlet_consumes_more_power_than_poweredge(self, california_designs):
        # Paper: the Nexus 4 cluster draws ~456 W of device power, more than
        # the 309 W PowerEdge, yet still wins on carbon for short lifetimes.
        nexus = california_designs["Nexus 4"]
        server = california_designs["PowerEdge R740"]
        nexus_device_w = nexus.n_devices * NEXUS_4.average_power_w(nexus.load_profile)
        assert nexus_device_w > server.average_power_w

    def test_pixel_cloudlet_device_power_near_84w(self, california_designs):
        pixel = california_designs["Pixel 3A"]
        device_w = pixel.n_devices * PIXEL_3A.average_power_w(pixel.load_profile)
        assert device_w == pytest.approx(83, abs=2)
        assert pixel.average_power_w == pytest.approx(
            device_w + pixel.peripherals.total_power_w
        )

    def test_smartphone_designs_have_fans_and_plugs(self, california_designs):
        pixel = california_designs["Pixel 3A"]
        assert pixel.peripherals.total_embodied_kg > 0
        assert pixel.smart_charging
        assert pixel.include_battery_replacement

    def test_solar_regime_drops_plugs_and_batteries(self):
        designs = paper_cloudlets(SGEMM, regime="solar")
        pixel = designs["Pixel 3A"]
        assert not pixel.smart_charging
        assert not pixel.include_battery_replacement
        # Only the cooling fan remains.
        assert pixel.peripherals.total_embodied_kg == pytest.approx(9.3)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            paper_cloudlets(SGEMM, regime="mars")

    def test_validation(self):
        with pytest.raises(ValueError, match="device count must be positive"):
            DeviceCarbonModel(PIXEL_3A, n_devices=0, energy_mix=california())
        with pytest.raises(ValueError, match="network rate must be non-negative"):
            DeviceCarbonModel(PIXEL_3A, n_devices=3, network_rate_bytes_per_s=-1.0)
        with pytest.raises(ValueError, match="smart charging is not applicable"):
            DeviceCarbonModel(
                POWEREDGE_R740,
                n_devices=1,
                energy_mix=california(),
                smart_charging=True,
            )
        with pytest.raises(ValueError, match="cannot include battery replacement"):
            DeviceCarbonModel(
                POWEREDGE_R740, n_devices=2, include_battery_replacement=True
            )


class TestCarbonBehaviour:
    def test_reused_designs_have_no_device_embodied_carbon(self, california_designs):
        proliant = california_designs["ProLiant"]
        assert proliant.embodied_carbon_g(36.0) == 0.0

    def test_new_server_pays_embodied(self, california_designs):
        server = california_designs["PowerEdge R740"]
        assert server.carbon_components(36.0).embodied_g == pytest.approx(3.0e6)

    def test_battery_replacement_grows_stepwise(self, california_designs):
        pixel = california_designs["Pixel 3A"]
        early = pixel.embodied_carbon_g(12.0)
        late = pixel.embodied_carbon_g(40.0)
        assert late > early

    def test_networking_term_positive_and_small(self, california_designs):
        pixel = california_designs["Pixel 3A"]
        components = pixel.carbon_components(36.0)
        assert 0 < components.networking_g < components.operational_g

    def test_throughput_matches_or_exceeds_baseline(self, california_designs):
        server = california_designs["PowerEdge R740"]
        for name in ("Pixel 3A", "ThinkPad", "ProLiant"):
            assert california_designs[name].throughput(SGEMM) >= server.throughput(SGEMM)

    def test_smart_charging_discounts_device_draw_only(self):
        # Peripherals and the network are charged at the plain grid
        # intensity; only the battery-backed devices' draw is discounted.
        fans = PeripheralSet.empty().with_item(SERVER_FAN, 2)
        kwargs = dict(
            n_devices=10,
            energy_mix=california(smart_charging_discount=0.5),
            peripherals=fans,
            network_rate_bytes_per_s=1e6,
        )
        plain = DeviceCarbonModel(PIXEL_3A, **kwargs)
        smart = DeviceCarbonModel(PIXEL_3A, smart_charging=True, **kwargs)
        bare = DeviceCarbonModel(PIXEL_3A, n_devices=10, energy_mix=kwargs["energy_mix"])
        assert smart.networking_carbon_g(12.0) == plain.networking_carbon_g(12.0)
        assert plain.operational_carbon_g(12.0) > bare.operational_carbon_g(12.0)
        device_saving = 0.5 * bare.operational_carbon_g(12.0)
        assert smart.operational_carbon_g(12.0) == pytest.approx(
            plain.operational_carbon_g(12.0) - device_saving
        )

    def test_n_devices_scale_work_and_device_carbon(self):
        one = DeviceCarbonModel(PIXEL_3A, reused=False, include_battery_replacement=True)
        many = DeviceCarbonModel(
            PIXEL_3A, n_devices=7, reused=False, include_battery_replacement=True
        )
        assert many.total_work(SGEMM, 24.0) == pytest.approx(7 * one.total_work(SGEMM, 24.0))
        assert many.embodied_carbon_g(24.0) == pytest.approx(7 * one.embodied_carbon_g(24.0))
        assert many.cci(SGEMM, 24.0) == pytest.approx(one.cci(SGEMM, 24.0))


class TestFigure5Shape:
    def test_pixel_always_beats_new_server(self, california_designs):
        months = default_lifetimes()
        pixel = california_designs["Pixel 3A"].cci_series(SGEMM, months)
        server = california_designs["PowerEdge R740"].cci_series(SGEMM, months)
        assert np.all(pixel < server)

    def test_nexus_crossover_in_paper_range(self, california_designs):
        # Paper: the Nexus 4 cluster is more carbon-efficient than a new
        # PowerEdge for SGEMM only for lifetimes below ~45 months.
        months = default_lifetimes()
        nexus = california_designs["Nexus 4"].cci_series(SGEMM, months)
        server = california_designs["PowerEdge R740"].cci_series(SGEMM, months)
        crossover = crossover_month(months, nexus, server)
        assert crossover is not None
        assert 30 <= crossover <= 60

    def test_old_server_is_worst_for_pdf_render(self):
        designs = paper_cloudlets(PDF_RENDER, regime="california")
        at_36 = {name: design.cci(PDF_RENDER, 36.0) for name, design in designs.items()}
        assert at_36["ProLiant"] == max(at_36.values())

    def test_pixel_best_for_dijkstra(self):
        designs = paper_cloudlets(DIJKSTRA, regime="california")
        at_36 = {name: design.cci(DIJKSTRA, 36.0) for name, design in designs.items()}
        assert min(at_36, key=at_36.get) == "Pixel 3A"

    def test_solar_regime_lowers_cci_for_everyone(self):
        ca = paper_cloudlets(SGEMM, regime="california")
        solar = paper_cloudlets(SGEMM, regime="solar")
        for name in ca:
            assert solar[name].cci(SGEMM, 36.0) < ca[name].cci(SGEMM, 36.0)

    def test_zero_carbon_leaves_only_embodied_for_new_server(self):
        server = poweredge_baseline(zero_carbon())
        components = server.carbon_components(36.0)
        assert components.operational_g == 0.0
        assert components.total_g == components.embodied_g


class TestIndividualFactories:
    def test_factories_return_sensible_designs(self):
        assert proliant_cloudlet(SGEMM).n_devices == 20
        assert thinkpad_cloudlet(SGEMM).n_devices == 17
        assert pixel_cloudlet_design(PDF_RENDER).n_devices == 22
        assert nexus4_cloudlet_design(DIJKSTRA).n_devices == 37

    def test_thinkpad_without_smart_charging_has_no_plugs(self):
        design = thinkpad_cloudlet(SGEMM, smart_charging=False)
        assert design.peripherals.total_embodied_kg == 0.0
