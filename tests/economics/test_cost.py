"""Ownership-versus-cloud cost comparison (paper Section 6.2)."""

import pytest

from repro.cluster.peripherals import PeripheralSet, WIFI_ACCESS_POINT, USB_CHARGING_HUB
from repro.devices.catalog import C5_9XLARGE, PIXEL_3A, POWEREDGE_R740
from repro.economics.cost import (
    CloudRentalCostModel,
    FleetCostModel,
    cloudlet_vs_cloud_cost,
)


@pytest.fixture(scope="module")
def phone_fleet():
    accessories = PeripheralSet(items=((WIFI_ACCESS_POINT, 1), (USB_CHARGING_HUB, 2)))
    return FleetCostModel(device=PIXEL_3A, n_devices=10, peripherals=accessories)


@pytest.fixture(scope="module")
def c5_rental():
    return CloudRentalCostModel(instance=C5_9XLARGE)


class TestFleetCostModel:
    def test_purchase_cost(self, phone_fleet):
        cost = phone_fleet.cost(36.0)
        assert cost.purchase_usd == pytest.approx(700.0)
        assert cost.peripherals_usd == pytest.approx(80.0 + 2 * 25.0)

    def test_energy_cost_positive_and_linear(self, phone_fleet):
        one_year = phone_fleet.energy_cost_usd(12.0)
        three_years = phone_fleet.energy_cost_usd(36.0)
        assert one_year > 0
        assert three_years == pytest.approx(3 * one_year)

    def test_three_year_total_near_paper_figure(self, phone_fleet):
        # Paper: $1,027.60 for the ten-phone cloudlet over three years.
        total = phone_fleet.cost(36.0).total_usd
        assert 800 < total < 1_300

    def test_maintenance_cost_counts_replacement_packs(self, phone_fleet):
        with_maintenance = phone_fleet.cost(36.0, include_maintenance=True)
        without = phone_fleet.cost(36.0)
        assert with_maintenance.total_usd > without.total_usd

    def test_server_fleet_without_battery_has_no_maintenance(self):
        fleet = FleetCostModel(device=POWEREDGE_R740, n_devices=1)
        assert fleet.maintenance_cost_usd(36.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetCostModel(device=PIXEL_3A, n_devices=0)
        fleet = FleetCostModel(device=PIXEL_3A, n_devices=1)
        with pytest.raises(ValueError):
            fleet.energy_cost_usd(0.0)


class TestCloudRental:
    def test_three_year_on_demand_near_paper_figure(self, c5_rental):
        # Paper: $40,404 for three years of c5.9xlarge at $1.53/hour.
        assert c5_rental.cost_usd(36.0) == pytest.approx(40_300, rel=0.01)

    def test_hourly_rate_from_catalog_or_override(self, c5_rental):
        assert c5_rental.hourly_rate() == pytest.approx(1.53)
        override = CloudRentalCostModel(instance=C5_9XLARGE, usd_per_hour=2.0)
        assert override.hourly_rate() == 2.0

    def test_instance_without_price_requires_override(self):
        with pytest.raises(ValueError):
            CloudRentalCostModel(instance=POWEREDGE_R740).hourly_rate()


class TestComparison:
    def test_cloudlet_is_dramatically_cheaper(self, phone_fleet, c5_rental):
        comparison = cloudlet_vs_cloud_cost(phone_fleet, c5_rental, lifetime_months=36.0)
        assert comparison.savings_usd > 38_000
        # Paper: ~$1k versus ~$40k, i.e. roughly 40x cheaper.
        assert 25 < comparison.cost_ratio < 55

    def test_ratio_shrinks_for_shorter_deployments(self, phone_fleet, c5_rental):
        short = cloudlet_vs_cloud_cost(phone_fleet, c5_rental, lifetime_months=6.0)
        long = cloudlet_vs_cloud_cost(phone_fleet, c5_rental, lifetime_months=36.0)
        assert short.cost_ratio < long.cost_ratio


class TestChurnCosts:
    def test_churn_cost_prices_swaps_and_acquisitions(self):
        model = FleetCostModel(
            device=PIXEL_3A,
            n_devices=10,
            battery_replacement_usd=25.0,
            battery_swap_labor_min=30.0,
            labor_usd_per_hour=40.0,
            intake_acquisition_usd=35.0,
        )
        # 4 swaps: 4 * ($25 parts + 0.5 h * $40 labor) = $180; 3 spares: $105.
        assert model.churn_cost_usd(battery_swaps=4, devices_deployed=3) == pytest.approx(285.0)

    def test_acquisition_defaults_to_catalog_purchase_price(self):
        model = FleetCostModel(device=PIXEL_3A, n_devices=10)
        assert model.acquisition_usd_per_device == PIXEL_3A.purchase_price_usd
        assert model.churn_cost_usd(0, 2) == pytest.approx(2 * PIXEL_3A.purchase_price_usd)

    def test_negative_counters_rejected(self):
        model = FleetCostModel(device=PIXEL_3A, n_devices=10)
        with pytest.raises(ValueError):
            model.churn_cost_usd(-1, 0)
