"""Dollar-cost comparison of the junkyard cloudlet versus cloud rental.

Section 6.2 of the paper notes that the ten-phone cloudlet costs about
$1,027.60 over a three-year deployment (eBay phones plus Californian
electricity) while renting the c5.9xlarge it performs like costs roughly
$40,404 on-demand over the same period.  This module reproduces that
arithmetic and generalises it to arbitrary device fleets and tariffs so the
economics can be swept alongside the carbon analyses (TCO and carbon are not
always aligned — one of the paper's observations about existing metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import units
from repro.cluster.peripherals import PeripheralSet
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.devices.specs import DeviceSpec

#: Average Californian retail electricity price the cost model defaults to
#: ($ per kWh).
CALIFORNIA_ELECTRICITY_USD_PER_KWH = 0.22


@dataclass(frozen=True)
class OwnershipCost:
    """Cost breakdown of owning and operating a device fleet."""

    purchase_usd: float
    peripherals_usd: float
    energy_usd: float
    maintenance_usd: float = 0.0

    @property
    def total_usd(self) -> float:
        """Total cost of ownership."""
        return self.purchase_usd + self.peripherals_usd + self.energy_usd + self.maintenance_usd


@dataclass(frozen=True)
class FleetCostModel:
    """Purchase + electricity + churn cost model for a fleet of owned devices.

    Beyond the paper's purchase-plus-electricity arithmetic, the model prices
    the *churn* a long-running fleet generates (measured by
    :class:`~repro.fleet.reporting.FleetReport` counters): every battery swap
    costs a replacement pack plus ``battery_swap_labor_min`` minutes of
    technician time at ``labor_usd_per_hour``, and every spare deployed to
    replace a failed/retired device costs ``intake_acquisition_usd`` to
    acquire (eBay price, shipping, intake testing).  ``None`` acquisition
    defaults to the device's catalog purchase price.
    """

    device: DeviceSpec
    n_devices: int
    peripherals: PeripheralSet = field(default_factory=PeripheralSet.empty)
    load_profile: LoadProfile = LIGHT_MEDIUM
    electricity_usd_per_kwh: float = CALIFORNIA_ELECTRICITY_USD_PER_KWH
    battery_replacement_usd: float = 25.0
    battery_swap_labor_min: float = 15.0
    labor_usd_per_hour: float = 30.0
    intake_acquisition_usd: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ValueError("device count must be positive")
        if self.electricity_usd_per_kwh < 0:
            raise ValueError("electricity price must be non-negative")
        if self.battery_replacement_usd < 0:
            raise ValueError("battery replacement cost must be non-negative")
        if self.battery_swap_labor_min < 0:
            raise ValueError("battery-swap labor minutes must be non-negative")
        if self.labor_usd_per_hour < 0:
            raise ValueError("labor rate must be non-negative")
        if self.intake_acquisition_usd is not None and self.intake_acquisition_usd < 0:
            raise ValueError("intake acquisition cost must be non-negative")

    def average_power_w(self) -> float:
        """Average fleet power including peripherals."""
        return (
            self.n_devices * self.device.average_power_w(self.load_profile)
            + self.peripherals.total_power_w
        )

    def energy_cost_usd(self, lifetime_months: float) -> float:
        """Electricity cost over the deployment."""
        if lifetime_months <= 0:
            raise ValueError("lifetime must be positive")
        kwh = units.joules_to_kwh(
            self.average_power_w() * units.months_to_seconds(lifetime_months)
        )
        return kwh * self.electricity_usd_per_kwh

    def maintenance_cost_usd(self, lifetime_months: float) -> float:
        """Battery-replacement parts cost over the deployment (labour excluded)."""
        if self.device.battery is None:
            return 0.0
        from repro.devices.battery import replacements_over_lifetime

        packs = replacements_over_lifetime(
            self.device.battery,
            self.device.average_power_w(self.load_profile),
            lifetime_months,
        )
        replacements = max(0, packs - 1)
        return replacements * self.n_devices * self.battery_replacement_usd

    def cost(self, lifetime_months: float, include_maintenance: bool = False) -> OwnershipCost:
        """Full ownership cost over the deployment."""
        return OwnershipCost(
            purchase_usd=self.n_devices * self.device.purchase_price_usd,
            peripherals_usd=self.peripherals.total_cost_usd,
            energy_usd=self.energy_cost_usd(lifetime_months),
            maintenance_usd=(
                self.maintenance_cost_usd(lifetime_months) if include_maintenance else 0.0
            ),
        )

    # -- churn-driven costs (fleet subsystem) ------------------------------

    @property
    def acquisition_usd_per_device(self) -> float:
        """Cost of acquiring one replacement device into the spare pool."""
        if self.intake_acquisition_usd is not None:
            return self.intake_acquisition_usd
        return self.device.purchase_price_usd

    def battery_wear_cost_usd(self, throughput_kwh: float) -> float:
        """Pro-rated pack cost of cycling ``throughput_kwh`` through the fleet.

        The energy-dispatch ledger (UPS-as-carbon-buffer) consumes battery
        cycle life with every discharged kWh: ``throughput / (capacity *
        cycle_life)`` packs' worth of wear, each priced at a replacement pack
        plus the swap labour, linearly so scenarios can weigh carbon avoided
        against dollars of pack life spent.  Deliberately conservative: the
        cohort model cycle-counts all device energy too, so on horizons long
        enough to realise swaps this overlaps with :meth:`churn_cost_usd` —
        the dispatch mode is charged for its pack usage up front rather than
        only when a swap lands inside the window.
        """
        if throughput_kwh < 0:
            raise ValueError("battery throughput must be non-negative")
        battery = self.device.battery
        if battery is None or throughput_kwh == 0:
            return 0.0
        packs = (throughput_kwh * units.JOULES_PER_KWH) / (
            battery.capacity_joules * battery.cycle_life
        )
        labor_usd = self.battery_swap_labor_min / 60.0 * self.labor_usd_per_hour
        return packs * (self.battery_replacement_usd + labor_usd)

    def churn_cost_usd(self, battery_swaps: int, devices_deployed: int) -> float:
        """Cost of realised churn: swap parts + swap labor + spare acquisition.

        ``battery_swaps`` and ``devices_deployed`` are the counters a
        :class:`~repro.fleet.reporting.FleetReport` accumulates per site
        (``deployed`` counts only replacements — the initial deployment is
        charged as ``purchase_usd``).
        """
        if battery_swaps < 0 or devices_deployed < 0:
            raise ValueError("churn counters must be non-negative")
        labor_usd = (
            battery_swaps * self.battery_swap_labor_min / 60.0 * self.labor_usd_per_hour
        )
        parts_usd = battery_swaps * self.battery_replacement_usd
        acquisition_usd = devices_deployed * self.acquisition_usd_per_device
        return labor_usd + parts_usd + acquisition_usd


@dataclass(frozen=True)
class CloudRentalCostModel:
    """On-demand rental cost of a cloud instance."""

    instance: DeviceSpec
    usd_per_hour: Optional[float] = None

    def hourly_rate(self) -> float:
        """Hourly price, from the instance's catalog metadata unless overridden."""
        if self.usd_per_hour is not None:
            return self.usd_per_hour
        rate = self.instance.extra.get("on_demand_usd_per_hour")
        if rate is None:
            raise ValueError(
                f"{self.instance.name} has no on-demand price; pass usd_per_hour explicitly"
            )
        return float(rate)

    def cost_usd(self, lifetime_months: float) -> float:
        """Total rental cost over the deployment."""
        if lifetime_months <= 0:
            raise ValueError("lifetime must be positive")
        hours = units.months_to_hours(lifetime_months)
        return hours * self.hourly_rate()


@dataclass(frozen=True)
class CostComparison:
    """Side-by-side cost of an owned fleet versus a rented instance."""

    fleet: OwnershipCost
    cloud_usd: float
    lifetime_months: float

    @property
    def savings_usd(self) -> float:
        """Dollars saved by the owned fleet."""
        return self.cloud_usd - self.fleet.total_usd

    @property
    def cost_ratio(self) -> float:
        """Cloud cost divided by fleet cost (how many times cheaper the fleet is)."""
        if self.fleet.total_usd == 0:
            return float("inf")
        return self.cloud_usd / self.fleet.total_usd


def cloudlet_vs_cloud_cost(
    fleet: FleetCostModel,
    cloud: CloudRentalCostModel,
    lifetime_months: float = 36.0,
    include_maintenance: bool = False,
) -> CostComparison:
    """Compare a device fleet against renting a cloud instance for the same period."""
    return CostComparison(
        fleet=fleet.cost(lifetime_months, include_maintenance=include_maintenance),
        cloud_usd=cloud.cost_usd(lifetime_months),
        lifetime_months=lifetime_months,
    )
