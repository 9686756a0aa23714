"""Computational Carbon Intensity (CCI) — the paper's primary contribution.

CCI is the CO2-equivalent released per unit of useful computational work,
amortised over the full service lifetime of a device or system
(Equations 1-2):

.. math::

    \\mathrm{CCI} = \\frac{C_M + C_C + C_N}{\\sum_{\\mathrm{lifetime}} \\mathrm{ops}}

The metric rewards operational efficiency (through C_C), manufacturing
efficiency (through C_M), and the reuse of already-manufactured devices
(reused hardware has its C_M zeroed), while expressing everything per unit of
work so that devices of very different scales can be compared.

This module provides:

* :func:`computational_carbon_intensity` — the bare Equation 1 ratio;
* :class:`DeviceCarbonModel` — lifetime carbon and work for ``n_devices``
  identical devices (one by default) under a load profile and an energy
  mix, including battery replacements, attached peripherals and a sustained
  network rate, with :meth:`~DeviceCarbonModel.cci` /
  :meth:`~DeviceCarbonModel.cci_series` producing the Figure 2/5/6-style
  lifetime curves (the Figure 5 cloudlets are built in
  :mod:`repro.cluster.cloudlet`);
* :func:`second_life_cci` — the alternate two-life formulation of
  Equation 7, which charges the original manufacturing carbon but also
  credits the work performed during the device's first life.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro import units
from repro.core.carbon import (
    WIFI_ENERGY_INTENSITY_J_PER_BYTE,
    CarbonComponents,
    networking_carbon_g,
    operational_carbon_g,
)
from repro.devices.battery import replacement_carbon_kg
from repro.devices.benchmarks import MicroBenchmark
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.devices.specs import DeviceSpec
from repro.grid.mix import EnergyMix, california

if TYPE_CHECKING:  # repro.cluster imports this module, so no load-time import
    from repro.cluster.peripherals import PeripheralSet


def computational_carbon_intensity(total_carbon_g: float, total_work: float) -> float:
    """CCI = total carbon / total useful work (Equation 1).

    ``total_work`` is in whatever unit of work the caller chose (Gflop,
    Mpixel, requests, ...); the result is grams of CO2e per that unit.
    """
    if total_carbon_g < 0:
        raise ValueError("total carbon must be non-negative")
    if total_work <= 0:
        raise ValueError("total work must be positive")
    return total_carbon_g / total_work


@dataclass(frozen=True)
class DeviceCarbonModel:
    """Lifetime carbon and work of ``n_devices`` identical devices.

    With the default single device and no peripherals this is the
    single-device model of Figures 2 and 6.  With N devices, their
    peripherals and a sustained network rate it is the cloudlet of
    Equations 12-13 (Figure 5, Table 4): the same C_M + C_C + C_N sum taken
    over every device plus the accessories the cluster needs.

    Parameters
    ----------
    device:
        The device spec being operated.
    n_devices:
        How many identical devices (default 1).
    load_profile:
        Time-in-mode distribution; defaults to the paper's light-medium
        regime.
    energy_mix:
        Grid scenario supplying the devices (defaults to the Californian mean).
    reused:
        When True (the junkyard case) the devices' own embodied carbon is
        treated as already paid and contributes zero to C_M.
    smart_charging:
        Apply the energy mix's smart-charging discount to the devices' draw.
        Only meaningful for battery-backed devices; requesting it for a
        device without a battery raises.
    include_battery_replacement:
        Charge the embodied carbon of replacement battery packs per
        Equation 10 (requires a battery spec).
    peripherals:
        New-bought accessories (fans, smart plugs), a
        :class:`~repro.cluster.peripherals.PeripheralSet` whose embodied
        carbon is charged to C_M and whose draw to C_C; ``None`` for none.
    network_rate_bytes_per_s / network_energy_intensity_j_per_byte:
        Sustained networking rate and technology energy intensity for the
        C_N term; both default to zero / WiFi so single-device analyses can
        simply omit networking as the paper does in Section 3.4.

    Peripherals and the network are charged at the plain grid intensity:
    the smart-charging discount applies only to the devices' own draw.
    """

    device: DeviceSpec
    n_devices: int = 1
    load_profile: LoadProfile = LIGHT_MEDIUM
    energy_mix: EnergyMix = field(default_factory=california)
    reused: bool = True
    smart_charging: bool = False
    include_battery_replacement: bool = False
    peripherals: Optional[PeripheralSet] = None
    network_rate_bytes_per_s: float = 0.0
    network_energy_intensity_j_per_byte: float = WIFI_ENERGY_INTENSITY_J_PER_BYTE

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ValueError("device count must be positive")
        if self.network_rate_bytes_per_s < 0:
            raise ValueError("network rate must be non-negative")
        if self.smart_charging and self.device.battery is None:
            raise ValueError(
                f"{self.device.name} has no battery; smart charging is not applicable"
            )
        if self.include_battery_replacement and self.device.battery is None:
            raise ValueError(
                f"{self.device.name} has no battery; cannot include battery replacement"
            )

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------

    @property
    def _peripheral_power_w(self) -> float:
        return 0.0 if self.peripherals is None else self.peripherals.total_power_w

    @property
    def average_power_w(self) -> float:
        """Average wall power of every device plus the peripherals."""
        return (
            self.n_devices * self.device.average_power_w(self.load_profile)
            + self._peripheral_power_w
        )

    # ------------------------------------------------------------------
    # Carbon (Equations 2-5, 12-13)
    # ------------------------------------------------------------------

    def embodied_carbon_g(self, lifetime_months: float) -> float:
        """C_M: devices (if new) + replacement batteries + peripherals, in grams."""
        kg = 0.0 if self.reused else self.n_devices * self.device.embodied_carbon_kgco2e
        if self.include_battery_replacement:
            kg += self.n_devices * replacement_carbon_kg(
                self.device.battery,
                self.device.average_power_w(self.load_profile),
                lifetime_months,
            )
        if self.peripherals is not None:
            kg += self.peripherals.total_embodied_kg
        return units.kg_to_grams(kg)

    def operational_carbon_g(self, lifetime_months: float) -> float:
        """C_C: device draw (smart-charging discounted) + peripheral draw, in grams."""
        duration_s = units.months_to_seconds(lifetime_months)
        device_intensity = self.energy_mix.effective_intensity_g_per_kwh(
            smart_charging=self.smart_charging
        )
        plain_intensity = self.energy_mix.effective_intensity_g_per_kwh(smart_charging=False)
        device_part = operational_carbon_g(
            self.n_devices * self.device.average_power_w(self.load_profile),
            duration_s,
            device_intensity,
        )
        peripheral_part = operational_carbon_g(
            self._peripheral_power_w, duration_s, plain_intensity
        )
        return device_part + peripheral_part

    def networking_carbon_g(self, lifetime_months: float) -> float:
        """C_N: networking carbon of the sustained data rate, in grams."""
        return networking_carbon_g(
            self.network_rate_bytes_per_s,
            self.network_energy_intensity_j_per_byte,
            units.months_to_seconds(lifetime_months),
            self.energy_mix.effective_intensity_g_per_kwh(smart_charging=False),
        )

    def carbon_components(self, lifetime_months: float) -> CarbonComponents:
        """All three CCI numerator terms for the given lifetime."""
        if lifetime_months <= 0:
            raise ValueError("lifetime must be positive")
        return CarbonComponents(
            embodied_g=self.embodied_carbon_g(lifetime_months),
            operational_g=self.operational_carbon_g(lifetime_months),
            networking_g=self.networking_carbon_g(lifetime_months),
        )

    # ------------------------------------------------------------------
    # Work and CCI
    # ------------------------------------------------------------------

    def throughput(self, benchmark: Union[MicroBenchmark, str]) -> float:
        """Aggregate multi-core throughput at full load (benchmark units per second)."""
        if self.device.benchmark_suite is None:
            raise ValueError(f"{self.device.name} has no benchmark suite")
        return self.n_devices * self.device.benchmark_suite.throughput(benchmark)

    def total_work(
        self, benchmark: Union[MicroBenchmark, str], lifetime_months: float
    ) -> float:
        """Useful work over the lifetime (Equation 6's average throughput x time)."""
        if lifetime_months <= 0:
            raise ValueError("lifetime must be positive")
        average_per_second = self.load_profile.average_throughput(self.throughput(benchmark))
        return average_per_second * units.months_to_seconds(lifetime_months)

    def cci(self, benchmark: Union[MicroBenchmark, str], lifetime_months: float) -> float:
        """CCI (g CO2e per unit of work) at the given lifetime."""
        components = self.carbon_components(lifetime_months)
        work = self.total_work(benchmark, lifetime_months)
        return computational_carbon_intensity(components.total_g, work)

    def cci_series(
        self, benchmark: Union[MicroBenchmark, str], lifetime_months: Sequence[float]
    ) -> np.ndarray:
        """CCI evaluated at each lifetime in ``lifetime_months`` (Figure 2/5/6 curves)."""
        months = np.asarray(list(lifetime_months), dtype=float)
        if np.any(months <= 0):
            raise ValueError("all lifetimes must be positive")
        return np.array([self.cci(benchmark, m) for m in months])

    def as_new(self) -> "DeviceCarbonModel":
        """Return a copy that charges the devices' own embodied carbon (not reused)."""
        return replace(self, reused=False)


def second_life_cci(
    first_life: DeviceCarbonModel,
    second_life: DeviceCarbonModel,
    benchmark: Union[MicroBenchmark, str],
    first_life_months: float,
    second_life_months: float,
) -> float:
    """The alternate CCI of Equation 7, spanning a device's first and second lives.

    The first life charges the original manufacturing carbon (the model is
    forced to its "new" variant) and both lives contribute operational and
    networking carbon as well as useful work.  The paper notes this form is
    hard to use in practice because first-life telemetry is unavailable for
    junk-drawer devices; it is provided for completeness and for ablation
    benches.
    """
    if first_life.device.name != second_life.device.name:
        raise ValueError(
            "first and second life models must describe the same device "
            f"({first_life.device.name!r} vs {second_life.device.name!r})"
        )
    first = first_life.as_new()
    first_components = first.carbon_components(first_life_months)
    second_components = second_life.carbon_components(second_life_months)
    total_carbon = first_components.total_g + second_components.total_g
    total_work = first.total_work(benchmark, first_life_months) + second_life.total_work(
        benchmark, second_life_months
    )
    return computational_carbon_intensity(total_carbon, total_work)
