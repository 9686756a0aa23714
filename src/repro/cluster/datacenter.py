"""Datacenter-scale PUE and CCI analysis (paper Section 5.3, Table 4).

The paper provisions a hypothetical 50 MW datacenter either with PowerEdge
R740 servers or with 54-phone Pixel 3A clusters (one cluster is the
performance-equivalent "unit"), computes each design's PUE from the floor
space and cooling/lighting overheads, and then evaluates datacenter-scale CCI
with Equation 15:

.. math::

    \\mathrm{CCI} = \\frac{C_M + PUE (C_C + C_N)}{\\sum \\mathrm{ops}}

The PUE model follows the server-room cooling-estimate methodology the paper
cites: cooling power is a fraction of the IT load plus an envelope term
proportional to floor area, and lighting is proportional to floor area.  The
smartphone design needs twice the rack space (each 54-phone cluster occupies
2U but is mostly empty), so it pays slightly more cooling and lighting — the
paper's PUE 1.32 versus 1.31 — while still winning decisively on CCI because
its units carry no new embodied carbon and draw a quarter of the power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Union

from repro import units
from repro.cluster.cloudlet import pixel_cloudlet_design, poweredge_baseline
from repro.core.carbon import CarbonComponents
from repro.core.cci import DeviceCarbonModel, computational_carbon_intensity
from repro.devices.benchmarks import MicroBenchmark, TABLE1_BENCHMARKS

#: Cooling power as a fraction of IT power (compressor work scales with heat).
COOLING_POWER_FRACTION = 0.29
#: Cooling envelope term per square metre of floor space (W/m^2).
COOLING_AREA_W_PER_M2 = 20.0
#: Lighting power per square metre of floor space (W/m^2).
LIGHTING_AREA_W_PER_M2 = 15.0
#: Floor area occupied per 42U rack including aisles (m^2).
RACK_FLOOR_AREA_M2 = 2.5
#: Rack units per rack.
RACK_UNITS_PER_RACK = 42


@dataclass(frozen=True)
class DatacenterDesign:
    """A datacenter filled with identical compute units."""

    name: str
    unit: DeviceCarbonModel
    rack_units_per_unit: float
    it_power_w: float = 50e6

    def __post_init__(self) -> None:
        if self.rack_units_per_unit <= 0:
            raise ValueError("rack units per unit must be positive")
        if self.it_power_w <= 0:
            raise ValueError("IT power must be positive")

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------

    @property
    def unit_power_w(self) -> float:
        """Average power of one unit (device cluster plus its peripherals)."""
        return self.unit.average_power_w

    @property
    def n_units(self) -> int:
        """How many units fit the IT power budget."""
        return int(self.it_power_w // self.unit_power_w)

    @property
    def n_racks(self) -> int:
        """Racks needed to house every unit."""
        total_rack_units = self.n_units * self.rack_units_per_unit
        return int(math.ceil(total_rack_units / RACK_UNITS_PER_RACK))

    @property
    def floor_area_m2(self) -> float:
        """Total floor area of the IT space."""
        return self.n_racks * RACK_FLOOR_AREA_M2

    # ------------------------------------------------------------------
    # PUE (Equation 14)
    # ------------------------------------------------------------------

    @property
    def cooling_power_w(self) -> float:
        """Cooling plant power."""
        return (
            COOLING_POWER_FRACTION * self.it_power_w
            + COOLING_AREA_W_PER_M2 * self.floor_area_m2
        )

    @property
    def lighting_power_w(self) -> float:
        """Lighting power."""
        return LIGHTING_AREA_W_PER_M2 * self.floor_area_m2

    def pue(self) -> float:
        """Power usage effectiveness of the facility."""
        return (
            self.it_power_w + self.cooling_power_w + self.lighting_power_w
        ) / self.it_power_w

    # ------------------------------------------------------------------
    # Datacenter-scale CCI (Equation 15)
    # ------------------------------------------------------------------

    def carbon_components(self, lifetime_months: float) -> CarbonComponents:
        """Facility-level carbon: unit carbon scaled by unit count, with PUE applied."""
        per_unit = self.unit.carbon_components(lifetime_months)
        return per_unit.scaled(self.n_units).with_pue(self.pue())

    def total_work(
        self, benchmark: Union[MicroBenchmark, str], lifetime_months: float
    ) -> float:
        """Aggregate useful work of every unit over the lifetime."""
        return self.n_units * self.unit.total_work(benchmark, lifetime_months)

    def cci(
        self, benchmark: Union[MicroBenchmark, str], lifetime_months: float = 36.0
    ) -> float:
        """Datacenter-scale CCI (g CO2e per benchmark work unit), default 3 years."""
        components = self.carbon_components(lifetime_months)
        return computational_carbon_intensity(
            components.total_g, self.total_work(benchmark, lifetime_months)
        )


def poweredge_datacenter(it_power_w: float = 50e6) -> DatacenterDesign:
    """A 50 MW datacenter built from new PowerEdge R740 servers (2U each)."""
    return DatacenterDesign(
        name="PowerEdge R740 datacenter",
        unit=poweredge_baseline(),
        rack_units_per_unit=2.0,
        it_power_w=it_power_w,
    )


def smartphone_datacenter(
    benchmark: Union[MicroBenchmark, str] = "SGEMM", it_power_w: float = 50e6
) -> DatacenterDesign:
    """A 50 MW datacenter built from Pixel 3A clusters (2U trays per cluster)."""
    return DatacenterDesign(
        name="Pixel 3A cluster datacenter",
        unit=pixel_cloudlet_design(benchmark),
        rack_units_per_unit=2.0,
        it_power_w=it_power_w,
    )


def table4_projections(lifetime_months: float = 36.0) -> Dict[str, Dict[str, float]]:
    """Reproduce Table 4: three-year datacenter-scale CCI for both designs.

    Returns ``{design name: {benchmark name: CCI in mg CO2e per work unit}}``
    for the three benchmarks the paper reports (SGEMM, PDF Render, Dijkstra),
    alongside a ``"PUE"`` entry per design.
    """
    results: Dict[str, Dict[str, float]] = {}
    benchmarks = [b for b in TABLE1_BENCHMARKS if b.name != "Memory Copy"]
    for design_builder in (poweredge_datacenter, smartphone_datacenter):
        design = design_builder()
        row: Dict[str, float] = {"PUE": design.pue()}
        for benchmark in benchmarks:
            row[benchmark.name] = units.grams_to_milligrams(
                design.cci(benchmark, lifetime_months)
            )
        results[design.name] = row
    return results
