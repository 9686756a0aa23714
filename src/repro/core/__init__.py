"""Core contribution of the paper: the CCI metric and carbon accounting."""

from repro.core.carbon import (
    LTE_ENERGY_INTENSITY_J_PER_BYTE,
    WIFI_ENERGY_INTENSITY_J_PER_BYTE,
    WIRED_ENERGY_INTENSITY_J_PER_BYTE,
    CarbonComponents,
    CarbonLedger,
    networking_carbon_g,
    operational_carbon_g,
)
from repro.core.cci import (
    DeviceCarbonModel,
    computational_carbon_intensity,
    second_life_cci,
)
from repro.core.lifetime import (
    DEFAULT_LIFETIME_MONTHS,
    LifetimeSweep,
    amortization_month,
    crossover_month,
    default_lifetimes,
    improvement_factor,
    sweep,
)
from repro.core.reuse import (
    CLOUDLET_REUSED_COMPONENTS,
    CLOUDLET_SCENARIO,
    SENSOR_SCENARIO,
    STORAGE_SCENARIO,
    ReuseScenario,
    component_carbon_table,
    device_reuse_factor,
    reuse_factor,
)

__all__ = [
    "CarbonComponents",
    "CarbonLedger",
    "operational_carbon_g",
    "networking_carbon_g",
    "WIFI_ENERGY_INTENSITY_J_PER_BYTE",
    "LTE_ENERGY_INTENSITY_J_PER_BYTE",
    "WIRED_ENERGY_INTENSITY_J_PER_BYTE",
    "computational_carbon_intensity",
    "DeviceCarbonModel",
    "second_life_cci",
    "reuse_factor",
    "device_reuse_factor",
    "component_carbon_table",
    "ReuseScenario",
    "CLOUDLET_SCENARIO",
    "STORAGE_SCENARIO",
    "SENSOR_SCENARIO",
    "CLOUDLET_REUSED_COMPONENTS",
    "LifetimeSweep",
    "default_lifetimes",
    "DEFAULT_LIFETIME_MONTHS",
    "sweep",
    "crossover_month",
    "amortization_month",
    "improvement_factor",
]
