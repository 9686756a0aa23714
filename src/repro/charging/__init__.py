"""Smart charging: carbon-aware battery charging policies and simulation."""

from repro.charging.simulation import (
    ChargingSimulator,
    ChargingStudyResult,
    DayResult,
    compare_policies,
    smart_charging_savings,
)
from repro.charging.smart_charging import (
    AlwaysPlugged,
    ChargingDecisionContext,
    ChargingPolicy,
    NaiveCharging,
    SmartChargingPolicy,
    charge_percentile,
    charge_time_percentile,
    threshold_from_intensities,
)

__all__ = [
    "ChargingPolicy",
    "ChargingDecisionContext",
    "AlwaysPlugged",
    "NaiveCharging",
    "SmartChargingPolicy",
    "ChargingSimulator",
    "ChargingStudyResult",
    "DayResult",
    "compare_policies",
    "smart_charging_savings",
    "charge_time_percentile",
    "charge_percentile",
    "threshold_from_intensities",
]
