"""Energy-mix scenarios used throughout the carbon analyses.

The paper evaluates three power regimes (Figure 6 and Figure 5):

1. **California grid** — the real (here: synthetic CAISO-like) time-varying
   mix with a mean of ~257 gCO2e/kWh, optionally improved by smart charging.
2. **24/7 solar** — a hypothetical always-available solar supply at
   48 gCO2e/kWh, the direction hyperscalers' 24/7 carbon-free-energy pledges
   point towards.
3. **Zero carbon** — the theoretical lower bound of 0 gCO2e/kWh, at which
   operational carbon vanishes and embodied carbon dominates CCI.

An :class:`EnergyMix` wraps either a constant carbon intensity or a
:class:`~repro.grid.traces.GridTrace`, plus an optional *smart-charging
discount* — the fraction by which carbon-aware charging lowers effective
operational carbon for battery-backed devices (the paper measures ~7 % for
the Pixel 3A and ~4 % for the ThinkPad in California).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.grid.sources import (
    CALIFORNIA_MEAN_INTENSITY_G_PER_KWH,
    SOLAR,
    ZERO_CARBON,
)
from repro.grid.traces import CaisoLikeTraceGenerator, GridTrace


@dataclass(frozen=True)
class EnergyMix:
    """A named energy-supply scenario.

    Either ``trace`` or ``constant_intensity_g_per_kwh`` must be provided.
    ``smart_charging_discount`` is the fractional reduction in operational
    carbon achieved by carbon-aware charging of battery-backed devices under
    this mix (0.0 means smart charging is unavailable or pointless, e.g. for
    a flat carbon-intensity profile).
    """

    name: str
    constant_intensity_g_per_kwh: Optional[float] = None
    trace: Optional[GridTrace] = None
    smart_charging_discount: float = 0.0

    def __post_init__(self) -> None:
        if self.trace is None and self.constant_intensity_g_per_kwh is None:
            raise ValueError("an EnergyMix needs a trace or a constant intensity")
        if self.constant_intensity_g_per_kwh is not None and self.constant_intensity_g_per_kwh < 0:
            raise ValueError("constant intensity must be non-negative")
        if not 0.0 <= self.smart_charging_discount < 1.0:
            raise ValueError("smart charging discount must be within [0, 1)")

    @property
    def mean_intensity_g_per_kwh(self) -> float:
        """Mean carbon intensity of the mix."""
        if self.trace is not None:
            return self.trace.mean_intensity()
        return float(self.constant_intensity_g_per_kwh)

    def effective_intensity_g_per_kwh(self, smart_charging: bool = False) -> float:
        """Mean intensity, optionally discounted by smart charging."""
        intensity = self.mean_intensity_g_per_kwh
        if smart_charging:
            intensity *= 1.0 - self.smart_charging_discount
        return intensity

    def with_smart_charging_discount(self, discount: float) -> "EnergyMix":
        """Return a copy of this mix with a different smart-charging discount."""
        return EnergyMix(
            name=self.name,
            constant_intensity_g_per_kwh=self.constant_intensity_g_per_kwh,
            trace=self.trace,
            smart_charging_discount=discount,
        )


def california(
    use_trace: bool = False,
    n_days: int = 30,
    seed: int = 2021,
    smart_charging_discount: float = 0.07,
) -> EnergyMix:
    """The Californian grid mix.

    With ``use_trace=True`` a synthetic CAISO-like month is generated and the
    mix's mean intensity comes from the trace; otherwise the paper's
    257 gCO2e/kWh mean is used directly (faster, and what the paper's
    figure-level calculations do).  The default smart-charging discount of
    7 % corresponds to the Pixel 3A result; callers studying other devices
    override it (e.g. 4 % for the ThinkPad).
    """
    trace = None
    constant = CALIFORNIA_MEAN_INTENSITY_G_PER_KWH
    if use_trace:
        trace = CaisoLikeTraceGenerator(seed=seed).generate_days(n_days)
        constant = None
    return EnergyMix(
        name="California",
        constant_intensity_g_per_kwh=constant,
        trace=trace,
        smart_charging_discount=smart_charging_discount,
    )


def solar_24_7() -> EnergyMix:
    """Hypothetical around-the-clock solar supply (48 gCO2e/kWh).

    Under this regime the grid intensity is flat, so smart charging has no
    carbon to save and batteries can be removed entirely (the paper's
    Figure 5 second row drops batteries and smart plugs in this regime).
    """
    return EnergyMix(
        name="24/7 solar",
        constant_intensity_g_per_kwh=SOLAR.carbon_intensity_g_per_kwh,
        smart_charging_discount=0.0,
    )


def zero_carbon() -> EnergyMix:
    """The theoretical 100 % carbon-free supply (0 gCO2e/kWh)."""
    return EnergyMix(
        name="zero carbon",
        constant_intensity_g_per_kwh=ZERO_CARBON.carbon_intensity_g_per_kwh,
        smart_charging_discount=0.0,
    )


def constant_mix(name: str, intensity_g_per_kwh: float) -> EnergyMix:
    """A custom flat-intensity mix, for sensitivity analyses."""
    return EnergyMix(name=name, constant_intensity_g_per_kwh=intensity_g_per_kwh)
