"""Energy sources and their carbon intensities.

Carbon intensity is expressed in grams of CO2-equivalent per kilowatt-hour
(gCO2e/kWh), the unit the paper (and CAISO) use.  The values below follow the
paper's Section 5.1: solar 48, gas 602, and a Californian grid mean of
257 gCO2e/kWh; the remaining sources use the standard life-cycle figures that
make the synthetic CAISO-like trace land on that mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from repro import units


@dataclass(frozen=True)
class EnergySource:
    """A generation source and its life-cycle carbon intensity."""

    name: str
    carbon_intensity_g_per_kwh: float

    def __post_init__(self) -> None:
        intensity = self.carbon_intensity_g_per_kwh
        if not (math.isfinite(intensity) and intensity >= 0):
            raise ValueError(
                f"{self.name}: carbon intensity must be finite and "
                f"non-negative, got {intensity}"
            )

    @property
    def carbon_intensity_g_per_joule(self) -> float:
        """Carbon intensity converted to gCO2e per joule."""
        return self.carbon_intensity_g_per_kwh / units.JOULES_PER_KWH

    def carbon_for_energy_kwh(self, kwh: float) -> float:
        """Grams of CO2e released to supply ``kwh`` from this source."""
        if kwh < 0:
            raise ValueError("energy must be non-negative")
        return self.carbon_intensity_g_per_kwh * kwh


SOLAR = EnergySource("solar", 48.0)
WIND = EnergySource("wind", 11.0)
HYDRO = EnergySource("hydro", 24.0)
NUCLEAR = EnergySource("nuclear", 12.0)
GAS = EnergySource("natural gas", 602.0)
COAL = EnergySource("coal", 820.0)
#: Electricity imported into California, a blend of hydro, gas and coal.
IMPORTS = EnergySource("imports", 428.0)
GEOTHERMAL = EnergySource("geothermal", 38.0)
BIOMASS = EnergySource("biomass", 230.0)

#: The idealised zero-carbon source used as the theoretical lower bound in
#: Figure 6 ("Z.Carbon").  No real source achieves this.
ZERO_CARBON = EnergySource("zero-carbon (theoretical)", 0.0)

#: Mean carbon intensity of Californian grid power (paper Section 5.1).
CALIFORNIA_MEAN_INTENSITY_G_PER_KWH = 257.0

_SOURCES_BY_NAME: Dict[str, EnergySource] = {
    source.name: source
    for source in (
        SOLAR,
        WIND,
        HYDRO,
        NUCLEAR,
        GAS,
        COAL,
        IMPORTS,
        GEOTHERMAL,
        BIOMASS,
        ZERO_CARBON,
    )
}


def source_by_name(name: str) -> EnergySource:
    """Look up a built-in energy source by name."""
    try:
        return _SOURCES_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_SOURCES_BY_NAME))
        raise KeyError(f"unknown energy source {name!r}; known sources: {known}") from None


def all_sources() -> Tuple[EnergySource, ...]:
    """Return every built-in energy source."""
    return tuple(_SOURCES_BY_NAME.values())


def _raise_bad_generation(name: str, generation: np.ndarray) -> None:
    """Raise the ``ValueError`` naming ``name``'s first bad sample.

    A non-finite sample anywhere in the source outranks a negative one.
    """
    non_finite = np.flatnonzero(~np.isfinite(generation))
    if non_finite.size:
        index = int(non_finite[0])
        raise ValueError(
            f"generation for {name!r} is not finite at index {index}: "
            f"{generation.flat[index]}"
        )
    index = int(np.flatnonzero(generation < 0)[0])
    raise ValueError(
        f"generation for {name!r} is negative at index {index}: "
        f"{generation.flat[index]}"
    )


def blended_intensity(
    generation_mw_by_source: Mapping[str, Union[float, np.ndarray]]
) -> Union[float, np.ndarray]:
    """Carbon intensity (gCO2e/kWh) of a supply mix.

    ``generation_mw_by_source`` maps source names (matching the built-in
    sources) to instantaneous generation in MW (any consistent power unit
    works because only the proportions matter): one scalar per source, or
    one array per source, all of the same shape, to blend every sample at
    once.  Sums run over the sources in mapping order, so an array call is
    bitwise equal to blending each sample on its own.  Non-finite or
    negative generation, or a zero total, raises a ``ValueError`` naming
    the source (for generation) and the first bad sample index.  This is how the
    synthetic CAISO trace converts its supply stack into a carbon-intensity
    curve.
    """
    total = 0.0
    weighted = 0.0
    for name, generation in generation_mw_by_source.items():
        generation = np.asarray(generation, dtype=float)
        # One pass tells whether any sample is NaN, infinite or negative;
        # only then do the scans run that name the first bad sample.
        if generation.size and not (
            0.0 <= generation.min() <= generation.max() < math.inf
        ):
            _raise_bad_generation(name, generation)
        source = source_by_name(name)
        total = total + generation
        weighted = weighted + generation * source.carbon_intensity_g_per_kwh
    zero = np.flatnonzero(total == 0)
    if zero.size:
        raise ValueError(
            f"total generation is zero at index {int(zero[0])}; "
            "cannot compute blended intensity"
        )
    blend = weighted / total
    return float(blend) if np.ndim(blend) == 0 else blend
