"""Geo-distributed cloudlet sites with regional grid-intensity traces.

A :class:`FleetSite` binds together what the fleet scheduler needs to know
about a location:

* the site's own :class:`~repro.grid.traces.GridTrace` — every site sees a
  *different* carbon-intensity time series, which is what makes carbon-aware
  routing pay off;
* its ``cohorts`` tuple of typed
  :class:`~repro.fleet.population.DeviceCohort` configurations deployed
  there (device, replacement policy, intake, failure model, seed, request
  rate; ``sampler`` picks the failure draw), each with its own battery
  pack;
* its network round-trip time, and the peripheral bill (smart plugs and
  fans) derived from its cohorts.

A site is configuration only: the devices' churn state lives in the
:class:`~repro.fleet.population.ChurnTable` a fleet run builds from its
sites' cohorts, so simulating a site never changes it.

A junkyard cloudlet is built from whatever arrives, so the realistic rack is
*mixed*: a site may hold a Pixel 3A cohort and a Nexus 4 cohort side by
side.  A uniform rack is simply the one-entry case of the same model.
Every per-device-type quantity (capacity, idle/peak power, dynamic energy
per request, marginal CCI) follows from its cohort, so routing can
prefer the efficient device type inside a site and the battery ledger can
track each pack type separately.  Terms at a device count — the counts the
routing and churn pass recorded, or a churn table's live counts — are one
array product of the counts with the per-device constants of a
:class:`~repro.fleet.dispatch.PackTable`.

Three regional trace-generator presets accompany the paper's CAISO-like
generator so multi-site scenarios span realistically different grids:

* :func:`caiso_like_generator` — solar-heavy California (the paper's grid,
  mean ~257 gCO2e/kWh with a deep mid-day duck curve);
* :func:`ercot_like_generator` — wind-plus-gas Texas-like grid: bigger
  demand, less solar, much more wind, gas dominating the residual (higher
  mean, volatile);
* :func:`hydro_heavy_generator` — Pacific-Northwest-like grid dominated by
  hydro baseload (low, flat intensity).

These are *structural* presets tuned on the same synthetic generator — real
CAISO/ERCOT/BPA ingestion can later feed the same :class:`GridTrace`
interface (see ROADMAP open items).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.peripherals import PeripheralSet
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.devices.specs import DeviceSpec
from repro.fleet.population import (  # the rate default is re-exported here
    DEFAULT_REQUESTS_PER_DEVICE_S,
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
    steady_state_intake_rate,
)
from repro.grid.traces import CaisoLikeTraceGenerator, GridTrace
from repro.thermal.cooling import plan_cooling


# ---------------------------------------------------------------------------
# Regional grid presets
# ---------------------------------------------------------------------------


def caiso_like_generator(seed: int = 2021) -> CaisoLikeTraceGenerator:
    """The paper's solar-heavy Californian grid (mean ~257 gCO2e/kWh)."""
    return CaisoLikeTraceGenerator(seed=seed)


def ercot_like_generator(seed: int = 2021) -> CaisoLikeTraceGenerator:
    """A Texas-like grid: strong wind, weak solar, gas-dominated residual.

    Larger base demand, roughly half the solar of California, three times
    the wind, negligible hydro/geothermal — the residual (and therefore the
    intensity) is higher and peaks harder in the evening.
    """
    return CaisoLikeTraceGenerator(
        seed=seed,
        base_demand_gw=40.0,
        evening_peak_gw=9.0,
        solar_peak_gw=5.0,
        wind_mean_gw=9.0,
        hydro_gw=0.3,
        nuclear_gw=2.5,
        geothermal_gw=0.0,
        day_to_day_sigma=0.18,
    )


def hydro_heavy_generator(seed: int = 2021) -> CaisoLikeTraceGenerator:
    """A Pacific-Northwest-like grid dominated by hydro (low, flat intensity)."""
    return CaisoLikeTraceGenerator(
        seed=seed,
        base_demand_gw=14.0,
        evening_peak_gw=2.5,
        solar_peak_gw=1.0,
        wind_mean_gw=2.5,
        hydro_gw=9.0,
        nuclear_gw=1.1,
        geothermal_gw=0.2,
        day_to_day_sigma=0.08,
    )


#: Name -> generator factory for the bundled regional presets.
REGIONAL_GENERATORS = {
    "caiso-like": caiso_like_generator,
    "ercot-like": ercot_like_generator,
    "hydro-heavy": hydro_heavy_generator,
}


def regional_trace(region: str, n_days: int = 30, seed: int = 2021) -> GridTrace:
    """Generate an ``n_days`` trace for one of the named regional presets."""
    try:
        factory = REGIONAL_GENERATORS[region]
    except KeyError:
        known = ", ".join(sorted(REGIONAL_GENERATORS))
        raise ValueError(f"unknown region {region!r}; expected one of: {known}") from None
    return factory(seed=seed).generate_days(n_days)


# ---------------------------------------------------------------------------
# Fleet sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FleetSite:
    """One cloudlet location participating in multi-site orchestration.

    A site is its ``cohorts`` tuple — one
    :class:`~repro.fleet.population.DeviceCohort` per device type, a single
    entry for a uniform rack — bound to a grid trace.  The per-type terms
    are the site's columns of a :class:`~repro.fleet.dispatch.PackTable`.
    Scenarios build their sites through
    :meth:`~repro.scenarios.runner.ScenarioRunner.build_sites`.

    ``peripherals`` is derived from the cohorts by the paper's recipe — a
    smart plug per phone and fans sized per device type by the thermal
    model — summed across cohorts, so a mixed Pixel 3A / Nexus 4 site
    carries exactly the peripherals its two racks would carry side by side.
    """

    name: str
    trace: GridTrace
    cohorts: Tuple[DeviceCohort, ...]
    #: Round-trip network latency between the fleet's clients and this site;
    #: the scheduler's latency probe adds it once per request.
    network_rtt_s: float = 0.010
    peripherals: PeripheralSet = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rtt = self.network_rtt_s
        if not (math.isfinite(rtt) and rtt >= 0):
            raise ValueError(
                f"network RTT must be non-negative and finite, got {rtt!r}"
            )
        cohorts = tuple(self.cohorts)
        if not cohorts:
            raise ValueError(f"site {self.name!r} needs at least one cohort")
        object.__setattr__(self, "cohorts", cohorts)
        peripherals = PeripheralSet.for_smartphone_cloudlet(
            n_devices=sum(cohort.target_size for cohort in cohorts),
            n_fans=sum(
                plan_cooling(cohort.device, cohort.target_size).fans
                for cohort in cohorts
            ),
            include_smart_plugs=True,
        )
        object.__setattr__(self, "peripherals", peripherals)

    def cohort_labels(self) -> Tuple[str, ...]:
        """One unique label per cohort: ``site/device``.

        When cohorts at the site share a device type, each adds its index,
        ``site/device#j``, so every pack keeps its own label.
        """
        names = [cohort.device.name for cohort in self.cohorts]
        return tuple(
            f"{self.name}/{name}" + (f"#{j}" if names.count(name) > 1 else "")
            for j, name in enumerate(names)
        )

    @property
    def peripheral_power_w(self) -> float:
        """Constant peripheral draw (fans, plugs) — never battery-backed."""
        return self.peripherals.total_power_w


def default_intake_stream(
    device: DeviceSpec,
    policy: ReplacementPolicy,
    failure_model: FailureModel,
    load_profile: LoadProfile = LIGHT_MEDIUM,
    arrivals_per_day: Optional[float] = None,
    initial_spares: Optional[int] = None,
    poisson: bool = True,
) -> IntakeStream:
    """The intake stream a site uses unless told otherwise.

    The single source of the fleet's intake defaults: 25 % headroom over
    the analytic steady-state replacement rate, plus a small spare pool
    proportional to the target size, both overridable individually.
    """
    if arrivals_per_day is None:
        arrivals_per_day = 1.25 * steady_state_intake_rate(
            device, policy, failure_model, load_profile
        )
    if initial_spares is None:
        initial_spares = max(2, policy.target_size // 20)
    return IntakeStream(
        arrivals_per_day=arrivals_per_day,
        initial_spares=initial_spares,
        poisson=poisson,
    )
