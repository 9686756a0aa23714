"""Geo-distributed cloudlet sites with regional grid-intensity traces.

A :class:`FleetSite` binds together the three things the fleet scheduler
needs to know about a location:

* a :class:`~repro.cluster.cloudlet.CloudletDesign` (peripherals, network
  topology, primary device type) sized at the site's target fleet;
* the site's own :class:`~repro.grid.traces.GridTrace` — every site sees a
  *different* carbon-intensity time series, which is what makes carbon-aware
  routing pay off;
* its ``cohorts`` tuple of :class:`SiteCohort` entries — typed
  :class:`~repro.fleet.population.DeviceCohort` configurations deployed
  there (device, replacement policy, intake, failure model, seed;
  ``sampler`` picks the failure draw), each with its own request rate and
  battery pack.

A site is configuration only: the devices' churn state lives in the
:class:`~repro.fleet.population.ChurnTable` a fleet run builds from its
sites' cohorts, so simulating a site never changes it.

A junkyard cloudlet is built from whatever arrives, so the realistic rack is
*mixed*: a site may hold a Pixel 3A cohort and a Nexus 4 cohort side by
side.  A uniform rack is simply the one-entry case of the same model.
Every per-device-type quantity (capacity, idle/peak power, dynamic energy
per request, marginal CCI) lives on :class:`SiteCohort`, so routing can
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
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.cluster.cloudlet import CloudletDesign
from repro.cluster.peripherals import PeripheralSet
from repro.cluster.topology import wifi_tree_topology
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.devices.specs import DeviceSpec
from repro.fleet.population import (
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
    steady_state_intake_rate,
)
from repro.grid.mix import EnergyMix
from repro.grid.traces import CaisoLikeTraceGenerator, GridTrace
from repro.thermal.cooling import plan_cooling

#: Default sustained request service rate of one phone (requests/s).  Matches
#: the order of magnitude of the paper's DeathStarBench phone-cloudlet runs.
DEFAULT_REQUESTS_PER_DEVICE_S = 20.0


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


@dataclass
class SiteCohort:
    """One typed device cohort deployed at a site.

    Binds a :class:`~repro.fleet.population.DeviceCohort` configuration to
    the per-type service rate it delivers.  A :class:`FleetSite` holds one entry per
    device type.  The per-device-type quantities the scheduler and dispatch
    layers consume (idle power, dynamic energy and wear carbon per request,
    battery energy, marginal CCI) are columns of a
    :class:`~repro.fleet.dispatch.PackTable`, one row per entry.
    """

    cohort: DeviceCohort
    requests_per_device_s: float = DEFAULT_REQUESTS_PER_DEVICE_S

    def __post_init__(self) -> None:
        rate = self.requests_per_device_s
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(
                f"per-device request rate must be positive and finite, got {rate!r}"
            )

    @property
    def device(self) -> DeviceSpec:
        """The device type this cohort deploys."""
        return self.cohort.device

    @property
    def target_size(self) -> int:
        """The deployment this cohort tries to keep active."""
        return self.cohort.policy.target_size


@dataclass
class FleetSite:
    """One cloudlet location participating in multi-site orchestration.

    A site is its ``cohorts`` tuple — one :class:`SiteCohort` per device
    type, a single entry for a uniform rack — bound to a cloudlet design and
    a grid trace.  The per-type terms are the site's columns of a
    :class:`~repro.fleet.dispatch.PackTable`.  Scenarios build their sites
    through :meth:`~repro.scenarios.runner.ScenarioRunner.build_sites`,
    which calls :func:`site_from_cohorts` to size the design's peripherals
    to the cohorts.
    """

    name: str
    design: CloudletDesign
    trace: GridTrace
    cohorts: Tuple[SiteCohort, ...]
    #: Round-trip network latency between the fleet's clients and this site;
    #: the scheduler's latency probe adds it once per request.
    network_rtt_s: float = 0.010

    def __post_init__(self) -> None:
        rtt = self.network_rtt_s
        if not (math.isfinite(rtt) and rtt >= 0):
            raise ValueError(
                f"network RTT must be non-negative and finite, got {rtt!r}"
            )
        self.cohorts = tuple(self.cohorts)
        if not self.cohorts:
            raise ValueError(f"site {self.name!r} needs at least one cohort")
        cohort_devices = [entry.device.name for entry in self.cohorts]
        if self.design.device.name not in cohort_devices:
            raise ValueError(
                f"site {self.name!r}: design device {self.design.device.name!r} "
                f"differs from cohort devices {cohort_devices}"
            )

    def cohort_labels(self) -> Tuple[str, ...]:
        """One stable label per cohort: ``site/device``."""
        return tuple(
            f"{self.name}/{entry.device.name}" for entry in self.cohorts
        )

    @property
    def peripheral_power_w(self) -> float:
        """Constant peripheral draw (fans, plugs, APs) — never battery-backed."""
        return self.design.peripherals.total_power_w


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

    The single source of the fleet's intake defaults (:func:`build_site_cohort`
    and the scenario runner both call it): 25 % headroom over the analytic
    steady-state replacement rate, plus a small spare pool proportional to
    the target size, both overridable individually.
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


def site_from_cohorts(
    name: str,
    trace: GridTrace,
    entries: Sequence[SiteCohort],
    grid_label: str = "custom",
    network_rtt_s: float = 0.010,
) -> FleetSite:
    """Build a (possibly mixed) smartphone cloudlet site from typed cohorts.

    The cloudlet design follows the paper's recipe — smart plugs per phone,
    fans sized per device type by the thermal model, a WiFi tree topology —
    summed across cohorts, so a mixed Pixel 3A / Nexus 4 site carries
    exactly the peripherals its two racks would carry side by side.  The
    design names one device, its primary: the cohort with the largest
    target deployment, ties broken by entry order.
    """
    entries = tuple(entries)
    if not entries:
        raise ValueError("site needs at least one cohort")
    total_devices = sum(entry.target_size for entry in entries)
    primary = max(entries, key=lambda entry: entry.target_size)
    total_fans = sum(
        plan_cooling(entry.device, entry.target_size).fans for entry in entries
    )
    mix = " + ".join(
        f"{entry.target_size}x {entry.device.name}" for entry in entries
    )
    peripherals = PeripheralSet.for_smartphone_cloudlet(
        n_devices=total_devices, n_fans=total_fans, include_smart_plugs=True
    )
    design = CloudletDesign(
        name=f"{name} ({mix})",
        device=primary.device,
        n_devices=total_devices,
        energy_mix=EnergyMix(name=grid_label, trace=trace),
        topology=wifi_tree_topology(),
        peripherals=peripherals,
        load_profile=primary.cohort.load_profile,
        reused=True,
    )
    return FleetSite(
        name=name,
        design=design,
        trace=trace,
        cohorts=entries,
        network_rtt_s=network_rtt_s,
    )


def build_site_cohort(
    device: DeviceSpec,
    n_devices: int,
    seed: int = 0,
    requests_per_device_s: float = DEFAULT_REQUESTS_PER_DEVICE_S,
    load_profile: LoadProfile = LIGHT_MEDIUM,
    intake: Optional[IntakeStream] = None,
    failure_model: Optional[FailureModel] = None,
    replacement_policy: Optional[ReplacementPolicy] = None,
    sampler: str = "device",
) -> SiteCohort:
    """Build one typed :class:`SiteCohort` with the fleet's intake defaults.

    ``sampler`` picks the cohort's failure draw (``device`` — one uniform
    per device, the reference — or ``bucket``, one binomial per deploy-day
    bucket at O(days) per step).  A ``replacement_policy`` must target
    exactly ``n_devices``.
    """
    if n_devices <= 0:
        raise ValueError("site needs a positive device count")
    policy = replacement_policy or ReplacementPolicy(target_size=n_devices)
    if policy.target_size != n_devices:
        raise ValueError(
            f"replacement policy targets {policy.target_size} devices, "
            f"but the cohort deploys {n_devices}"
        )
    failures = failure_model or FailureModel()
    if intake is None:
        intake = default_intake_stream(device, policy, failures, load_profile)
    cohort = DeviceCohort(
        device=device,
        policy=policy,
        intake=intake,
        failure_model=failures,
        load_profile=load_profile,
        seed=seed,
        sampler=sampler,
    )
    return SiteCohort(cohort=cohort, requests_per_device_s=requests_per_device_s)
