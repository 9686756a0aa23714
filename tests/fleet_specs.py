"""Scenario specs shared by the tests that need live fleet sites.

Sites come from one builder, ``ScenarioRunner(spec).build_sites()``, so a
test's fleet is seeded and stocked exactly as a scenario run's is.  These
helpers only spell the specs; they hold no seeding or intake logic.
:func:`junkyard_cohort` spells one cohort directly, for tests that place
the same cohort at two sites or deploy a device no catalog name describes.
:func:`worn_churn` builds the churn state wear tests hand to the routing
and the latency probe.
"""

from repro.fleet.population import (
    DEFAULT_REQUESTS_PER_DEVICE_S,
    ChurnTable,
    DeviceCohort,
    FailureModel,
    ReplacementPolicy,
)
from repro.fleet.sites import default_intake_stream
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.spec import ChurnSpec, DeviceMixSpec, SiteSpec, TraceSpec


def two_site_spec(
    n_devices: int, seed: int = 0, n_trace_days: int = 30, sampler: str = "device"
) -> ScenarioSpec:
    """The ``two-site-asymmetric`` preset (dirty ``texas``, clean
    ``cascadia``) at ``n_devices`` Pixel 3As and ``n_trace_days`` of trace
    per site."""
    sizes = {}
    for index in (0, 1):
        sizes[f"sites.{index}.devices.count"] = n_devices
        sizes[f"sites.{index}.trace.n_days"] = n_trace_days
    return get_scenario("two-site-asymmetric").with_overrides(
        {"seed": seed, "churn.sampler": sampler, **sizes}
    )


def site_spec(
    name: str,
    region: str,
    count: int = 100,
    device: str = "Pixel 3A",
    n_trace_days: int = 30,
    cohorts=(),
    churn: ChurnSpec = ChurnSpec(),
) -> SiteSpec:
    """One site on a regional trace: ``count`` x ``device``, or the
    ``cohorts`` (:class:`DeviceMixSpec` entries) of a mixed rack."""
    return SiteSpec(
        name=name,
        trace=TraceSpec(region=region, n_days=n_trace_days),
        devices=DeviceMixSpec() if cohorts else DeviceMixSpec(device, count),
        churn=churn,
        cohorts=tuple(cohorts),
    )


def fleet_spec(*sites: SiteSpec, seed: int = 0) -> ScenarioSpec:
    """A scenario holding ``sites`` in order, seeded at ``seed``."""
    return ScenarioSpec(name="test-fleet", sites=sites, seed=seed)


def pixel_rack_spec(counts=(3, 2), rates=(20.0, 10.0), n_trace_days=2, seed=0):
    """One ``rack`` site holding two Pixel 3A cohorts that differ only in
    size and per-device request rate."""
    cohorts = tuple(
        DeviceMixSpec(count=count, requests_per_device_s=rate)
        for count, rate in zip(counts, rates)
    )
    return fleet_spec(
        site_spec("rack", "caiso-like", n_trace_days=n_trace_days, cohorts=cohorts),
        seed=seed,
    )


def junkyard_cohort(
    device, n_devices, seed=0, requests_per_device_s=DEFAULT_REQUESTS_PER_DEVICE_S
):
    """``n_devices`` of ``device`` at the fleet's intake defaults."""
    policy = ReplacementPolicy(target_size=n_devices)
    return DeviceCohort(
        device,
        policy,
        intake=default_intake_stream(device, policy, FailureModel()),
        seed=seed,
        requests_per_device_s=requests_per_device_s,
    )


def worn_churn(sites, wear):
    """The sites' churn table as deployed, each battery-backed pack's cells
    worn to its level in ``wear`` (pack order)."""
    churn = ChurnTable(cohort for site in sites for cohort in site.cohorts)
    for row, (cohort, level) in enumerate(zip(churn.cohorts, wear)):
        if cohort.device.battery is not None:
            churn.battery_cycles[row, : churn.width] = (
                level * cohort.device.battery.cycle_life
            )
    return churn

