"""Bitwise lock of the fleet loop against recorded report digests.

Dispatch replay runs one exact path: a per-day loop over the ledger's
row-vectorized kernel.  ``data/report_digests.json`` holds a SHA-256 over
every :class:`~repro.fleet.reporting.FleetReport` attribute in
:data:`REPORT_ATTRIBUTES` (stored series and site views alike), every per-site
:class:`~repro.economics.OwnershipCost` field and the headline CCI and
$/request, recorded for every registry preset under both churn
samplers at 2 and 30 days, for every charging coupling mode, for the
forecast dispatch under every bundled model and plan cadence, and for the
pack capabilities a plain preset never varies: a battery-less pack, a wear
derate, and device counts that change every day under the forecast
planner; and for plan tails under the forecast planner: twelve sites whose
48-hour windows, replanned every 30 hours, leave tails across midnights,
and a pack that empties while it holds one.  Any change that moves a single bit of a report fails here.

Re-record (only for a change that is *meant* to move results) with::

    PYTHONPATH=src:tests python tests/fleet/test_execution_identity.py --record

The same module pins the report's site ``soc`` view (segment-wise
``reduceat``) against a per-site loop reference.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.economics import OwnershipCost
from repro.fleet import (
    CarbonBufferDispatch,
    CapacityAwareMarginalCciRouting,
    DiurnalDemand,
    FleetSimulation,
)
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario, scenario_names
from repro.scenarios.spec import DeviceMixSpec, SiteSpec, TraceSpec
from repro.telemetry import Telemetry

from fleet_specs import fleet_spec, site_spec

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "report_digests.json"
)

#: Keep every preset fast: no latency probe.
FAST = {"duration_days": 2, "routing.latency_probe_s": 0.0}

SAMPLERS = ("device", "bucket")

#: Two days pin the first-day fallback; thirty let packs hit the SoC floor,
#: fill to the top and see churn.
DURATIONS = (2, 30)

COUPLINGS = ("none", "estimate", "dispatch")

#: Forecast variants run four days: a persistence forecast's blind first
#: day, then 48-hour plans whose tails carry across two midnights.
FORECAST_DAYS = 4

FORECAST_MODELS = {
    "perfect": {"forecast.model": "perfect"},
    "persistence": {"forecast.model": "persistence"},
    "noisy": {"forecast.model": "noisy", "forecast.noise_sigma": 0.4},
}

#: ``(horizon_h, refresh_h)`` plan cadences; 24/24 is the preset's own.
FORECAST_CADENCES = ((24, 24), (24, 6), (48, 48), (48, 30))

#: Every report attribute the digests were recorded over, when each was a
#: stored field.  Most site series are now views of the pack series; reading
#: them by name keeps the recorded digests locking every view too.
REPORT_ATTRIBUTES = (
    "active_devices",
    "battery_kwh",
    "battery_swaps",
    "charge_kwh",
    "clipped_energy_kwh",
    "clipped_setpoints",
    "cohort_active",
    "cohort_battery_kwh",
    "cohort_battery_swaps",
    "cohort_charge_kwh",
    "cohort_deployed",
    "cohort_energy_kwh",
    "cohort_failures",
    "cohort_grid_kwh",
    "cohort_labels",
    "cohort_replacement_carbon_g",
    "cohort_served_rps",
    "cohort_site_index",
    "cohort_soc",
    "cohort_target",
    "days",
    "deployed",
    "dropped_rps",
    "energy_kwh",
    "failures",
    "grid_kwh",
    "hindsight_avoided_g",
    "hours",
    "intensity_g_per_kwh",
    "operational_g",
    "policy_name",
    "replacement_carbon_g",
    "served_rps",
    "site_names",
    "soc",
    "step_s",
    "target_devices",
)


def _coupling_overrides(coupling):
    return {
        "charging.policy": "none" if coupling == "none" else "smart",
        "charging.coupling": coupling,
    }


def _cases():
    """Case label -> ``(preset, overrides)`` for every recorded digest."""
    cases = {}
    for preset in scenario_names():
        for sampler in SAMPLERS:
            for days in DURATIONS:
                cases[f"{preset}/{sampler}/{days}d"] = (
                    preset,
                    {"churn.sampler": sampler, "duration_days": days},
                )
    for coupling in COUPLINGS:
        cases[f"coupling={coupling}"] = (
            "two-site-asymmetric",
            _coupling_overrides(coupling),
        )
    cases.update(_forecast_cases())
    cases.update(_capability_cases())
    cases.update(_tail_cases())
    return cases


def _forecast_cases():
    """Forecast-dispatch digests: every model and cadence, CSV, mixed sites."""
    cases = {}
    for model, model_overrides in FORECAST_MODELS.items():
        for horizon_h, refresh_h in FORECAST_CADENCES:
            cases[f"forecast={model}/{horizon_h}h/{refresh_h}h"] = (
                "forecast-buffer",
                {
                    "duration_days": FORECAST_DAYS,
                    "forecast.horizon_h": horizon_h,
                    "forecast.refresh_h": refresh_h,
                    **model_overrides,
                },
            )
    cases["forecast=csv"] = (
        "forecast-buffer",
        {
            "duration_days": FORECAST_DAYS,
            "forecast.model": "csv",
            "forecast.csv_path": "caiso_dayahead_sample.csv",
        },
    )
    for model, model_overrides in (("none", {}), *FORECAST_MODELS.items()):
        if model == "perfect":
            continue
        cases[f"heterogeneous-cohorts/forecast={model}"] = (
            "heterogeneous-cohorts",
            {
                "duration_days": FORECAST_DAYS,
                "charging.coupling": "dispatch",
                **model_overrides,
            },
        )
    return cases


#: A mixed site whose second cohort is a battery-less server rack.
BATTERY_LESS_COHORT = {
    "sites.0.cohorts.1.device": "HP ProLiant DL380 G6",
    "sites.0.cohorts.1.count": 4,
    "sites.0.cohorts.1.requests_per_device_s": 200,
}

#: Failures outpace a supply-constrained intake, so pack counts move from
#: day to day (with the default intake, spares refill every failure the
#: same day and the day-start counts never change).
HEAVY_CHURN = {
    "churn.annual_failure_rate": 3.0,
    "churn.age_acceleration_per_year": 6.0,
    "churn.intake_per_day": 0.5,
}


def _capability_cases():
    """Digests over the per-pack capabilities: a battery-less pack, a wear
    derate, and daily-changing counts under the forecast planner."""
    cases = {}
    for model, model_overrides in (
        ("none", {}),
        ("noisy", FORECAST_MODELS["noisy"]),
    ):
        cases[f"heterogeneous-cohorts/battery-less/forecast={model}"] = (
            "heterogeneous-cohorts",
            {
                "duration_days": FORECAST_DAYS,
                "charging.coupling": "dispatch",
                **BATTERY_LESS_COHORT,
                **model_overrides,
            },
        )
    cases["carbon-buffer/wear-derate=0.5/30d"] = (
        "carbon-buffer",
        {"duration_days": 30, "routing.wear_derate": 0.5},
    )
    for sampler, model in (("device", "noisy"), ("bucket", "persistence")):
        cases[f"forecast-buffer/heavy-churn/{sampler}/forecast={model}/30d"] = (
            "forecast-buffer",
            {
                "duration_days": 30,
                "churn.sampler": sampler,
                **HEAVY_CHURN,
                **FORECAST_MODELS[model],
            },
        )
    return cases


#: A noisy forecast on 48-hour windows replanned every 30 hours: most plans
#: leave a tail that executes after midnight.
TAIL_CADENCE = {
    **FORECAST_MODELS["noisy"],
    "forecast.horizon_h": 48,
    "forecast.refresh_h": 30,
}

#: Regions the twelve planner sites cycle through.
TAIL_REGIONS = ("caiso-like", "ercot-like", "hydro-heavy")

#: ``forecast-buffer`` with a three-device first site, no spares and no
#: intake, failing fast: at seed 7 its pack runs empty on day 13, a day
#: that starts inside a 30-hour plan's tail.
EMPTYING_PACK = {
    "seed": 7,
    "duration_days": 30,
    "sites.0.devices.count": 3,
    "churn.initial_spares": 0,
    "churn.intake_per_day": 0,
    "churn.annual_failure_rate": 20.0,
    "churn.age_acceleration_per_year": 6.0,
    "churn.sampler": "device",
    **TAIL_CADENCE,
}


def twelve_site_spec():
    """Eleven single-pack sites of growing size and one mixed site whose
    two packs share its forecast."""
    sites = [
        site_spec(
            f"site-{index:02d}",
            TAIL_REGIONS[index % len(TAIL_REGIONS)],
            count=40 + 10 * index,
            n_trace_days=2,
        )
        for index in range(11)
    ]
    sites.append(
        site_spec(
            "mixed",
            "caiso-like",
            n_trace_days=2,
            cohorts=(
                DeviceMixSpec(count=30),
                DeviceMixSpec("Nexus 4", 20, requests_per_device_s=8.0),
            ),
        )
    )
    return fleet_spec(*sites, seed=3)


def _tail_cases():
    """Digests over plan tails: twelve sites carrying tails, and a pack that
    empties while it holds one."""
    return {
        "twelve-sites/tails/forecast=noisy/6d": (
            twelve_site_spec(),
            {
                "duration_days": 6,
                "charging.policy": "smart",
                "charging.coupling": "dispatch",
                **TAIL_CADENCE,
            },
        ),
        "forecast-buffer/emptying-pack/forecast=noisy/30d": (
            "forecast-buffer",
            EMPTYING_PACK,
        ),
    }


def report_digest(result) -> str:
    """SHA-256 over the report attributes, every per-site cost field, CCI and $/request.

    Report attributes enter in name order, so reordering the dataclass's
    declarations leaves the digest alone.  Cost fields enter as
    ``float.hex`` so a one-ulp move in any site's purchase, peripherals,
    energy or maintenance dollars changes the digest.
    """
    digest = hashlib.sha256()
    for name in REPORT_ATTRIBUTES:
        value = getattr(result.report, name)
        digest.update(name.encode())
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    for site_name in sorted(result.site_costs):
        cost = result.site_costs[site_name]
        digest.update(site_name.encode())
        for field in dataclasses.fields(OwnershipCost):
            digest.update(field.name.encode())
            digest.update(float(getattr(cost, field.name)).hex().encode())
    digest.update(
        repr((result.cci_g_per_request, result.usd_per_request)).encode()
    )
    return digest.hexdigest()


def _run_case(label, telemetry=None):
    """Run one case: a preset name or a spec, under ``FAST`` and its overrides."""
    base, overrides = _cases()[label]
    if isinstance(base, str):
        base = get_scenario(base)
    return ScenarioRunner(
        base.with_overrides({**FAST, **overrides}), telemetry=telemetry
    ).run()


def _digest_case(label):
    return report_digest(_run_case(label))


def _recorded():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRegistryPresetIdentity:
    @pytest.mark.parametrize("days", DURATIONS)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("preset", scenario_names())
    def test_every_preset_reproduces_its_recorded_digest(
        self, preset, sampler, days
    ):
        label = f"{preset}/{sampler}/{days}d"
        assert _digest_case(label) == _recorded()[label], label

    def test_fixture_covers_every_case(self):
        assert sorted(_recorded()) == sorted(_cases())


class TestCouplingModeIdentity:
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_every_coupling_mode_matches_the_serial_reference(self, coupling):
        label = f"coupling={coupling}"
        assert _digest_case(label) == _recorded()[label], label


class TestForecastVariantIdentity:
    @pytest.mark.parametrize("label", sorted(_forecast_cases()))
    def test_every_forecast_variant_matches_its_recorded_digest(self, label):
        assert _digest_case(label) == _recorded()[label], label


class TestPackCapabilityIdentity:
    @pytest.mark.parametrize("label", sorted(_capability_cases()))
    def test_every_capability_case_matches_its_recorded_digest(self, label):
        assert _digest_case(label) == _recorded()[label], label


class TestPlanTailIdentity:
    @pytest.mark.parametrize("label", sorted(_tail_cases()))
    def test_every_tail_case_matches_its_recorded_digest(self, label):
        assert _digest_case(label) == _recorded()[label], label

    def test_the_emptying_pack_reaches_zero_devices(self):
        report = _run_case("forecast-buffer/emptying-pack/forecast=noisy/30d").report
        # The planner sees a pack's day-start capacity: zero means no device.
        day_start_capacity_j = report.cohort_battery_capacity_j[:, 0]
        assert day_start_capacity_j[0] > 0
        empty_days = np.flatnonzero(day_start_capacity_j == 0)
        assert empty_days.size
        # Plans start every 30 hours from hour 0: a day whose first hour is
        # not a plan start opens inside the previous plan's tail.
        hours_per_day = report.hours.shape[0] // report.days.shape[0]
        assert (empty_days[0] * hours_per_day) % TAIL_CADENCE["forecast.refresh_h"]


class TestProjectedWindows:
    """Only a pack that plans again the same day projects its SoC: none at
    the preset's 24 h horizon and refresh, some under plan tails."""

    @pytest.mark.parametrize(
        "label", ["forecast=noisy/24h/24h", "twelve-sites/tails/forecast=noisy/6d"]
    )
    def test_projections_follow_the_cadence(self, label):
        tele = Telemetry()
        result = _run_case(label, telemetry=tele)
        assert report_digest(result) == _recorded()[label], label
        planned = tele.counters["dispatch.planned_windows"]
        projected = tele.counters["dispatch.projected_windows"]
        assert planned > 0
        if "tails" in label:
            assert 1 <= projected < planned
        else:
            assert projected == 0


def _site_soc_loop(report):
    """Per-site loop reference for the report's ``soc`` view.

    Accumulates each site's weighted sum left to right — the same reduction
    order ``np.add.reduceat`` uses — over each pack's day-start capacity
    repeated to hourly rows, so the view can be pinned bitwise against it
    on mixed and single-pack sites.
    """
    pack_soc = report.cohort_soc
    steps_per_day = pack_soc.shape[0] // report.cohort_battery_capacity_j.shape[0]
    capacity_rows = np.repeat(report.cohort_battery_capacity_j, steps_per_day, axis=0)
    n_sites = len(report.site_names)
    out = np.empty((pack_soc.shape[0], n_sites))
    for site_index in range(n_sites):
        packs = [
            j
            for j, owner in enumerate(report.cohort_site_index)
            if owner == site_index
        ]
        start, stop = packs[0], packs[-1] + 1
        if stop - start == 1:
            out[:, site_index] = pack_soc[:, start]
            continue
        weighted = pack_soc[:, start] * capacity_rows[:, start]
        total = capacity_rows[:, start].copy()
        plain = pack_soc[:, start].copy()
        for j in range(start + 1, stop):
            weighted = weighted + pack_soc[:, j] * capacity_rows[:, j]
            total = total + capacity_rows[:, j]
            plain = plain + pack_soc[:, j]
        with np.errstate(invalid="ignore", divide="ignore"):
            out[:, site_index] = np.where(
                total > 0, weighted / total, plain / (stop - start)
            )
    return out


class TestSiteSocVectorization:
    """The report's ``soc`` view (segment-wise reduceat) vs the per-site loop reference."""

    @pytest.fixture(scope="class")
    def report(self):
        spec = ScenarioSpec(
            name="mixed-and-solo",
            sites=(
                SiteSpec(
                    "mixed",
                    trace=TraceSpec(region="caiso-like", n_days=2),
                    cohorts=(
                        DeviceMixSpec(count=20),
                        DeviceMixSpec("Nexus 4", 12, requests_per_device_s=8.0),
                    ),
                ),
                SiteSpec(
                    "solo",
                    trace=TraceSpec(region="hydro-heavy", n_days=2),
                    devices=DeviceMixSpec(count=15),
                ),
            ),
        )
        return FleetSimulation(
            ScenarioRunner(spec).build_sites(),
            CapacityAwareMarginalCciRouting(),
            DiurnalDemand(mean_rps=300.0),
            dispatch=CarbonBufferDispatch(),
        ).run(2)

    @staticmethod
    def _with_packs(report, pack_soc, capacity_day):
        return dataclasses.replace(
            report, cohort_soc=pack_soc, cohort_battery_capacity_j=capacity_day
        )

    def test_matches_loop_reference_on_mixed_and_single_pack_sites(self, report):
        rng = np.random.default_rng(7)
        pack_soc = rng.uniform(0.25, 1.0, size=(48, 3))
        capacity_day = rng.uniform(1e6, 5e7, size=(2, 3))
        report = self._with_packs(report, pack_soc, capacity_day)
        assert np.array_equal(report.soc, _site_soc_loop(report))

    def test_single_pack_site_passes_through_exactly(self, report):
        rng = np.random.default_rng(11)
        pack_soc = rng.uniform(0.25, 1.0, size=(48, 3))
        capacity_day = rng.uniform(1e6, 5e7, size=(2, 3))
        out = self._with_packs(report, pack_soc, capacity_day).soc
        assert np.array_equal(out[:, 1], pack_soc[:, 2])

    def test_zero_capacity_rows_fall_back_to_plain_mean(self, report):
        rng = np.random.default_rng(13)
        pack_soc = rng.uniform(0.25, 1.0, size=(48, 3))
        report = self._with_packs(report, pack_soc, np.zeros((2, 3)))
        vectorized = report.soc
        assert np.array_equal(vectorized, _site_soc_loop(report))
        expected = (pack_soc[:, 0] + pack_soc[:, 1]) / 2
        assert np.array_equal(vectorized[:, 0], expected)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_execution_identity.py --record")
    digests = {label: _digest_case(label) for label in sorted(_cases())}
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
