"""Fleet sites: regional grid presets and site power/carbon accounting."""

import dataclasses

import numpy as np
import pytest

from fleet_oracles import (
    battery_wear_g_per_request,
    bits,
    cohort_marginal_g,
    dynamic_energy_per_request_j,
)
from fleet_specs import fleet_spec, site_spec, two_site_spec
from repro.cluster.peripherals import SERVER_FAN, SMART_PLUG
from repro.fleet.dispatch import PackTable
from repro.fleet.population import ChurnTable
from repro.fleet.sites import (
    REGIONAL_GENERATORS,
    FleetSite,
    ercot_like_generator,
    hydro_heavy_generator,
    regional_trace,
)
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import DeviceMixSpec
from repro.thermal.cooling import plan_cooling


class TestRegionalPresets:
    def test_presets_are_registered(self):
        assert set(REGIONAL_GENERATORS) == {"caiso-like", "ercot-like", "hydro-heavy"}

    def test_regional_intensity_ordering(self):
        """Hydro-heavy must be the cleanest grid, ERCOT-like the dirtiest."""
        means = {
            region: regional_trace(region, n_days=7).mean_intensity()
            for region in REGIONAL_GENERATORS
        }
        assert means["hydro-heavy"] < means["caiso-like"] < means["ercot-like"]
        # And the asymmetry is big enough that routing matters.
        assert means["ercot-like"] > 2.0 * means["hydro-heavy"]

    def test_generators_are_deterministic(self):
        a = ercot_like_generator(seed=3).generate_days(1)
        b = ercot_like_generator(seed=3).generate_days(1)
        assert np.array_equal(a.intensity_g_per_kwh, b.intensity_g_per_kwh)

    def test_hydro_heavy_is_flat(self):
        """Baseload hydro keeps intensity variance well below the duck curve's."""
        hydro = hydro_heavy_generator(seed=1).generate_days(1)
        caiso = regional_trace("caiso-like", n_days=1, seed=1)
        assert np.std(hydro.intensity_g_per_kwh) < np.std(caiso.intensity_g_per_kwh)

    def test_unknown_region_raises(self):
        with pytest.raises(ValueError, match="unknown region"):
            regional_trace("mars-colony")


class TestFleetSite:
    @pytest.fixture(scope="class")
    def site(self):
        spec = fleet_spec(site_spec("test", "caiso-like", 50), seed=3)
        return ScenarioRunner(spec).build_sites()[0]

    def test_capacity_follows_population(self, site):
        (cohort,) = site.cohorts
        packs = PackTable.from_sites([site])
        counts = ChurnTable(site.cohorts).active
        expected = cohort.target_size * cohort.requests_per_device_s
        assert (counts * packs.requests_per_device_s)[0] == expected

    def test_peripherals_follow_the_paper_recipe_per_cohort(self, site):
        """A smart plug per phone and each cohort's own fans, summed."""
        mixed = ScenarioRunner(
            fleet_spec(
                site_spec(
                    "mixed", "caiso-like",
                    cohorts=(DeviceMixSpec(count=30), DeviceMixSpec("Nexus 4", 20)),
                )
            )
        ).build_sites()[0]
        for each in (site, mixed):
            bill = {p.name: count for p, count in each.peripherals.items}
            assert bill == {
                SMART_PLUG.name: sum(c.target_size for c in each.cohorts),
                SERVER_FAN.name: sum(
                    plan_cooling(c.device, c.target_size).fans for c in each.cohorts
                ),
            }
            assert each.peripheral_power_w == each.peripherals.total_power_w
            assert each.peripheral_power_w > 0  # plugs + fans
        # Each cohort brings its own fan, though 50 pooled phones need one.
        assert plan_cooling(mixed.cohorts[0].device, 50).fans == 1
        assert {p.name: count for p, count in mixed.peripherals.items} == {
            SMART_PLUG.name: 50,
            SERVER_FAN.name: 2,
        }

    def test_power_model_is_affine_in_load(self, site):
        (entry,) = site.cohorts
        (count,) = ChurnTable(site.cohorts).active.tolist()
        packs = PackTable.from_sites([site])

        def site_power_w(served_rps):
            device_w = count * packs.idle_w + served_rps * packs.dynamic_j
            return site.peripheral_power_w + device_w

        capacity = count * entry.requests_per_device_s
        served = np.array([0.0, capacity / 2.0, capacity])
        idle, half, full = site_power_w(served[:, None])[:, 0]
        assert idle < half < full
        assert full - half == pytest.approx(half - idle)
        # Fully loaded, each phone draws its peak power.
        expected_device_draw = count * entry.device.power_model.peak_power_w
        assert full - site.peripherals.total_power_w == pytest.approx(
            expected_device_draw
        )

    def test_wraparound_intensity(self, site):
        period = site.trace.period_s
        many_days_later = 400 * 86_400.0
        at = site.trace.intensities_at(
            np.array([0.0, period, many_days_later, many_days_later % period]),
            wrap=True,
        )
        assert at[0] == pytest.approx(at[1])
        assert at[2] == pytest.approx(at[3])

    def test_marginal_carbon_tracks_intensity(self, site):
        times = np.arange(0, 86_400.0, 3_600.0)
        intensities = site.trace.intensities_at(times, wrap=True)
        packs = PackTable.from_sites([site])
        marginals = packs.marginal_g(intensities[:, None])[:, 0]
        (entry,) = site.cohorts
        wear = packs.wear_g[0]
        assert wear > 0  # swap-enabled Pixel site carries wear carbon
        assert wear.hex() == battery_wear_g_per_request(entry).hex()
        assert packs.dynamic_j[0].hex() == dynamic_energy_per_request_j(entry).hex()
        expected = packs.dynamic_j[0] * intensities / 3.6e6 + wear
        assert np.allclose(marginals, expected)
        assert bits(marginals) == bits(
            [cohort_marginal_g(entry, value) for value in intensities.tolist()]
        )

    def test_network_rtt_must_be_non_negative_and_finite(self, site):
        for rtt in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-negative and finite"):
                FleetSite(
                    name="broken",
                    trace=site.trace,
                    cohorts=site.cohorts,
                    network_rtt_s=rtt,
                )

    def test_site_is_frozen_and_rederives_its_peripherals(self, site):
        with pytest.raises(dataclasses.FrozenInstanceError):
            site.name = "renamed"
        doubled = dataclasses.replace(site, cohorts=site.cohorts * 2)
        (count,) = [n for p, n in doubled.peripherals.items if p is SMART_PLUG]
        assert count == 2 * site.cohorts[0].target_size


def test_two_site_asymmetric_fleet_shape():
    sites = ScenarioRunner(two_site_spec(25, seed=9, n_trace_days=7)).build_sites()
    assert [site.name for site in sites] == ["texas", "cascadia"]
    texas, cascadia = sites
    assert texas.trace.mean_intensity() > cascadia.trace.mean_intensity()
    churn = ChurnTable(cohort for site in sites for cohort in site.cohorts)
    assert churn.active.tolist() == [25, 25]
