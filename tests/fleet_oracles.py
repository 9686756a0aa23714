"""Scalar oracles for the per-pack quantities of :class:`~repro.fleet.PackTable`.

Each function is one pack's (or one site's) quantity written the scalar
way, term by term in the order the table must reproduce: the tests hold
the table's columns, marginals, wear derate and latency-probe slots to
these bit for bit.
"""

import numpy as np

from repro import units


def dynamic_energy_per_request_j(entry):
    """Incremental energy (J) of one request on one device of ``entry``."""
    power = entry.device.power_model
    return (power.peak_power_w - power.idle_power_w) / entry.requests_per_device_s


def battery_wear_g_per_request(entry):
    """Embodied battery carbon (g) amortised per request; 0 without swaps."""
    battery = entry.device.battery
    if battery is None or not entry.policy.swap_batteries:
        return 0.0
    wear_g_per_joule = units.kg_to_grams(battery.embodied_carbon_kgco2e) / (
        battery.cycle_life * battery.capacity_joules
    )
    return wear_g_per_joule * dynamic_energy_per_request_j(entry)


def cohort_marginal_g(entry, intensity, include_wear=True):
    """Marginal carbon (g) of one request on ``entry`` at a scalar intensity."""
    grams = dynamic_energy_per_request_j(entry) * intensity / units.JOULES_PER_KWH
    if include_wear:
        grams = grams + battery_wear_g_per_request(entry)
    return grams


def site_marginal_g(site, intensity, include_wear=True):
    """A site's key: the lowest cohort marginal at a scalar intensity."""
    return min(
        cohort_marginal_g(entry, intensity, include_wear) for entry in site.cohorts
    )


def effective_capacity_rps(entry, count, wear, wear_derate):
    """``entry``'s capacity at ``count`` live devices scaled by
    ``max(0, 1 - k * wear)`` for their mean battery ``wear``."""
    capacity = count * entry.requests_per_device_s
    if wear_derate <= 0.0:
        return capacity
    return capacity * max(0.0, 1.0 - wear_derate * wear)


def site_rate(site):
    """Target-weighted mean per-device rate of a site (exact for one cohort)."""
    if len(site.cohorts) == 1:
        return site.cohorts[0].requests_per_device_s
    total = sum(entry.target_size for entry in site.cohorts)
    return (
        sum(entry.target_size * entry.requests_per_device_s for entry in site.cohorts)
        / total
    )


def device_slots(site, counts, wears, wear_derate):
    """Concurrent request slots the latency probe offers ``site``, its
    cohorts at live ``counts`` and mean battery ``wears``."""
    capacity = sum(
        effective_capacity_rps(entry, count, wear, wear_derate)
        for entry, count, wear in zip(site.cohorts, counts, wears)
    )
    if capacity <= 0:
        return 0
    return max(1, int(round(capacity / site_rate(site))))


def bits(values):
    """Each value's exact bit pattern, for bitwise comparisons."""
    return [float(v).hex() for v in np.ravel(values)]


def site_summaries_loop(report):
    """:meth:`FleetReport.site_summaries` one site column at a time."""
    from repro.fleet.reporting import SiteSummary

    target = report.target_devices
    summaries = []
    for j, name in enumerate(report.site_names):
        summaries.append(
            SiteSummary(
                name=name,
                served_requests=float(report.served_rps[:, j].sum() * report.step_s),
                operational_carbon_g=float(report.operational_g[:, j].sum()),
                replacement_carbon_g=float(report.replacement_carbon_g[:, j].sum()),
                mean_intensity_g_per_kwh=float(
                    np.mean(report.intensity_g_per_kwh[:, j])
                ),
                availability=float(
                    np.mean(report.active_devices[:, j] / float(target[j]))
                ),
                failures=int(report.failures[:, j].sum()),
                battery_swaps=int(report.battery_swaps[:, j].sum()),
                deployed=int(report.deployed[:, j].sum()),
            )
        )
    return summaries


def cohort_summaries_loop(report):
    """:meth:`FleetReport.cohort_summaries` one pack column at a time."""
    from repro.fleet.reporting import CohortSummary

    discharge = report.cohort_battery_kwh.sum(axis=0)
    summaries = []
    for j, label in enumerate(report.cohort_labels):
        target = float(report.cohort_target[j])
        summaries.append(
            CohortSummary(
                label=label,
                site=report.site_names[int(report.cohort_site_index[j])],
                served_requests=float(
                    report.cohort_served_rps[:, j].sum() * report.step_s
                ),
                replacement_carbon_g=float(
                    report.cohort_replacement_carbon_g[:, j].sum()
                ),
                availability=float(np.mean(report.cohort_active[:, j] / target)),
                failures=int(report.cohort_failures[:, j].sum()),
                battery_swaps=int(report.cohort_battery_swaps[:, j].sum()),
                deployed=int(report.cohort_deployed[:, j].sum()),
                battery_discharge_kwh=float(discharge[j]),
                device_energy_kwh=float(report.cohort_energy_kwh[:, j].sum()),
            )
        )
    return summaries


def summary_bits(summaries):
    """Each summary's fields with their types, floats as exact bit patterns."""
    import dataclasses

    return [
        [
            (field.name, type(value).__name__,
             value.hex() if isinstance(value, float) else value)
            for field in dataclasses.fields(summary)
            for value in (getattr(summary, field.name),)
        ]
        for summary in summaries
    ]
