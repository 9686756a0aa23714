#!/usr/bin/env python3
"""Smart charging on a Californian grid (the paper's Section 4.3 study).

The script generates a synthetic month of CAISO-like grid data, runs the
paper's percentile-threshold smart-charging policy for a Pixel 3A and a
ThinkPad X1 Carbon, compares it against naive charging baselines, and shows
how the measured savings feed back into the cloudlet carbon model.

Run with ``python examples/smart_charging_california.py``.
"""

from repro.analysis.report import format_table
from repro.charging import (
    AlwaysPlugged,
    ChargingSimulator,
    NaiveCharging,
    SmartChargingPolicy,
    compare_policies,
)
from repro.cluster import pixel_cloudlet_design
from repro.devices import PIXEL_3A, SGEMM, THINKPAD_X1_CARBON_G3
from repro.grid import CaisoLikeTraceGenerator, california


def describe_grid(trace) -> None:
    print(
        f"Synthetic CAISO-like month: {trace.n_days} days, "
        f"mean intensity {trace.mean_intensity():.0f} gCO2e/kWh, "
        f"range {trace.intensity_g_per_kwh.min():.0f}-"
        f"{trace.intensity_g_per_kwh.max():.0f} gCO2e/kWh"
    )
    day = trace.day(5)
    hours = day.times_s / 3_600.0
    midday = day.intensity_g_per_kwh[(hours >= 11) & (hours < 15)].mean()
    evening = day.intensity_g_per_kwh[(hours >= 19) & (hours < 22)].mean()
    print(f"Day 5: mid-day {midday:.0f} vs evening {evening:.0f} gCO2e/kWh (solar dip)\n")


def charging_study(trace) -> float:
    rows = []
    pixel_savings = 0.0
    for device in (PIXEL_3A, THINKPAD_X1_CARBON_G3):
        results = compare_policies(
            device,
            trace,
            policies=[AlwaysPlugged(), NaiveCharging(), SmartChargingPolicy()],
        )
        for result in results:
            rows.append(
                [
                    device.name,
                    result.policy_name,
                    f"{100 * result.median_savings:.2f}%",
                    f"{100 * result.savings_std:.2f}%",
                ]
            )
            if device is PIXEL_3A and result.policy_name == "SmartChargingPolicy":
                pixel_savings = result.median_savings
    print("Carbon savings versus an always-plugged baseline:")
    print(format_table(["Device", "Policy", "Median savings", "Std"], rows))
    print()
    return pixel_savings


def feed_into_cloudlet(pixel_savings: float) -> None:
    measured_mix = california(smart_charging_discount=pixel_savings)
    default_mix = california()
    measured = pixel_cloudlet_design(SGEMM, measured_mix, smart_charging=True)
    assumed = pixel_cloudlet_design(SGEMM, default_mix, smart_charging=True)
    print("Cluster-level effect of the measured smart-charging savings (54 Pixel 3As):")
    print(
        format_table(
            ["Assumption", "Operational carbon, 3y (kg)"],
            [
                ["paper's 7% discount", f"{assumed.operational_carbon_g(36.0) / 1e3:.1f}"],
                [
                    f"measured {100 * pixel_savings:.1f}% discount",
                    f"{measured.operational_carbon_g(36.0) / 1e3:.1f}",
                ],
            ],
        )
    )


def main() -> None:
    trace = CaisoLikeTraceGenerator(seed=2021).generate_days(30)
    describe_grid(trace)
    pixel_savings = charging_study(trace)

    # Show one day's schedule in detail.
    simulator = ChargingSimulator(device=PIXEL_3A, policy=SmartChargingPolicy())
    day_result, _ = simulator.simulate_day(trace.day(6), previous_day=trace.day(5))
    print(
        f"Example day: threshold {day_result.threshold_g_per_kwh:.0f} gCO2e/kWh, "
        f"plugged in {100 * day_result.charging_time_fraction:.0f}% of the day, "
        f"saved {100 * day_result.savings_fraction:.1f}% of operational carbon\n"
    )

    feed_into_cloudlet(pixel_savings)


if __name__ == "__main__":
    main()
