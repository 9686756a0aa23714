"""Cross-cutting property-based tests on the library's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from des_oracle import CpuResource, Simulator
from repro import units
from repro.core.carbon import CarbonComponents, operational_carbon_g
from repro.core.cci import DeviceCarbonModel, computational_carbon_intensity
from repro.core.lifetime import crossover_month
from repro.devices.catalog import NEXUS_4, PIXEL_3A, POWEREDGE_R740, TABLE1_DEVICES
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.grid.mix import constant_mix


# ---------------------------------------------------------------------------
# CCI invariants
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=120.0),
    st.floats(min_value=0.0, max_value=900.0),
)
def test_cci_scales_linearly_with_grid_intensity_for_reused_devices(months, intensity):
    """A reused device's carbon is purely operational, so CCI ∝ grid intensity."""
    base = DeviceCarbonModel(PIXEL_3A, reused=True, energy_mix=constant_mix("a", intensity))
    double = DeviceCarbonModel(
        PIXEL_3A, reused=True, energy_mix=constant_mix("b", 2 * intensity)
    )
    assert double.cci("SGEMM", months) == pytest.approx(
        2 * base.cci("SGEMM", months), abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=119.0), st.floats(min_value=1.0, max_value=60.0))
def test_new_device_cci_monotonically_decreases_with_lifetime(months, extra):
    """Amortising a fixed embodied cost over more work can only lower CCI."""
    model = DeviceCarbonModel(POWEREDGE_R740, reused=False)
    assert model.cci("SGEMM", months + extra) <= model.cci("SGEMM", months) + 1e-15


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([d.name for d in TABLE1_DEVICES]), st.floats(min_value=1.0, max_value=96.0))
def test_reuse_never_increases_cci(device_name, months):
    """Zeroing the manufacturing carbon can never make a device look worse."""
    device = {d.name: d for d in TABLE1_DEVICES}[device_name]
    reused = DeviceCarbonModel(device, reused=True)
    new = DeviceCarbonModel(device, reused=False)
    assert reused.cci("Dijkstra", months) <= new.cci("Dijkstra", months)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e9),
)
def test_cci_additivity_over_carbon_components(embodied, operational, networking, work):
    """CCI of a sum of components equals the sum of per-component intensities."""
    total = CarbonComponents(embodied, operational, networking)
    combined = computational_carbon_intensity(total.total_g, work)
    parts = sum(
        computational_carbon_intensity(value, work) if value > 0 else 0.0
        for value in (embodied, operational, networking)
    )
    assert combined == pytest.approx(parts, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Power / energy invariants
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_average_power_is_convex_combination(f100, f50, f10):
    """Any load profile's average power lies between idle and peak power."""
    total = f100 + f50 + f10
    if total > 1.0:
        f100, f50, f10 = f100 / total, f50 / total, f10 / total
        total = 1.0
    profile = LoadProfile({1.0: f100, 0.5: f50, 0.1: f10, 0.0: 1.0 - total})
    for device in (PIXEL_3A, NEXUS_4, POWEREDGE_R740):
        average = device.average_power_w(profile)
        assert device.power_model.idle_power_w - 1e-9 <= average
        assert average <= device.power_model.peak_power_w + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=1.0, max_value=1e7))
def test_operational_carbon_equals_energy_times_intensity(power, duration):
    grams = operational_carbon_g(power, duration, 257.0)
    assert grams == pytest.approx(units.joules_to_kwh(power * duration) * 257.0)


# ---------------------------------------------------------------------------
# Crossover invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_crossover_identifies_sign_change(slope_a, slope_b, offset):
    """For a rising line versus a constant, the crossover is where they meet."""
    months = np.arange(1.0, 61.0)
    rising = slope_a * months
    flat = np.full_like(months, offset)
    crossover = crossover_month(months, rising, flat)
    analytic = offset / slope_a
    if rising[0] >= flat[0]:
        assert crossover == months[0]
    elif analytic > months[-1]:
        assert crossover is None
    else:
        assert crossover == pytest.approx(analytic, rel=1e-6)
    # The comparison is antisymmetric: if A crosses above B somewhere inside
    # the grid, then B never crosses above A at an earlier point.
    reverse = crossover_month(months, flat, rising)
    if crossover is not None and crossover > months[0]:
        assert reverse == months[0] or reverse is None or reverse <= crossover


# ---------------------------------------------------------------------------
# Queueing invariants
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=1.0, max_value=50.0), min_size=1, max_size=20),
)
def test_cpu_work_conservation(cores, jobs):
    """Total busy time equals total submitted work regardless of queueing."""
    sim = Simulator()
    cpu = CpuResource(sim, cores=cores, speed=1.0)

    def worker(work_ms):
        yield from cpu.execute(work_ms)

    for work in jobs:
        sim.spawn(worker(work))
    sim.run()
    total_work_s = sum(jobs) / 1_000.0
    assert cpu.busy_time(0.0, sim.now) == pytest.approx(total_work_s, rel=1e-9)
    # And the makespan is bounded by the single-core and perfectly-parallel extremes.
    assert sim.now <= total_work_s + 1e-9
    assert sim.now >= total_work_s / cores - 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_fifo_queue_preserves_completion_order_for_equal_jobs(n_jobs):
    """Equal-length jobs on a single core finish in submission order."""
    sim = Simulator()
    cpu = CpuResource(sim, cores=1, speed=1.0)
    completions = []

    def worker(index):
        yield from cpu.execute(5.0)
        completions.append(index)

    for index in range(n_jobs):
        sim.spawn(worker(index))
    sim.run()
    assert completions == sorted(completions)
