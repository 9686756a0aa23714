"""The latency probe against the per-request DES oracle.

:func:`~repro.fleet.simulate_latency_aware` draws arrival gaps and service
times, and computes routing keys, for a block of arrivals at a time, and
runs each site's FIFO queue as a recursion over slot free times.  The
oracle below is the loop it replaced: one scalar draw and one scalar key
per request, each request a process on the discrete-event engine holding
a ``Resource`` slot.  Both must agree bitwise on every latency sample, the
summary and ``served_by_site``, and exactly on the count of requests that
waited for a slot, over random demand, duration, penalty, service
distribution and policy, including arrival counts of exactly ``k`` blocks
and one either side.
"""

import contextlib
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.fleet.scheduler as scheduler_module
from des_oracle import Resource, Simulator, Timeout, exponential, lognormal_factor
from fleet_oracles import device_slots, site_marginal_g, site_rate
from fleet_specs import fleet_spec, pixel_rack_spec, site_spec, two_site_spec
from repro.fleet.population import ChurnTable
from repro.fleet.scheduler import (
    SERVICE_DISTRIBUTIONS,
    _BLOCK,
    GreedyLowestIntensityRouting,
    policy_by_name,
    simulate_latency_aware,
)
from repro.grid.traces import GridTrace
from repro.microservices.calibration import SERVICE_TIME_SIGMA
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import DeviceMixSpec
from repro.simulation.metrics import summarize
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import Telemetry


def _scalar_key(policy, site, now_s):
    """The per-request key the oracle routes by (``None`` rotates)."""
    if policy.name == "round-robin":
        return None
    intensity = site.trace.intensity_at(now_s, wrap=True)
    return site_marginal_g(site, intensity, include_wear=policy.name == "marginal-cci")


def simulate_per_request(
    sites, policy, demand_rps, duration_s, seed, queue_penalty_g, service_distribution
):
    """The per-request probe loop: scalar draws and scalar keys.

    Also returns the arrival times it routed at, in order, and how many
    requests waited for a slot (the clock moved across their acquire).
    """
    simulator = Simulator()
    streams = RandomStreams(seed=seed)
    latencies = []
    served_by_site = {site.name: 0 for site in sites}
    routed_by_site = {site.name: 0 for site in sites}
    # The probe's default state: the sites as deployed.
    churn = ChurnTable(cohort for site in sites for cohort in site.cohorts)
    counts, wears = churn.active.tolist(), churn.mean_battery_wear().tolist()
    effective_devices = {}
    for site in sites:
        n = len(site.cohorts)
        effective_devices[site.name] = device_slots(
            site, counts[:n], wears[:n], policy.wear_derate
        )
        counts, wears = counts[n:], wears[n:]
    pools = {
        site.name: Resource(
            simulator, capacity=effective_devices[site.name], name=site.name
        )
        for site in sites
    }
    service_s = {site.name: 1.0 / site_rate(site) for site in sites}
    lognormal_mean_correction = float(np.exp(-0.5 * SERVICE_TIME_SIGMA**2))

    def draw_service_s(site):
        mean = service_s[site.name]
        if service_distribution == "exponential":
            return exponential(streams, f"service@{site.name}", mean)
        if service_distribution == "lognormal":
            factor = lognormal_factor(
                streams, f"service@{site.name}", SERVICE_TIME_SIGMA
            )
            return mean * factor * lognormal_mean_correction
        return mean

    routed_at = []

    def route(now_s):
        routed_at.append(now_s)
        keys = [_scalar_key(policy, site, now_s) for site in sites]
        if any(key is None for key in keys):
            shares = [
                routed_by_site[site.name]
                / (effective_devices[site.name] * site_rate(site))
                for site in sites
            ]
            best = int(np.argmin(shares))
        else:
            penalized = [
                key + pools[site.name].queue_length * queue_penalty_g
                for key, site in zip(keys, sites)
            ]
            best = int(np.argmin(penalized))
        routed_by_site[sites[best].name] += 1
        return sites[best]

    queued = {"count": 0}

    def handle(site, start_s):
        pool = pools[site.name]
        asked_s = simulator.now
        yield pool.acquire()
        if simulator.now > asked_s:
            queued["count"] += 1
        yield Timeout(draw_service_s(site))
        pool.release()
        yield Timeout(site.network_rtt_s)
        latencies.append(simulator.now - start_s)
        served_by_site[site.name] += 1

    spawned = {"count": 0}

    def arrivals():
        while simulator.now < duration_s:
            yield Timeout(exponential(streams, "arrivals", 1.0 / demand_rps))
            if simulator.now >= duration_s:
                break
            site = route(simulator.now)
            spawned["count"] += 1
            simulator.spawn(handle(site, simulator.now), name=f"req@{site.name}")

    simulator.spawn(arrivals(), name="arrivals")
    simulator.run()
    samples = {"request": latencies}
    summaries = summarize(samples, offered={"request": spawned["count"]})
    if "request" not in summaries:
        raise RuntimeError("no requests completed; increase duration or demand")
    return summaries["request"], served_by_site, samples, routed_at, queued["count"]


@contextlib.contextmanager
def _capturing_samples():
    """Wrap the probe's ``summarize`` to keep the latencies it summarises."""
    captured = []
    original = scheduler_module.summarize

    def capturing_summarize(samples, *args, **kwargs):
        captured.append(samples)
        return original(samples, *args, **kwargs)

    scheduler_module.summarize = capturing_summarize
    try:
        yield captured
    finally:
        scheduler_module.summarize = original


@functools.lru_cache(maxsize=None)
def _fleet(kind):
    """Probe fleets; the probe never mutates its sites, so they are shared."""
    if kind == "two-site":
        spec = two_site_spec(5, seed=1, n_trace_days=2)
    elif kind == "pixel-rack":
        spec = pixel_rack_spec(seed=1)
    elif kind == "three-cohort":
        # Distinct non-integer rates, so the site's sums have unequal terms.
        spec = fleet_spec(
            site_spec("texas", "ercot-like", 3, n_trace_days=2),
            site_spec(
                "mixed", "hydro-heavy", n_trace_days=2,
                cohorts=(
                    DeviceMixSpec(count=5, requests_per_device_s=13.7),
                    DeviceMixSpec("Nexus 4", 4, requests_per_device_s=6.1),
                    DeviceMixSpec("Nexus 5", 3, requests_per_device_s=9.35),
                ),
            ),
            seed=1,
        )
    elif kind == "four-site":
        # ``hydro`` and ``twin`` are two Pixel 3A racks on one trace, so
        # their keys tie on every arrival.
        texas, hydro, twin, caiso = ScenarioRunner(
            fleet_spec(
                site_spec("texas", "ercot-like", 3, n_trace_days=2),
                site_spec("hydro", "hydro-heavy", 2, n_trace_days=2),
                site_spec("twin", "hydro-heavy", 2, n_trace_days=2),
                site_spec("caiso", "caiso-like", 3, n_trace_days=2),
                seed=1,
            )
        ).build_sites()
        return (texas, hydro, dataclasses.replace(twin, trace=hydro.trace), caiso)
    else:
        spec = fleet_spec(
            site_spec("texas", "ercot-like", 4, n_trace_days=2),
            site_spec(
                "mixed", "hydro-heavy", n_trace_days=2,
                cohorts=(DeviceMixSpec(count=3), DeviceMixSpec("Nexus 4", 3)),
            ),
            seed=1,
        )
    return tuple(ScenarioRunner(spec).build_sites())


def _arrival_times(seed, demand_rps, count):
    """The first ``count`` arrival times, summed one scalar gap at a time."""
    rng = RandomStreams(seed=seed).stream("arrivals")
    now, times = 0.0, []
    for _ in range(count):
        now = now + float(rng.exponential(1.0 / demand_rps))
        times.append(now)
    return times


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_probe_matches_oracle(fleet, policy_name, wear_derate, demand_rps,
                                 duration_s, seed, penalty, distribution):
    sites = list(_fleet(fleet))
    policy = policy_by_name(policy_name, wear_derate)
    asked = []  # the times each block's keys looked site 0's intensity up at
    intensities_at = GridTrace.intensities_at

    def recording_intensities_at(trace, times_s, wrap=False):
        if trace is sites[0].trace:
            asked.append(np.array(times_s))
        return intensities_at(trace, times_s, wrap=wrap)

    tele = Telemetry()

    def probe():
        GridTrace.intensities_at = recording_intensities_at
        try:
            return simulate_latency_aware(
                sites,
                policy,
                demand_rps=demand_rps,
                duration_s=duration_s,
                seed=seed,
                queue_penalty_g=penalty,
                service_distribution=distribution,
                telemetry=tele,
            )
        finally:
            GridTrace.intensities_at = intensities_at

    try:
        (
            want_summary, want_served, want_samples, routed_at, want_queued
        ) = simulate_per_request(
            sites, policy_by_name(policy_name, wear_derate),
            demand_rps, duration_s, seed, penalty, distribution,
        )
    except RuntimeError:  # no arrival before the horizon
        with pytest.raises(RuntimeError, match="no requests completed"):
            probe()
        return None
    with _capturing_samples() as captured:
        summary, served = probe()
    (samples,) = captured
    assert _bits(samples["request"]) == _bits(want_samples["request"])
    assert dataclasses.astuple(summary) == dataclasses.astuple(want_summary)
    assert served == want_served
    assert tele.counters["probe.queued"] == want_queued
    # Only a backlog sends an arrival through the penalty scan, and
    # rotation never scans.
    scanned = tele.counters["probe.scanned"]
    assert scanned <= summary.offered
    if want_queued == 0 or policy_name == "round-robin":
        assert scanned == 0
    # Keys are computed at the engine's own arrival times, bit for bit, and
    # only for the arrivals before the horizon.
    assert _bits(np.concatenate(asked)) == _bits(routed_at)
    return summary, served, tele.counters


probe_case = st.fixed_dictionaries(
    {
        "fleet": st.sampled_from(
            ["two-site", "mixed-cohort", "three-cohort", "four-site"]
        ),
        "policy_name": st.sampled_from(
            ["round-robin", "greedy-lowest-intensity", "marginal-cci"]
        ),
        "wear_derate": st.sampled_from([0.0, 0.5]),
        "demand_rps": st.floats(min_value=20.0, max_value=400.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        "penalty": st.sampled_from([0.0, 1e-7, 5e-6, 1e-3]),
        "distribution": st.sampled_from(SERVICE_DISTRIBUTIONS),
    }
)


@settings(max_examples=40, deadline=None)
@given(probe_case, st.floats(min_value=0.05, max_value=8.0))
def test_block_probe_is_bitwise_equal_to_the_per_request_loop(case, duration_s):
    _assert_probe_matches_oracle(duration_s=duration_s, **case)


@settings(max_examples=12, deadline=None)
@given(
    probe_case,
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=-1, max_value=1),
    st.booleans(),
)
def test_block_edges_are_bitwise_equal_to_the_per_request_loop(
    case, blocks, offset, on_the_next_arrival
):
    """Exactly ``k`` blocks of arrivals, and one either side.

    The duration ends on the first arrival left out, or just before it, so
    the run also covers an arrival landing exactly on the horizon.
    """
    count = blocks * _BLOCK + offset
    times = _arrival_times(case["seed"], case["demand_rps"], count + 1)
    end = times[count]
    duration_s = end if on_the_next_arrival else (times[count - 1] + end) / 2.0
    summary, _, _ = _assert_probe_matches_oracle(duration_s=duration_s, **case)
    assert summary.offered == count


def test_same_device_rack_offers_the_oracle_slots():
    """Two Pixel 3A cohorts at 20 and 10 req/s: the site serves at their
    target-weighted mean rate through ``device_slots`` slots, and demand
    above its 80 req/s capacity makes requests queue for them."""
    (site,) = _fleet("pixel-rack")
    assert device_slots(site, [3, 2], [0.0, 0.0], 0.0) == 5
    summary, _, counters = _assert_probe_matches_oracle(
        "pixel-rack", "marginal-cci", 0.0, demand_rps=120.0, duration_s=2.0,
        seed=5, penalty=1e-6, distribution="lognormal",
    )
    assert summary.offered > 0
    assert counters["probe.queued"] > 0


@pytest.mark.parametrize("policy_name", ["greedy-lowest-intensity", "marginal-cci"])
def test_overloaded_four_site_fleet_scans_and_shortcuts(policy_name):
    """Demand above the cleanest site's 40 req/s queues requests there and
    spills them to its tied twin and on to a dirtier site.  Backlog-free
    arrivals take the per-block argmin and the rest the penalty scan; both
    stay bitwise equal to the oracle."""
    summary, served, counters = _assert_probe_matches_oracle(
        "four-site", policy_name, 0.0, demand_rps=60.0, duration_s=3.0,
        seed=11, penalty=5e-6, distribution="exponential",
    )
    assert counters["probe.queued"] > 0
    assert 0 < counters["probe.scanned"] < summary.offered
    assert sum(1 for count in served.values() if count > 0) >= 2


class _KeyedPolicy(GreedyLowestIntensityRouting):
    """Greedy keys with ``bad`` written into one arrival's key."""

    def __init__(self, bad):
        super().__init__()
        self.bad = bad

    def request_keys(self, packs, intensity):
        keys = super().request_keys(packs, intensity)
        keys[0, 0] = self.bad
        return keys


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_request_keys_are_rejected(bad):
    """NaN is where argmin and ``min`` disagree, so no key may be non-finite."""
    with pytest.raises(ValueError, match="non-finite request key"):
        simulate_latency_aware(
            list(_fleet("two-site")), _KeyedPolicy(bad), demand_rps=50.0,
            duration_s=1.0,
        )


@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_block_draws_equal_scalar_draws(seed):
    """The probe's block draws rely on NumPy drawing a block and scalars alike."""
    block_streams, scalar_streams = RandomStreams(seed), RandomStreams(seed)
    block = block_streams.stream("s").exponential(0.05, size=_BLOCK)
    scalar = [exponential(scalar_streams, "s", 0.05) for _ in range(_BLOCK)]
    assert _bits(block) == _bits(scalar)
    block = block_streams.stream("s").lognormal(0.0, SERVICE_TIME_SIGMA, size=_BLOCK)
    scalar = [
        lognormal_factor(scalar_streams, "s", SERVICE_TIME_SIGMA)
        for _ in range(_BLOCK)
    ]
    assert _bits(block) == _bits(scalar)


def test_block_arrival_times_equal_scalar_sums():
    """A cumulative sum seeded with the clock adds gaps one at a time."""
    gaps = RandomStreams(7).stream("arrivals").exponential(0.003, size=_BLOCK)
    now = 12.345
    times = np.cumsum(np.concatenate(([now], gaps)))[1:]
    expected = []
    for gap in gaps.tolist():
        now = now + gap
        expected.append(now)
    assert _bits(times) == _bits(expected)
