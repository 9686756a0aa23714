"""Bitwise lock of the discrete-event engine against recorded digests.

``data/des_digests.json`` holds a SHA-256 over everything a DES run returns:

* the DeathStarBench SocialNetwork write point (2k QPS) and read point
  (4k QPS) on the Pixel cloudlet, 0.15 s each, at two seeds: every latency
  sample, the offered and completed counts, the summaries, energy, network
  bytes and each node's utilisation timeline arrays;
* one multi-window Figure 8-style run (3 s, 1 s utilisation windows);
* the fleet latency probe (:func:`~repro.fleet.simulate_latency_aware`)
  for every service distribution under round-robin, greedy and
  marginal-CCI routing, plus probe cases that reach other paths: a
  mixed-cohort site (the site marginal is a minimum over cohorts), a
  wear-derated policy on a worn site, a run offering more than two
  blocks of arrivals, and a three-cohort site (Pixel 3A, Nexus 4, Nexus 5
  at distinct non-integer rates and wear) under a wear-derated
  marginal-CCI policy and under round-robin.  Each digest covers the
  summary, every latency sample and ``served_by_site``;
* the probe as :meth:`~repro.scenarios.ScenarioRunner.run` calls it on a
  three-cohort fleet, which also pins the runner's live-capacity sum (it
  sets the probe's demand).  Its digest covers the summary and every
  latency sample.

The three-cohort rates are chosen so that summing the site's or the
fleet's capacities in another order moves the last bit of the sum.

Any change to the engine, the resources or the serving cluster that moves
a single bit of these outputs fails here.

Re-record (only for a change that is *meant* to move results) with::

    PYTHONPATH=src:tests python tests/simulation/test_des_identity.py --record
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import pytest

import repro.fleet.scheduler as scheduler_module
import repro.microservices.cluster as cluster_module
from fleet_specs import worn_churn
from repro.fleet.scheduler import policy_by_name, simulate_latency_aware
from repro.microservices.apps import COMPOSE_POST, READ_USER_TIMELINE, social_network
from repro.microservices.cluster import pixel_cloudlet
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario
from repro.scenarios.spec import (
    DemandSpec,
    DeviceMixSpec,
    RoutingSpec,
    SiteSpec,
    TraceSpec,
)
from repro.simulation.metrics import LatencySummary

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "des_digests.json"
)

#: DeathStarBench cases: label -> (request type, QPS, duration, warm-up, seed).
SERVING_CASES = {
    "serving/write/seed7": (COMPOSE_POST, 2000.0, 0.15, 0.03, 7),
    "serving/write/seed8": (COMPOSE_POST, 2000.0, 0.15, 0.03, 8),
    "serving/read/seed7": (READ_USER_TIMELINE, 4000.0, 0.15, 0.03, 7),
    "serving/read/seed8": (READ_USER_TIMELINE, 4000.0, 0.15, 0.03, 8),
    # Figure 8 shape (several whole 1 s windows) at a lighter load.
    "serving/fig8-read-3s": (READ_USER_TIMELINE, 1000.0, 3.0, 0.5, 8),
}

PROBE_DISTRIBUTIONS = ("deterministic", "exponential", "lognormal")
PROBE_POLICIES = ("round-robin", "greedy-lowest-intensity", "marginal-cci")

#: Arrivals the many-blocks probe case must exceed: two probe blocks.
MANY_BLOCKS_ARRIVALS = 2 * scheduler_module._BLOCK


def _two_site_sites(n_devices):
    """The ``two-site-asymmetric`` preset at ``n_devices`` a site, 2-day traces."""
    overrides = {"seed": 1}
    for index in (0, 1):
        overrides[f"sites.{index}.devices.count"] = n_devices
        overrides[f"sites.{index}.trace.n_days"] = 2
    spec = get_scenario("two-site-asymmetric").with_overrides(overrides)
    return ScenarioRunner(spec).build_sites()


def _fresh(sites):
    return sites, None


def _mixed_cohort_sites():
    spec = ScenarioSpec(
        name="mixed-cohort",
        sites=(
            SiteSpec(
                "texas",
                trace=TraceSpec(region="ercot-like", n_days=2),
                devices=DeviceMixSpec(count=5),
            ),
            SiteSpec(
                "mixed",
                trace=TraceSpec(region="hydro-heavy", n_days=2),
                cohorts=(DeviceMixSpec(count=3), DeviceMixSpec("Nexus 4", 4)),
            ),
        ),
        seed=1,
    )
    return _fresh(ScenarioRunner(spec).build_sites())


def _worn_clean_site_sites():
    sites = _two_site_sites(5)
    # Cascadia, the preferred site, half worn.
    return sites, worn_churn(sites, (0.0, 0.5))


def _many_blocks_sites():
    return _fresh(_two_site_sites(50))


def _three_cohort_spec(**fields):
    """A uniform site beside a Pixel 3A / Nexus 4 / Nexus 5 site.

    The mixed site's rates are distinct and non-integer, so its capacity
    and target-weighted rate are sums of three unequal terms; at full
    deployment both, and the fleet's capacity, move in the last bit when
    added in another order.
    """
    return ScenarioSpec(
        name="three-cohort",
        sites=(
            SiteSpec(
                "texas",
                trace=TraceSpec(region="ercot-like", n_days=2),
                devices=DeviceMixSpec(count=3, requests_per_device_s=7.9),
            ),
            SiteSpec(
                "mixed",
                trace=TraceSpec(region="hydro-heavy", n_days=2),
                cohorts=(
                    DeviceMixSpec(count=5, requests_per_device_s=13.7),
                    DeviceMixSpec("Nexus 4", 4, requests_per_device_s=6.1),
                    DeviceMixSpec("Nexus 5", 3, requests_per_device_s=9.35),
                ),
            ),
        ),
        seed=1,
        **fields,
    )


def _three_cohort_sites():
    """The three-cohort fleet, each mixed-site cohort worn to its own level."""
    sites = ScenarioRunner(_three_cohort_spec()).build_sites()
    return sites, worn_churn(sites, (0.0, 0.6, 0.2, 0.45))


#: Extra probe cases: label -> (factory of the sites and their churn table,
#: or ``None`` for the sites as deployed; policy, wear derate, demand rps,
#: service distribution), each run for 10 s at seed 3.
PROBE_CASES = {
    "probe-case/mixed-cohort": (
        _mixed_cohort_sites, "marginal-cci", 0.0, 150.0, "exponential"
    ),
    "probe-case/wear-derate": (
        _worn_clean_site_sites, "marginal-cci", 1.0, 150.0, "lognormal"
    ),
    "probe-case/many-blocks": (
        _many_blocks_sites, "marginal-cci", 0.0, 1000.0, "lognormal"
    ),
    "probe-case/three-cohort-derate": (
        _three_cohort_sites, "marginal-cci", 0.5, 100.0, "lognormal"
    ),
    "probe-case/three-cohort-round-robin": (
        _three_cohort_sites, "round-robin", 0.0, 100.0, "deterministic"
    ),
}

#: The probe run through :meth:`ScenarioRunner.run`, after two churned days.
RUNNER_PROBE_LABEL = "probe-runner/three-cohort"


def _probe_label(distribution, policy):
    return f"probe/{distribution}/{policy}"


def _labels():
    return sorted(
        [*SERVING_CASES]
        + [
            _probe_label(distribution, policy)
            for distribution in PROBE_DISTRIBUTIONS
            for policy in PROBE_POLICIES
        ]
        + [*PROBE_CASES]
        + [RUNNER_PROBE_LABEL]
    )


@contextlib.contextmanager
def _capturing_samples(module):
    """Wrap ``module.summarize`` to keep the latencies each call summarises."""
    captured = []
    original = module.summarize

    def capturing_summarize(samples, *args, **kwargs):
        captured.append(samples)
        return original(samples, *args, **kwargs)

    module.summarize = capturing_summarize
    try:
        yield captured
    finally:
        module.summarize = original


def _update_value(digest, value):
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    else:
        digest.update(repr(value).encode())


def _update_samples(digest, samples):
    # A type with no latencies is skipped, as summarize skips it.
    for request_type in sorted(samples):
        if len(samples[request_type]):
            digest.update(request_type.encode())
            _update_value(digest, np.asarray(samples[request_type]))


def _update_summary(digest, summary: LatencySummary):
    for field in dataclasses.fields(LatencySummary):
        digest.update(field.name.encode())
        _update_value(digest, getattr(summary, field.name))


def serving_digest(label):
    request_type, qps, duration_s, warmup_s, seed = SERVING_CASES[label]
    with _capturing_samples(cluster_module) as captured:
        result = pixel_cloudlet().run(
            social_network(),
            {request_type: 1.0},
            qps=qps,
            duration_s=duration_s,
            warmup_s=warmup_s,
            seed=seed,
        )
    (samples,) = captured
    digest = hashlib.sha256()
    _update_samples(digest, samples)
    for name in ("cluster_name", "application", "offered_qps", "measurement_duration_s",
                 "completed_requests", "mean_power_w", "energy_j", "network_bytes"):
        digest.update(name.encode())
        _update_value(digest, getattr(result, name))
    for name in sorted(result.offered_requests):
        digest.update(f"offered:{name}={result.offered_requests[name]}".encode())
    for name in sorted(result.summaries):
        digest.update(name.encode())
        _update_summary(digest, result.summaries[name])
    for name in sorted(result.node_utilization):
        timeline = result.node_utilization[name]
        digest.update(timeline.node_name.encode())
        _update_value(digest, np.asarray(timeline.times_s))
        _update_value(digest, np.asarray(timeline.utilization))
    return digest.hexdigest()


def _run_probe(sites, policy, demand_rps, distribution, churn=None):
    with _capturing_samples(scheduler_module) as captured:
        summary, served_by_site = simulate_latency_aware(
            sites,
            policy,
            demand_rps=demand_rps,
            duration_s=10.0,
            seed=3,
            service_distribution=distribution,
            churn=churn,
        )
    (samples,) = captured
    return summary, served_by_site, samples


def _probe_result_digest(summary, served_by_site, samples):
    digest = hashlib.sha256()
    _update_samples(digest, samples)
    _update_summary(digest, summary)
    for name in sorted(served_by_site):
        digest.update(f"served:{name}={served_by_site[name]}".encode())
    return digest.hexdigest()


def probe_digest(distribution, policy):
    sites = _two_site_sites(5)
    return _probe_result_digest(
        *_run_probe(sites, policy_by_name(policy), 150.0, distribution)
    )


def probe_case_digest(label):
    make_sites, policy, wear_derate, demand_rps, distribution = PROBE_CASES[label]
    sites, churn = make_sites()
    summary, served_by_site, samples = _run_probe(
        sites, policy_by_name(policy, wear_derate), demand_rps, distribution, churn
    )
    if label == "probe-case/many-blocks":
        assert summary.offered > MANY_BLOCKS_ARRIVALS
    return _probe_result_digest(summary, served_by_site, samples)


def runner_probe_digest():
    spec = _three_cohort_spec(
        routing=RoutingSpec(latency_probe_s=2.0, wear_derate=0.5),
        demand=DemandSpec(service_distribution="lognormal"),
        duration_days=2,
    )
    with _capturing_samples(scheduler_module) as captured:
        result = ScenarioRunner(spec).run()
    (samples,) = captured
    digest = hashlib.sha256()
    _update_samples(digest, samples)
    _update_summary(digest, result.latency)
    return digest.hexdigest()


def _digest(label):
    if label == RUNNER_PROBE_LABEL:
        return runner_probe_digest()
    if label in SERVING_CASES:
        return serving_digest(label)
    if label in PROBE_CASES:
        return probe_case_digest(label)
    _, distribution, policy = label.split("/")
    return probe_digest(distribution, policy)


def _recorded():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(SERVING_CASES))
def test_serving_run_reproduces_its_recorded_digest(label):
    assert serving_digest(label) == _recorded()[label], label


@pytest.mark.parametrize("policy", PROBE_POLICIES)
@pytest.mark.parametrize("distribution", PROBE_DISTRIBUTIONS)
def test_latency_probe_reproduces_its_recorded_digest(distribution, policy):
    label = _probe_label(distribution, policy)
    assert probe_digest(distribution, policy) == _recorded()[label], label


@pytest.mark.parametrize("label", sorted(PROBE_CASES))
def test_probe_case_reproduces_its_recorded_digest(label):
    assert probe_case_digest(label) == _recorded()[label], label


def test_runner_probe_reproduces_its_recorded_digest():
    assert runner_probe_digest() == _recorded()[RUNNER_PROBE_LABEL]


def test_fixture_covers_every_case():
    assert sorted(_recorded()) == _labels()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_des_identity.py --record")
    digests = {label: _digest(label) for label in _labels()}
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
