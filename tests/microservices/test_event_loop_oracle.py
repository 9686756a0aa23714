"""The serving event loop against the generator-engine oracle.

:meth:`~repro.microservices.ServingCluster.run` compiles each request type
into a flat program and runs one tuple event loop over FIFO stations.
:func:`des_oracle.oracle_run` is the body it replaced: one generator
process per request and per fan-out child on the process engine.  Both
must agree bitwise on every latency sample, the offered counts, each
node's CPU occupancy series, the network bytes, the energy and every
utilisation array, and exactly on the number of events processed, over
small random apps and clusters: fan-out widths 0-3 (an empty stage
included), call depth up to 3, zero and non-zero CPU and I/O, I/O
concurrency 1-3, zero-byte payloads, same-node and cross-node
placements, a co-located client with its own CPU, service-time noise on
and off, and a zero network latency.  Fixed cases add zero and sub-ulp
latencies, which fall due at once, under a two-type mix.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.microservices.cluster as cluster_module
from des_oracle import oracle_run
from repro.devices.catalog import PIXEL_3A
from repro.microservices import (
    Application,
    CallNode,
    Microservice,
    NodeSpec,
    Placement,
    RequestType,
    ServingCluster,
)

SERVICES = ("front", "logic", "store", "cache")

cpu_ms = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=4.0))
io_ms = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0))
payload = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=20_000.0))


@st.composite
def call_trees(draw, depth=0):
    stages = ()
    if depth < 3:
        stages = tuple(
            tuple(draw(call_trees(depth + 1)) for _ in range(width))
            for width in draw(
                st.lists(st.integers(min_value=0, max_value=3), max_size=2)
            )
        )
    return CallNode(
        service=draw(st.sampled_from(SERVICES)),
        cpu_ms=draw(cpu_ms),
        request_bytes=draw(payload),
        response_bytes=draw(payload),
        io_ms=draw(io_ms),
        stages=stages,
    )


@st.composite
def serving_cases(draw):
    services = {
        name: Microservice(name, io_concurrency=draw(st.integers(1, 3)))
        for name in SERVICES
    }
    request_types = {
        name: RequestType(
            name,
            root=draw(call_trees()),
            client_cpu_ms=draw(cpu_ms),
        )
        for name in ("alpha", "beta")[: draw(st.integers(1, 2))]
    }
    app = Application("random-app", services, request_types)
    nodes = [
        NodeSpec(
            name=f"node-{index}",
            device=PIXEL_3A,
            cores=draw(st.integers(1, 3)),
            core_speed=draw(st.floats(min_value=0.5, max_value=2.0)),
            io_factor=draw(st.floats(min_value=0.5, max_value=3.0)),
        )
        for index in range(draw(st.integers(1, 3)))
    ]
    names = [node.name for node in nodes]
    placement = Placement(
        {service: draw(st.sampled_from(names)) for service in SERVICES}
    )
    cluster = ServingCluster(
        name="random-cluster",
        nodes=nodes,
        client_colocated=draw(st.booleans()),
        network_bandwidth_bytes_per_s=draw(st.sampled_from([2e6, 65e6])),
        network_latency_s=draw(st.sampled_from([0.0, 1.5e-3])),
        loopback_latency_s=draw(st.sampled_from([0.0, 30e-6])),
        service_time_sigma=draw(st.sampled_from([0.0, 0.35])),
    )
    weight = st.floats(min_value=0.1, max_value=1.0)
    mix = {name: draw(weight) for name in request_types}
    duration_s = draw(st.sampled_from([0.05, 0.1, 0.2]))
    run = dict(
        qps=draw(st.floats(min_value=100.0, max_value=3_000.0)),
        duration_s=duration_s,
        warmup_s=draw(st.sampled_from([0.0, 0.2, 0.5])) * duration_s,
        seed=draw(st.integers(0, 2**16)),
        placement=placement,
        utilization_window_s=draw(st.sampled_from([0.02, 0.03, 1.0])),
    )
    return cluster, app, mix, run


@contextlib.contextmanager
def _capturing():
    """Keep the latencies the loop summarises and the occupancy it reports."""
    samples, occupancy = [], []

    def capturing_summarize(latencies, *args, **kwargs):
        samples.append(latencies)
        return summarize(latencies, *args, **kwargs)

    def capturing_timeline(series, *args, **kwargs):
        occupancy.append(list(series))
        return timeline(series, *args, **kwargs)

    summarize = cluster_module.summarize
    timeline = cluster_module.utilization_timeline
    cluster_module.summarize = capturing_summarize
    cluster_module.utilization_timeline = capturing_timeline
    try:
        yield samples, occupancy
    finally:
        cluster_module.summarize = summarize
        cluster_module.utilization_timeline = timeline


def _bits(values):
    return [float(value).hex() for value in values]


@settings(max_examples=120, deadline=None)
@given(serving_cases())
def test_event_loop_is_bitwise_equal_to_the_generator_oracle(case):
    cluster, app, mix, run = case
    with _capturing() as (captured, occupancy):
        got = cluster.run(app, mix, **run)
    oracle = oracle_run(cluster, app, mix, **run)
    want = oracle.result
    (samples,) = captured

    assert sorted(samples) == sorted(oracle.samples)
    for name, want_samples in oracle.samples.items():
        assert _bits(samples[name]) == _bits(want_samples), name
    assert got.offered_requests == want.offered_requests
    assert got.completed_requests == want.completed_requests
    assert occupancy == [oracle.occupancy[node.name] for node in cluster.nodes]
    scalars = ("network_bytes", "energy_j", "mean_power_w", "measurement_duration_s")
    for name in scalars:
        assert _bits([getattr(got, name)]) == _bits([getattr(want, name)]), name
    for node in cluster.nodes:
        got_timeline = got.node_utilization[node.name]
        want_timeline = want.node_utilization[node.name]
        assert _bits(got_timeline.times_s) == _bits(want_timeline.times_s)
        assert _bits(got_timeline.utilization) == _bits(want_timeline.utilization)
    assert got.summaries == want.summaries
    assert got.events == want.events
    assert got.events > 0


def test_a_fixed_fan_out_case_matches_the_oracle():
    """An empty stage, a three-wide fan-out over an I/O pool, a loopback."""
    leaf = CallNode("store", cpu_ms=0.5, io_ms=1.0, request_bytes=0.0)
    root = CallNode(
        "front",
        cpu_ms=1.0,
        stages=((), (leaf, leaf, leaf), (CallNode("cache", cpu_ms=0.0),)),
    )
    app = Application(
        "fan-out",
        {name: Microservice(name, io_concurrency=2) for name in SERVICES},
        {"alpha": RequestType("alpha", root=root, client_cpu_ms=0.3)},
    )
    nodes = [NodeSpec(f"node-{i}", PIXEL_3A, 2, core_speed=1.0) for i in range(2)]
    cluster = ServingCluster(
        "pair", nodes, client_colocated=True, network_latency_s=0.0
    )
    placement = Placement(
        {"front": "node-0", "logic": "node-0", "store": "node-1", "cache": "node-0"}
    )
    run = dict(qps=2_000.0, duration_s=0.1, warmup_s=0.02, seed=5, placement=placement)
    got = cluster.run(app, {"alpha": 1.0}, **run)
    want = oracle_run(cluster, app, {"alpha": 1.0}, **run).result
    assert got.summaries == want.summaries
    assert got.events == want.events
    assert got.network_bytes == want.network_bytes > 0
    assert np.array_equal(
        got.node_utilization["node-1"].utilization,
        want.node_utilization["node-1"].utilization,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "network_latency_s, loopback_latency_s",
    [(0.0, 0.0), (1e-20, 1e-20), (1e-300, 1e-300), (1.5e-3, 1e-20), (1.5e-3, 0.0)],
)
def test_holds_due_at_once_keep_their_scheduling_order(
    network_latency_s, loopback_latency_s, seed
):
    """Zero and sub-ulp latencies against the oracle, over a two-type mix.

    Past time zero, ``now + 1e-20`` and ``now + 1e-300`` equal ``now``, so
    such a latency is due at once, like a zero one.  In ``beta``'s fan-out a
    relay reaches the medium only after a loopback hold, while its sibling
    takes the medium at once; the medium's order then shows whether the
    hold queued behind the sibling.  With a real network latency, a
    forking child and its sibling land at one instant; the sibling must
    draw its CPU noise before the fork's children do.
    """
    leaf = CallNode("store", cpu_ms=0.5, io_ms=1.0, request_bytes=0.0)
    fan_out = CallNode(
        "front",
        cpu_ms=1.0,
        stages=((), (leaf, leaf, leaf), (CallNode("cache", cpu_ms=0.0),)),
    )
    remote = CallNode("store", cpu_ms=0.3, request_bytes=500.0)
    lookup = CallNode("cache", cpu_ms=0.8, request_bytes=500.0)
    relay = CallNode("logic", cpu_ms=0.0, stages=((lookup,),))
    forker = CallNode("cache", cpu_ms=0.0, request_bytes=0.0, stages=((leaf, leaf),))
    race = CallNode("front", cpu_ms=0.4, stages=((relay, remote, forker, leaf),))
    app = Application(
        "due-at-once",
        {name: Microservice(name, io_concurrency=2) for name in SERVICES},
        {
            "alpha": RequestType("alpha", root=fan_out),
            "beta": RequestType("beta", root=race),
        },
    )
    nodes = [NodeSpec(f"node-{i}", PIXEL_3A, 2, core_speed=1.0) for i in range(2)]
    cluster = ServingCluster(
        "pair",
        nodes,
        network_bandwidth_bytes_per_s=20e6,
        network_latency_s=network_latency_s,
        loopback_latency_s=loopback_latency_s,
        service_time_sigma=0.35,
    )
    placement = Placement(
        {"front": "node-0", "logic": "node-0", "store": "node-1", "cache": "node-1"}
    )
    mix = {"alpha": 0.4, "beta": 0.6}
    run = dict(
        qps=1_000.0, duration_s=0.08, warmup_s=0.02, seed=seed, placement=placement
    )
    with _capturing() as (captured, occupancy):
        got = cluster.run(app, mix, **run)
    oracle = oracle_run(cluster, app, mix, **run)
    want = oracle.result
    (samples,) = captured

    assert set(samples) == set(oracle.samples) == set(mix)
    for name, want_samples in oracle.samples.items():
        assert want_samples, name
        assert _bits(samples[name]) == _bits(want_samples), name
    assert got.offered_requests == want.offered_requests
    assert occupancy == [oracle.occupancy[node.name] for node in cluster.nodes]
    scalars = ("network_bytes", "energy_j", "mean_power_w")
    for name in scalars:
        assert _bits([getattr(got, name)]) == _bits([getattr(want, name)]), name
    for node in cluster.nodes:
        assert _bits(got.node_utilization[node.name].utilization) == _bits(
            want.node_utilization[node.name].utilization
        )
    assert got.summaries == want.summaries
    assert got.events == want.events > 0
