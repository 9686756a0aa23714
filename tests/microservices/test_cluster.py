"""The serving-cluster simulator (kept at low load so tests stay fast)."""

import math

import pytest

import repro.microservices.cluster as cluster_module
from repro.devices.catalog import C5_9XLARGE, PIXEL_3A
from repro.microservices import calibration as cal
from repro.microservices.apps import (
    COMPOSE_POST,
    HOTEL_MIXED_WORKLOAD,
    READ_USER_TIMELINE,
    hotel_reservation,
    social_network,
)
from repro.microservices.cluster import (
    EXTERNAL_CLIENT,
    NodeSpec,
    ServingCluster,
    ec2_instance,
    pixel_cloudlet,
)


def _node():
    return NodeSpec(name="a", device=PIXEL_3A, cores=4, core_speed=1.0)


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if a run gets as far as seeding its random streams."""

    def refuse(*args, **kwargs):
        raise AssertionError("the run started simulating")

    monkeypatch.setattr(cluster_module, "RandomStreams", refuse)


@pytest.fixture(scope="module")
def sn():
    return social_network()


@pytest.fixture(scope="module")
def hotel():
    return hotel_reservation()


@pytest.fixture(scope="module")
def phones():
    return pixel_cloudlet()


@pytest.fixture(scope="module")
def ec2():
    return ec2_instance()


@pytest.fixture(scope="module")
def phone_write_run(phones, sn):
    return phones.run(sn, {COMPOSE_POST: 1.0}, qps=300, duration_s=1.0, warmup_s=0.2, seed=1)


@pytest.fixture(scope="module")
def ec2_write_run(ec2, sn):
    return ec2.run(sn, {COMPOSE_POST: 1.0}, qps=300, duration_s=1.0, warmup_s=0.2, seed=1)


class TestClusterConstruction:
    def test_pixel_cloudlet_shape(self, phones):
        assert len(phones.nodes) == 10
        assert all(node.device is PIXEL_3A for node in phones.nodes)
        assert not phones.client_colocated
        assert phones.total_capacity_ref_cores() == pytest.approx(
            10 * 8 * cal.PIXEL_CORE_SPEED
        )

    def test_ec2_instance_shape(self, ec2):
        assert len(ec2.nodes) == 1
        assert ec2.client_colocated
        assert ec2.client_node == C5_9XLARGE.name

    def test_node_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(name="x", device=PIXEL_3A, cores=0, core_speed=1.0)
        with pytest.raises(ValueError):
            NodeSpec(name="x", device=PIXEL_3A, cores=4, core_speed=0.0)

    @pytest.mark.parametrize("core_speed", [math.nan, math.inf])
    def test_node_core_speed_must_be_finite(self, core_speed):
        with pytest.raises(ValueError, match="core speed"):
            NodeSpec(name="x", device=PIXEL_3A, cores=4, core_speed=core_speed)

    @pytest.mark.parametrize("io_factor", [0.0, -1.0, math.nan, math.inf])
    def test_node_io_factor_must_be_positive_and_finite(self, io_factor):
        with pytest.raises(ValueError, match="io factor"):
            NodeSpec(
                name="x", device=PIXEL_3A, cores=4, core_speed=1.0, io_factor=io_factor
            )

    @pytest.mark.parametrize("bandwidth", [0.0, -1e6, math.nan, math.inf])
    def test_network_bandwidth_must_be_positive_and_finite(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            ServingCluster(
                name="c", nodes=[_node()], network_bandwidth_bytes_per_s=bandwidth
            )

    @pytest.mark.parametrize("latency", [-1e-3, math.nan, math.inf])
    def test_network_latency_must_be_non_negative_and_finite(self, latency):
        with pytest.raises(ValueError, match="network latency"):
            ServingCluster(name="c", nodes=[_node()], network_latency_s=latency)

    @pytest.mark.parametrize("latency", [-1e-6, math.nan, math.inf])
    def test_loopback_latency_must_be_non_negative_and_finite(self, latency):
        with pytest.raises(ValueError, match="loopback latency"):
            ServingCluster(name="c", nodes=[_node()], loopback_latency_s=latency)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_service_time_sigma_must_be_non_negative_and_finite(self, sigma):
        with pytest.raises(ValueError, match="service time sigma"):
            ServingCluster(name="c", nodes=[_node()], service_time_sigma=sigma)

    def test_zero_latencies_and_sigma_are_accepted(self):
        ServingCluster(
            name="c",
            nodes=[_node()],
            network_latency_s=0.0,
            loopback_latency_s=0.0,
            service_time_sigma=0.0,
        )

    def test_cluster_validation(self):
        node = NodeSpec(name="a", device=PIXEL_3A, cores=4, core_speed=1.0)
        with pytest.raises(ValueError):
            ServingCluster(name="empty", nodes=[])
        with pytest.raises(ValueError):
            ServingCluster(name="dup", nodes=[node, node])
        with pytest.raises(ValueError):
            ServingCluster(
                name="bad-client", nodes=[node], client_colocated=True, client_node="zzz"
            )

    def test_default_placements(self, phones, ec2, sn):
        assert len(set(phones.default_placement(sn).nodes_used())) > 1
        assert ec2.default_placement(sn).nodes_used() == (C5_9XLARGE.name,)

    def test_cloudlet_size_validation(self):
        with pytest.raises(ValueError):
            pixel_cloudlet(0)


class TestRunResults:
    def test_all_requests_complete_at_low_load(self, phone_write_run):
        assert phone_write_run.completion_ratio > 0.95
        assert phone_write_run.completed_requests > 100

    def test_latency_summaries_present(self, phone_write_run):
        summary = phone_write_run.summaries[COMPOSE_POST]
        assert summary.median_ms > 0
        assert summary.p90_ms >= summary.median_ms
        assert summary.p99_ms >= summary.p90_ms

    def test_phone_latency_higher_than_ec2(self, phone_write_run, ec2_write_run):
        # Requests hop across the WiFi on the cloudlet but stay on-box on EC2.
        assert phone_write_run.median_ms() > ec2_write_run.median_ms()

    def test_network_bytes_only_on_multi_node_cluster(self, phone_write_run, ec2_write_run):
        assert phone_write_run.network_bytes > 0
        assert ec2_write_run.network_bytes == 0.0

    def test_utilization_reported_per_node(self, phone_write_run):
        utilization = phone_write_run.mean_node_utilization()
        assert len(utilization) == 10
        assert all(0.0 <= value <= 1.0 for value in utilization.values())
        assert max(utilization.values()) > 0.01

    def test_power_and_energy_positive(self, phone_write_run):
        assert phone_write_run.mean_power_w > 10 * PIXEL_3A.power_model.idle_power_w * 0.9
        assert phone_write_run.energy_j == pytest.approx(
            phone_write_run.mean_power_w * phone_write_run.measurement_duration_s
        )

    def test_achieved_tracks_offered_at_low_load(self, phone_write_run):
        assert phone_write_run.achieved_qps == pytest.approx(300, rel=0.2)

    def test_run_is_deterministic_for_seed(self, phones, sn):
        a = phones.run(sn, {READ_USER_TIMELINE: 1.0}, qps=100, duration_s=0.8, warmup_s=0.2, seed=9)
        b = phones.run(sn, {READ_USER_TIMELINE: 1.0}, qps=100, duration_s=0.8, warmup_s=0.2, seed=9)
        assert a.median_ms() == pytest.approx(b.median_ms())
        assert a.completed_requests == b.completed_requests

    def test_hotel_mixed_workload_runs(self, phones, hotel):
        result = phones.run(
            hotel, HOTEL_MIXED_WORKLOAD, qps=300, duration_s=1.0, warmup_s=0.2, seed=2
        )
        assert result.completion_ratio > 0.9
        # The mix is dominated by searches and recommendations.
        assert set(result.summaries) <= set(HOTEL_MIXED_WORKLOAD)
        assert "search_hotel" in result.summaries

    def test_run_parameter_validation(self, phones, sn):
        with pytest.raises(ValueError):
            phones.run(sn, {COMPOSE_POST: 1.0}, qps=0.0)
        with pytest.raises(ValueError):
            phones.run(sn, {COMPOSE_POST: 1.0}, qps=10, duration_s=1.0, warmup_s=2.0)
        with pytest.raises(ValueError):
            phones.run(sn, {}, qps=10)
        with pytest.raises(ValueError):
            phones.run(sn, {"unknown-request": 1.0}, qps=10)
        with pytest.raises(ValueError):
            phones.run(sn, {COMPOSE_POST: -1.0}, qps=10)

    @pytest.mark.parametrize("qps", [math.nan, math.inf, -5.0])
    def test_qps_must_be_positive_and_finite(self, phones, sn, no_simulation, qps):
        with pytest.raises(ValueError, match="qps"):
            phones.run(sn, {COMPOSE_POST: 1.0}, qps=qps, duration_s=0.1, warmup_s=0.0)

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0])
    def test_duration_must_be_positive_and_finite(
        self, phones, sn, no_simulation, duration_s
    ):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            phones.run(
                sn, {COMPOSE_POST: 1.0}, qps=100, duration_s=duration_s, warmup_s=0.0
            )

    def test_negative_warmup_is_rejected(self, phones, sn, no_simulation):
        with pytest.raises(ValueError, match="warm-up"):
            phones.run(sn, {COMPOSE_POST: 1.0}, qps=100, duration_s=0.1, warmup_s=-0.05)

    @pytest.mark.parametrize("warmup_s", [0.1, math.nan])
    def test_warmup_must_be_shorter_than_the_duration(
        self, phones, sn, no_simulation, warmup_s
    ):
        with pytest.raises(ValueError, match="warm-up"):
            phones.run(
                sn, {COMPOSE_POST: 1.0}, qps=100, duration_s=0.1, warmup_s=warmup_s
            )

    @pytest.mark.parametrize("window_s", [0.0, -1.0, math.nan, math.inf])
    def test_utilization_window_is_checked_before_simulating(
        self, phones, sn, no_simulation, window_s
    ):
        with pytest.raises(ValueError, match="utilization window"):
            phones.run(
                sn,
                {COMPOSE_POST: 1.0},
                qps=2_000,
                duration_s=0.5,
                warmup_s=0.0,
                utilization_window_s=window_s,
            )

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_mix_weights_must_be_non_negative_and_finite(
        self, phones, sn, no_simulation, weight
    ):
        with pytest.raises(ValueError, match="non-negative and finite"):
            phones.run(
                sn, {COMPOSE_POST: 1.0, READ_USER_TIMELINE: weight}, qps=100
            )

    def test_mix_weights_must_sum_to_a_finite_value(self, phones, sn, no_simulation):
        with pytest.raises(ValueError, match="positive finite value"):
            phones.run(
                sn, {COMPOSE_POST: 1e308, READ_USER_TIMELINE: 1e308}, qps=100
            )

    def test_zero_warmup_is_accepted(self, phones, sn):
        result = phones.run(
            sn, {COMPOSE_POST: 1.0}, qps=100, duration_s=0.1, warmup_s=0.0
        )
        assert result.measurement_duration_s == 0.1
        assert result.events > 0

    def test_external_client_constant(self):
        assert EXTERNAL_CLIENT not in {f"phone-{i}" for i in range(10)}
