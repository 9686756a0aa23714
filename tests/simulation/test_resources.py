"""The oracle engine's CPU and network resources."""

import pytest

from des_oracle import CpuResource, NetworkMedium, Resource, Simulator, Timeout


def test_resource_fifo_admission_and_release():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(name, hold):
        yield resource.acquire()
        order.append((name, sim.now))
        yield Timeout(hold)
        resource.release()

    sim.spawn(worker("a", 1.0))
    sim.spawn(worker("b", 1.0))
    sim.run()
    assert order == [("a", 0.0), ("b", 1.0)]
    assert resource.total_acquisitions == 2
    assert resource.queue_length == 0


def test_release_without_acquire_raises():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_busy_time_and_utilization():
    sim = Simulator()
    cpu = CpuResource(sim, cores=2, speed=1.0)

    def worker():
        yield from cpu.execute(1_000.0)  # one second of work

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert cpu.busy_time(0.0, 1.0) == pytest.approx(2.0)
    assert cpu.utilization(0.0, 1.0) == pytest.approx(1.0)


def test_utilization_timeline_windows():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1, speed=1.0)

    def worker():
        yield from cpu.execute(500.0)

    sim.spawn(worker())
    sim.run_until(2.0)
    times, values = cpu.utilization_timeline(1.0, end=2.0)
    assert len(times) == 2
    assert values[0] == pytest.approx(0.5)
    assert values[1] == pytest.approx(0.0)


@pytest.mark.parametrize("hold_s", [0.15, 0.5])
def test_short_run_window_is_clipped_to_the_run_end(hold_s):
    """A 0.15 s run, busy throughout, is one 0.15 s window at 100%.

    Covers a job that ends exactly at the run end and one still running.
    """
    sim = Simulator()
    cpu = CpuResource(sim, cores=1, speed=1.0)

    def worker():
        yield from cpu.execute(hold_s * 1_000.0)

    sim.spawn(worker())
    sim.run_until(0.15)
    times, values = cpu.utilization_timeline(1.0, end=0.15)
    assert times.tolist() == [0.075]
    assert values.tolist() == [1.0]
    assert cpu.utilization(0.0, 0.15) == 1.0


@pytest.mark.parametrize(
    "end, window, windows", [(0.2, 0.1, 2), (2.2, 0.2, 11), (2.7, 0.3, 9)]
)
def test_aligned_end_gets_no_window_past_it(end, window, windows):
    """Aligned ends get whole windows only: no extra window past ``end``, and
    no sliver when the grid lands one rounding step short of it (9 x 0.3)."""
    sim = Simulator()
    cpu = CpuResource(sim, cores=1, speed=1.0)

    def worker():
        yield from cpu.execute(end * 1_000.0)

    sim.spawn(worker())
    sim.run_until(end)
    times, values = cpu.utilization_timeline(window, end=end)
    assert len(times) == windows
    assert times[-1] < end
    assert values.tolist() == pytest.approx([1.0] * windows)


def test_timeline_of_an_empty_interval_is_empty():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1, speed=1.0)
    for start, end in ((0.0, 0.0), (1.0, 0.5)):
        times, values = cpu.utilization_timeline(1.0, end=end, start=start)
        assert len(times) == len(values) == 0


def test_cpu_speed_scales_service_time():
    sim = Simulator()
    slow = CpuResource(sim, cores=1, speed=0.5)
    assert slow.service_time_s(10.0) == pytest.approx(0.02)
    fast = CpuResource(sim, cores=1, speed=2.0)
    assert fast.service_time_s(10.0) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        CpuResource(sim, cores=1, speed=0.0)
    with pytest.raises(ValueError):
        slow.service_time_s(-1.0)


def test_cpu_execute_zero_work_is_noop():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1, speed=1.0)

    def worker():
        yield from cpu.execute(0.0)
        yield Timeout(0.1)

    sim.spawn(worker())
    sim.run()
    assert cpu.total_acquisitions == 0


def test_network_transfer_time_and_latency():
    sim = Simulator()
    net = NetworkMedium(sim, bandwidth_bytes_per_s=1_000.0, latency_s=0.5)
    done = []

    def sender():
        yield from net.transfer(500.0)
        done.append(sim.now)

    sim.spawn(sender())
    sim.run()
    assert done[0] == pytest.approx(1.0)  # 0.5 s serialisation + 0.5 s latency
    assert net.bytes_transferred == pytest.approx(500.0)


def test_network_transfers_serialise_through_medium():
    sim = Simulator()
    net = NetworkMedium(sim, bandwidth_bytes_per_s=1_000.0, latency_s=0.0)
    completions = []

    def sender(name):
        yield from net.transfer(1_000.0)
        completions.append((name, sim.now))

    sim.spawn(sender("a"))
    sim.spawn(sender("b"))
    sim.run()
    assert completions[0][1] == pytest.approx(1.0)
    assert completions[1][1] == pytest.approx(2.0)


def test_zero_byte_transfer_only_pays_latency():
    sim = Simulator()
    net = NetworkMedium(sim, bandwidth_bytes_per_s=1_000.0, latency_s=0.25)
    done = []

    def sender():
        yield from net.transfer(0.0)
        done.append(sim.now)

    sim.spawn(sender())
    sim.run()
    assert done[0] == pytest.approx(0.25)
    assert net.bytes_transferred == 0.0


def test_network_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        NetworkMedium(sim, bandwidth_bytes_per_s=0.0)
    with pytest.raises(ValueError):
        NetworkMedium(sim, bandwidth_bytes_per_s=10.0, latency_s=-1.0)
    net = NetworkMedium(sim, bandwidth_bytes_per_s=10.0)
    with pytest.raises(ValueError):
        net.transmission_time_s(-1.0)
