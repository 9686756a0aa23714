"""Edge cases for :func:`repro.telemetry.render_profile`.

The profile renderer consumes manifests from many sources — live runs,
stored entries, shard children shipped home from worker processes — so it
must degrade gracefully when optional pieces are missing: zero-duration
spans (no division), no spans at all, no RSS figure (platforms without
``resource``), no ``fleet.n_devices`` gauge (non-fleet runs), and children
with or without their own RSS.
"""

from repro.telemetry import Telemetry, build_manifest, render_profile


def _manifest(**overrides):
    base = {
        "schema": "repro-telemetry/1",
        "kind": "manifest",
        "name": "edge-case",
        "repro_version": "0.0-test",
        "spec_sha256": None,
        "seed": 3,
        "wall_s": 0.5,
        "peak_rss_bytes": 64 * 2**20,
        "phases": [
            {"path": "scenario", "calls": 1, "total_s": 0.4, "fraction": 1.0},
            {
                "path": "scenario/main_run",
                "calls": 1,
                "total_s": 0.3,
                "fraction": 0.75,
            },
        ],
        "counters": {},
        "gauges": {"fleet.n_devices": 100},
        "children": [],
    }
    base.update(overrides)
    return base


def test_zero_duration_span_renders_without_throughput():
    manifest = _manifest(
        phases=[
            {"path": "scenario", "calls": 1, "total_s": 0.0, "fraction": 1.0},
        ]
    )
    text = render_profile(manifest)
    # No ZeroDivisionError, and the device-days/s cell degrades to a dash.
    lines = [line for line in text.splitlines() if "scenario" in line]
    assert any(line.rstrip().endswith("-") for line in lines)


def test_no_phases_renders_placeholder():
    text = render_profile(_manifest(phases=[]))
    assert "(no spans recorded)" in text
    assert "device-days/s" not in text


def test_missing_peak_rss_omits_the_line():
    text = render_profile(_manifest(peak_rss_bytes=None))
    assert "peak RSS" not in text


def test_absent_fleet_gauge_blanks_throughput_column():
    text = render_profile(_manifest(gauges={}))
    assert "device-days/s" in text  # column header still present
    for line in text.splitlines():
        if "main_run" in line:
            assert line.rstrip().endswith("-")


def test_max_shard_rss_is_surfaced_across_children():
    children = [
        _manifest(name="shard-0", peak_rss_bytes=100 * 2**20),
        _manifest(name="shard-1", peak_rss_bytes=160 * 2**20),
    ]
    text = render_profile(_manifest(children=children))
    assert "peak RSS (max shard): 160.0 MiB" in text
    assert "shard-1: 0.500 s, 2 phases, peak RSS 160.0 MiB" in text


def test_children_without_rss_skip_the_shard_line():
    children = [_manifest(name="cell-0", peak_rss_bytes=None)]
    text = render_profile(_manifest(children=children))
    assert "peak RSS (max shard)" not in text
    assert "cell-0: 0.500 s, 2 phases" in text
    assert "cell-0: 0.500 s, 2 phases, peak RSS" not in text


def test_live_manifest_includes_shard_rss(tmp_path):
    """An end-to-end manifest with a child carries both RSS figures."""
    parent = Telemetry()
    child = Telemetry()
    with child.span("shard"):
        pass
    child_manifest = build_manifest(child, name="shard-0")
    with parent.span("scenario"):
        pass
    parent.add_child(child_manifest)
    manifest = build_manifest(parent, name="sharded-run")
    if manifest["peak_rss_bytes"] is None:
        return  # platform without resource module: nothing to assert
    assert child_manifest["peak_rss_bytes"] is not None
    text = render_profile(manifest)
    assert "peak RSS:" in text
    assert "peak RSS (max shard):" in text


def test_throughput_only_on_fleet_day_phases():
    """Stage spans (probe, economics, ...) count calls, not simulated days."""
    from repro.scenarios import ScenarioRunner, get_scenario
    from repro.telemetry.profile import FLEET_DAY_PHASES

    spec = get_scenario("carbon-buffer").with_overrides(
        {"duration_days": 2, "routing.latency_probe_s": 0.05}
    )
    tele = Telemetry()
    ScenarioRunner(spec, telemetry=tele).run()
    lines = render_profile(build_manifest(tele, name="probe-run")).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("phase")) + 2
    throughput = {}
    for line in lines[start:]:
        if not line.strip():
            break
        cells = line.split()
        throughput[cells[0]] = cells[-1]
    assert "latency_probe" in throughput and "dispatch_day" in throughput
    for phase, cell in throughput.items():
        if phase in FLEET_DAY_PHASES:
            assert float(cell.replace(",", "")) > 0, phase
        else:
            assert cell == "-", phase
