#!/usr/bin/env python3
"""Profiling a scenario with the telemetry subsystem.

``repro.telemetry`` instruments the simulation layers without perturbing
them: nested wall-clock spans time every phase (site build, the per-day
fleet loop, the hindsight replay, the DES latency probe, economics), counters
record what the run did (setpoints clipped by ledger physics, waterfill
segments touched), and a run manifest ties it all to the spec hash and seed
so a recorded profile is attributable to an exact, reproducible run.

1. run the ``carbon-buffer`` preset instrumented and print the per-phase
   breakdown — the same table ``python -m repro profile scenario
   carbon-buffer`` prints;
2. show that instrumentation observed but did not perturb: the instrumented
   run's headline numbers equal an uninstrumented run's bit for bit;
3. persist the run as a telemetry JSONL file (manifest line + one record
   per span) and read it back through the validating reader.

Run with ``python examples/telemetry_profile.py``.
"""

import os
import tempfile

from repro.scenarios import ScenarioRunner, get_scenario, spec_hash
from repro.telemetry import Telemetry, build_manifest, dump_run, read_jsonl, render_profile


def profiled_run():
    """Run the carbon-buffer preset instrumented; print the profile."""
    spec = get_scenario("carbon-buffer").with_overrides(
        {"duration_days": 7, "sites.0.devices.count": 60,
         "sites.1.devices.count": 60}
    )
    telemetry = Telemetry()
    result = ScenarioRunner(spec, telemetry=telemetry).run()
    manifest = build_manifest(
        telemetry, name=spec.name, spec_sha256=spec_hash(spec), seed=spec.seed
    )
    print(render_profile(manifest))
    print()
    return spec, telemetry, result


def observation_is_free(spec, instrumented_result) -> None:
    """Telemetry never touches RNG or numeric state: results are identical."""
    plain = ScenarioRunner(spec).run()
    assert plain.cci_g_per_request == instrumented_result.cci_g_per_request
    assert plain.usd_per_request == instrumented_result.usd_per_request
    print(
        "instrumented CCI equals uninstrumented CCI bit for bit: "
        f"{plain.cci_g_per_request:.6e} g/request"
    )
    print()


def persist_and_read_back(spec, telemetry) -> None:
    """Round-trip the run through the JSONL sink."""
    path = os.path.join(tempfile.gettempdir(), "carbon-buffer-telemetry.jsonl")
    dump_run(path, telemetry, name=spec.name,
             spec_sha256=spec_hash(spec), seed=spec.seed)
    manifest, spans = read_jsonl(path)
    print(f"wrote {path}")
    print(
        f"  manifest: run {manifest['name']!r}, repro {manifest['repro_version']}, "
        f"spec {manifest['spec_sha256'][:12]}..., seed {manifest['seed']}"
    )
    print(f"  {len(spans)} spans; deepest: "
          + max((s.path for s in spans), key=lambda p: p.count("/")))


def main() -> None:
    spec, telemetry, result = profiled_run()
    observation_is_free(spec, result)
    persist_and_read_back(spec, telemetry)


if __name__ == "__main__":
    main()
