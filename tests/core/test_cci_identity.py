"""Bitwise lock of the lifetime carbon models against recorded digests.

``data/cci_digests.json`` holds a SHA-256 over the little-endian float64
bytes of:

* every Figure 2 sweep (one per benchmark);
* every Figure 5 panel (each benchmark in both power regimes);
* the Figure 6 energy-mix sweep;
* :func:`~repro.cluster.datacenter.table4_projections`;
* each :func:`~repro.cluster.cloudlet.paper_cloudlets` design's carbon
  components and work at 1, 12, 36 and 60 months, for every Table 1
  benchmark in both regimes;
* the Equation 7 ablation rows of :func:`~repro.core.cci.second_life_cci`;
* both Table 4 datacenters' unit count, PUE and 36-month components.

Any change to the carbon, work or CCI arithmetic that moves a single bit of
one of these numbers fails here.

Re-record (only for a change that is *meant* to move results) with::

    PYTHONPATH=src python tests/core/test_cci_identity.py --record
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.figures import (
    FIGURE2_BENCHMARKS,
    fig2_single_device_cci,
    fig5_cluster_cci,
    fig6_energy_mix,
)
from repro.cluster.cloudlet import paper_cloudlets
from repro.cluster.datacenter import (
    poweredge_datacenter,
    smartphone_datacenter,
    table4_projections,
)
from repro.core.cci import DeviceCarbonModel, second_life_cci
from repro.devices.benchmarks import SGEMM, TABLE1_BENCHMARKS
from repro.devices.catalog import PIXEL_3A

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "cci_digests.json"
)

REGIMES = ("california", "solar")
LIFETIMES_MONTHS = (1.0, 12.0, 36.0, 60.0)


def values_digest(values) -> str:
    digest = hashlib.sha256()
    for array in values:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def _sweep_values(sweep):
    return [sweep.months] + [sweep.series[label] for label in sweep.labels()]


def _design_values(benchmark, regime, label):
    design = paper_cloudlets(benchmark, regime=regime)[label]
    values = []
    for months in LIFETIMES_MONTHS:
        components = design.carbon_components(months)
        values.append(
            [
                components.embodied_g,
                components.operational_g,
                components.networking_g,
                design.total_work(benchmark, months),
            ]
        )
    return values


def _second_life_rows():
    reused = DeviceCarbonModel(PIXEL_3A, reused=True)
    rows = [
        second_life_cci(reused, reused, SGEMM, first_life_months, 36.0)
        for first_life_months in (12.0, 24.0, 36.0)
    ]
    return [rows + [reused.cci(SGEMM, 36.0)]]


def _datacenter_values(build):
    design = build()
    components = design.carbon_components(36.0)
    return [
        [
            float(design.n_units),
            design.pue(),
            components.embodied_g,
            components.operational_g,
            components.networking_g,
        ]
    ]


def _table4_values():
    projections = table4_projections()
    return [
        [projections[design][key] for key in sorted(projections[design])]
        for design in sorted(projections)
    ]


def _cases():
    """Case label -> zero-argument builder of the float arrays to digest."""
    cases = {}
    for benchmark in FIGURE2_BENCHMARKS:
        cases[f"fig2/{benchmark.name}"] = lambda b=benchmark: _sweep_values(
            fig2_single_device_cci(benchmarks=(b,))[b.name]
        )
        for regime in REGIMES:
            cases[f"fig5/{regime}/{benchmark.name}"] = (
                lambda b=benchmark, r=regime: _sweep_values(
                    fig5_cluster_cci(benchmarks=(b,), regimes=(r,))[(b.name, r)]
                )
            )
    cases["fig6"] = lambda: _sweep_values(fig6_energy_mix())
    cases["table4"] = _table4_values
    for benchmark in TABLE1_BENCHMARKS:
        for regime in REGIMES:
            for label in paper_cloudlets(benchmark, regime=regime):
                cases[f"cloudlet/{regime}/{benchmark.name}/{label}"] = (
                    lambda b=benchmark, r=regime, l=label: _design_values(b, r, l)
                )
    cases["second_life_cci/ablation"] = _second_life_rows
    cases["datacenter/poweredge"] = lambda: _datacenter_values(poweredge_datacenter)
    cases["datacenter/smartphone"] = lambda: _datacenter_values(smartphone_datacenter)
    return cases


def _recorded():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(_cases()))
def test_every_case_reproduces_its_recorded_digest(label):
    assert values_digest(_cases()[label]()) == _recorded()[label], label


def test_fixture_covers_every_case():
    assert sorted(_recorded()) == sorted(_cases())


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cci_identity.py --record")
    digests = {label: values_digest(build()) for label, build in sorted(_cases().items())}
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
