"""Bitwise lock of grid-trace synthesis against recorded digests.

``data/trace_digests.json`` holds a SHA-256 over the bytes of
``times_s`` and ``intensity_g_per_kwh`` for:

* every regional preset at seeds 2021, 2022, 2084 and 7, for 1, 7 and 30
  days (through :func:`~repro.fleet.sites.regional_trace`, the runner's
  entry point);
* a run that starts at day 5;
* each :meth:`~repro.grid.traces.GridTrace.days` slice of a 3-day trace;
* a :meth:`~repro.grid.traces.GridTrace.constant` trace;
* the bundled CAISO sample CSV.

Any change to the generator, the blend or the trace container that moves a
single bit of a trace fails here.

Re-record (only for a change that is *meant* to move results) with::

    PYTHONPATH=src python tests/grid/test_trace_identity.py --record
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.fleet.sites import REGIONAL_GENERATORS, caiso_like_generator, regional_trace
from repro.grid.traces import CAISO_SAMPLE_CSV, GridTrace

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "trace_digests.json"
)

SEEDS = (2021, 2022, 2084, 7)
N_DAYS = (1, 7, 30)


def trace_digest(trace: GridTrace) -> str:
    digest = hashlib.sha256()
    for values in (trace.times_s, trace.intensity_g_per_kwh):
        digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def _cases():
    """Case label -> zero-argument trace builder for every recorded digest."""
    cases = {}
    for region in sorted(REGIONAL_GENERATORS):
        for seed in SEEDS:
            for n_days in N_DAYS:
                cases[f"{region}/seed{seed}/{n_days}d"] = (
                    lambda r=region, s=seed, n=n_days: regional_trace(r, n_days=n, seed=s)
                )
    cases["caiso-like/seed2021/start5/3d"] = lambda: caiso_like_generator(
        seed=2021
    ).generate_days(3, start_day=5)
    for index in range(3):
        cases[f"caiso-like/seed2022/3d/day{index}"] = (
            lambda i=index: regional_trace("caiso-like", n_days=3, seed=2022).days()[i]
        )
    cases["constant/257"] = lambda: GridTrace.constant(257.0)
    cases["csv/caiso_sample"] = lambda: GridTrace.from_csv(CAISO_SAMPLE_CSV)
    return cases


def _recorded():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(_cases()))
def test_every_trace_reproduces_its_recorded_digest(label):
    assert trace_digest(_cases()[label]()) == _recorded()[label], label


def test_fixture_covers_every_case():
    assert sorted(_recorded()) == sorted(_cases())


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_identity.py --record")
    digests = {label: trace_digest(build()) for label, build in sorted(_cases().items())}
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
