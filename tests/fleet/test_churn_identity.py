"""Bitwise lock of cohort churn trajectories against recorded digests.

The report digests in ``test_execution_identity.py`` never reach battery
wear-out (stock cycle life is ~2,500 cycles), so they leave the swap and
retire paths of the churn engine unpinned.  ``data/churn_digests.json``
holds one SHA-256 per case over a 120-step run of the cohort as a one-row
:class:`~repro.fleet.population.ChurnTable`: every field of the step's
:class:`churn_oracle.Step` record (ints as ``int``, floats as ``float.hex``),
the per-step active count, ``mean_age_days()`` and ``mean_battery_wear()``
as ``float.hex``, and the final RNG state.  The grid crosses both
samplers with fast-wearing and battery-less devices, swap budgets of 2
and 0 and no-swap retirement, Poisson, deterministic and no intake,
half-day steps and sizes 1 to 3000.

Re-record (only for a change that is *meant* to move results) with::

    PYTHONPATH=src:tests python tests/fleet/test_churn_identity.py --record
"""

import dataclasses
import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from churn_oracle import table_step
from repro.devices.catalog import NEXUS_4, PIXEL_3A
from repro.fleet.population import (
    ChurnTable,
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
)

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "churn_digests.json"
)

SAMPLERS = ("device", "bucket")

DEVICES = {
    "pixel3a": PIXEL_3A,
    "pixel3a-cl3": dataclasses.replace(
        PIXEL_3A, battery=dataclasses.replace(PIXEL_3A.battery, cycle_life=3.0)
    ),
    "nexus4-cl7.5": dataclasses.replace(
        NEXUS_4, battery=dataclasses.replace(NEXUS_4.battery, cycle_life=7.5)
    ),
    "pixel3a-nobattery": dataclasses.replace(PIXEL_3A, battery=None),
}

#: Label -> (swap_batteries, max_battery_swaps).
POLICIES = {"swap2": (True, 2), "swap0": (True, 0), "noswap": (False, 3)}

INTAKES = ("poisson", "deterministic", "none")

STEPS = (1.0, 0.5)

SIZES = (1, 40, 3000)

N_STEPS = 120

HAZARD = FailureModel(annual_rate=2.0, age_acceleration_per_year=5.0)


def _utilizations():
    """Seeded per-step utilisation; every fifth step uses the load profile."""
    rng = np.random.default_rng(2024)
    values = rng.uniform(0.0, 1.0, size=N_STEPS)
    return [None if i % 5 == 0 else float(v) for i, v in enumerate(values)]


UTILIZATIONS = _utilizations()


def _intake(kind, size):
    if kind == "none":
        return IntakeStream(arrivals_per_day=0.0, initial_spares=0)
    return IntakeStream(
        arrivals_per_day=0.013 * size + 0.3,
        initial_spares=size // 5 + 1,
        poisson=kind == "poisson",
    )


def _cases():
    """Case label -> keyword arguments of :func:`_run_case`."""
    cases = {}
    grid = itertools.product(SAMPLERS, DEVICES, POLICIES, INTAKES, STEPS, SIZES)
    for sampler, device, policy, intake, dt, size in grid:
        label = f"{sampler}/{device}/{policy}/{intake}/dt={dt}/n={size}"
        cases[label] = dict(
            sampler=sampler, device=device, policy=policy,
            intake=intake, dt=dt, size=size,
        )
    return cases


def _build(sampler, device, policy, intake, size):
    swap, max_swaps = POLICIES[policy]
    return DeviceCohort(
        DEVICES[device],
        ReplacementPolicy(
            target_size=size, swap_batteries=swap, max_battery_swaps=max_swaps
        ),
        intake=_intake(intake, size),
        failure_model=HAZARD,
        seed=size + 17,
        sampler=sampler,
    )


def _run_case(sampler, device, policy, intake, dt, size):
    table = ChurnTable([_build(sampler, device, policy, intake, size)])
    digest = hashlib.sha256()
    day = 0.0
    for utilization in UTILIZATIONS:
        day += dt
        step = table_step(table.step(dt, [utilization]), 0, day)
        for field in dataclasses.fields(step):
            value = getattr(step, field.name)
            text = value.hex() if isinstance(value, float) else repr(value)
            digest.update(f"{field.name}={text};".encode())
        digest.update(
            f"{int(table.active[0])}|{float(table.mean_age_days()[0]).hex()}"
            f"|{float(table.mean_battery_wear()[0]).hex()};".encode()
        )
    state = table._rngs[0].bit_generator.state
    digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


def _recorded():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestChurnTrajectoryIdentity:
    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_every_case_reproduces_its_recorded_digest(self, sampler, device):
        recorded = _recorded()
        mismatched = [
            label
            for label, case in _cases().items()
            if case["sampler"] == sampler
            and case["device"] == device
            and _run_case(**case) != recorded[label]
        ]
        assert mismatched == []

    def test_fixture_covers_every_case(self):
        assert sorted(_recorded()) == sorted(_cases())

    def test_grid_reaches_every_lifecycle_path(self):
        """The locked grid really fires failures, swaps, retirements and extinction."""

        def run(*case):
            table = ChurnTable([_build(*case)])
            day = 0.0
            steps = []
            for utilization in UTILIZATIONS:
                day += 1.0
                steps.append(table_step(table.step(1.0, [utilization]), 0, day))
            return steps

        churned = run("device", "pixel3a-cl3", "swap2", "poisson", 40)
        assert sum(step.failures for step in churned) > 0
        assert sum(step.battery_swaps for step in churned) > 0
        assert sum(step.retirements for step in churned) > 0
        extinct = run("bucket", "nexus4-cl7.5", "noswap", "none", 3000)
        assert sum(step.retirements for step in extinct) > 0
        assert extinct[-1].active == 0


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_churn_identity.py --record")
    digests = {label: _run_case(**case) for label, case in sorted(_cases().items())}
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
