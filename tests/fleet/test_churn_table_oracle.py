"""The fleet-wide churn table against each cohort stepped alone.

A random table of 1-6 cohorts (mixed samplers, devices, swap budgets and
intake kinds) is stepped as one table, and every row must match
:class:`churn_oracle.OracleCohort` — the per-cohort engine over compacted
buckets — stepped alone: every field of the step record, the active and
spare counts, the live and peak bucket counts, ``mean_age_days()`` and
``mean_battery_wear()`` under ``float.hex``, and the final RNG state.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from churn_oracle import OracleCohort, Step, table_step
from repro.devices.catalog import NEXUS_4, PIXEL_3A
from repro.fleet.population import (
    ChurnTable,
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
)

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

#: The first empties small buckets within a few dozen steps; the second
#: is the stock hazard.
HAZARDS = (
    FailureModel(annual_rate=2.0, age_acceleration_per_year=5.0),
    FailureModel(annual_rate=0.06, age_acceleration_per_year=0.03),
)

FIELDS = [field.name for field in dataclasses.fields(Step)]


def _intake(kind, size):
    if kind == "none":
        return IntakeStream(arrivals_per_day=0.0, initial_spares=0)
    return IntakeStream(
        arrivals_per_day=0.05 * size + 0.3,
        initial_spares=size // 5 + 1,
        poisson=kind == "poisson",
    )


rows_strategy = st.fixed_dictionaries(
    {
        "sampler": st.sampled_from(("device", "bucket")),
        "device": st.sampled_from(sorted(DEVICES)),
        "policy": st.sampled_from(sorted(POLICIES)),
        "intake": st.sampled_from(("poisson", "deterministic", "none")),
        "hazard": st.sampled_from(range(len(HAZARDS))),
        "size": st.integers(1, 60),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def _build(cls, row):
    swap, max_swaps = POLICIES[row["policy"]]
    return cls(
        DEVICES[row["device"]],
        ReplacementPolicy(
            target_size=row["size"], swap_batteries=swap, max_battery_swaps=max_swaps
        ),
        intake=_intake(row["intake"], row["size"]),
        failure_model=HAZARDS[row["hazard"]],
        seed=row["seed"],
        sampler=row["sampler"],
    )


def _bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _assert_state_matches(table, row, oracle):
    assert int(table.active[row]) == oracle.active_count
    assert int(table.spares[row]) == oracle.spares
    assert np.count_nonzero(table.count[row, : table.width]) == oracle._m
    assert int(table.buckets_peak()[row]) == oracle.buckets_peak
    assert float(table.mean_age_days()[row]).hex() == oracle.mean_age_days().hex()
    assert (
        float(table.mean_battery_wear()[row]).hex()
        == oracle.mean_battery_wear().hex()
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(rows_strategy, min_size=1, max_size=6),
    dt=st.sampled_from((0.5, 1.0)),
    n_steps=st.integers(1, 40),
    data=st.data(),
)
def test_table_rows_match_each_cohort_stepped_alone(rows, dt, n_steps, data):
    levels = st.one_of(st.none(), st.floats(0.0, 1.0))
    table = ChurnTable([_build(DeviceCohort, row) for row in rows])
    oracles = [_build(OracleCohort, row) for row in rows]
    day = 0.0
    for _ in range(n_steps):
        utilization = data.draw(st.lists(levels, min_size=len(rows), max_size=len(rows)))
        out = table.step(dt, utilization)
        day += dt
        for index, oracle in enumerate(oracles):
            expected = oracle.step(dt, utilization=utilization[index])
            step = table_step(out, index, day)
            assert [_bits(getattr(step, f)) for f in FIELDS] == [
                _bits(getattr(expected, f)) for f in FIELDS
            ]
            _assert_state_matches(table, index, oracle)

    for rng, oracle in zip(table._rngs, oracles):
        assert rng.bit_generator.state == oracle._rng.bit_generator.state


def test_buckets_empty_and_stay_in_place():
    """A dead column keeps its place; the live ones keep their order."""
    row = {
        "sampler": "bucket", "device": "pixel3a", "policy": "swap2",
        "intake": "poisson", "hazard": 0, "size": 3, "seed": 7,
    }
    table, oracle = ChurnTable([_build(DeviceCohort, row)]), _build(OracleCohort, row)
    emptied = 0
    for _ in range(80):
        table.step(1.0, [0.5])
        oracle.step(1.0, utilization=0.5)
        counts = table.count[0, : table.width]
        emptied = max(emptied, int(np.count_nonzero(counts == 0)))
        assert np.array_equal(counts[counts > 0], oracle._count[: oracle._m])
        _assert_state_matches(table, 0, oracle)
    assert emptied > 0
