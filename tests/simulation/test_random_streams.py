"""Named RNG streams, and the oracle's scalar draws over them."""

import numpy as np
import pytest

from des_oracle import choice, exponential, lognormal_factor
from repro.simulation.random_streams import RandomStreams


def test_same_seed_same_sequence():
    a = RandomStreams(seed=5)
    b = RandomStreams(seed=5)
    assert _bits(a.stream("arrivals").exponential(1.0, size=5)) == _bits(
        b.stream("arrivals").exponential(1.0, size=5)
    )


def test_different_streams_are_independent():
    streams = RandomStreams(seed=5)
    first = streams.stream("arrivals").exponential(1.0, size=5)
    # Drawing from another stream must not perturb the first one.
    streams.stream("service").exponential(1.0)
    reference = RandomStreams(seed=5)
    assert _bits(first) == _bits(reference.stream("arrivals").exponential(1.0, size=5))
    assert streams.stream("arrivals").exponential(1.0) == reference.stream(
        "arrivals"
    ).exponential(1.0)


def test_different_seeds_differ():
    assert RandomStreams(1).stream("x").exponential(1.0) != RandomStreams(
        2
    ).stream("x").exponential(1.0)


def test_exponential_mean_is_close():
    streams = RandomStreams(seed=0)
    samples = [exponential(streams, "arrivals", 2.0) for _ in range(4_000)]
    assert np.mean(samples) == pytest.approx(2.0, rel=0.1)
    with pytest.raises(ValueError):
        exponential(streams, "arrivals", 0.0)


def test_lognormal_factor_median_near_one():
    streams = RandomStreams(seed=0)
    samples = [lognormal_factor(streams, "svc", 0.35) for _ in range(4_000)]
    assert np.median(samples) == pytest.approx(1.0, rel=0.1)
    assert lognormal_factor(streams, "svc", 0.0) == 1.0
    with pytest.raises(ValueError):
        lognormal_factor(streams, "svc", -0.1)


def test_choice_respects_probabilities():
    streams = RandomStreams(seed=0)
    picks = [choice(streams, "mix", ["a", "b"], [0.9, 0.1]) for _ in range(2_000)]
    assert picks.count("a") > picks.count("b") * 4


def _bits(values):
    return [float(value).hex() for value in values]
