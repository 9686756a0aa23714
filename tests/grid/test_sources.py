"""Energy sources and blended intensity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.grid import sources


def _per_sample_blend(generation_mw_by_source):
    """The scalar blend, one sample at a time: the array blend's oracle."""
    total = 0.0
    weighted = 0.0
    for name, generation in generation_mw_by_source.items():
        if generation < 0:
            raise ValueError(f"generation for {name!r} is negative: {generation}")
        source = sources.source_by_name(name)
        total += generation
        weighted += generation * source.carbon_intensity_g_per_kwh
    if total == 0:
        raise ValueError("total generation is zero; cannot compute blended intensity")
    return weighted / total


@st.composite
def _supply_stacks(draw):
    """A random supply stack: sources in random order, zeros in some of them,
    and one source positive in every sample so no total is zero."""
    names = draw(
        st.lists(
            st.sampled_from([source.name for source in sources.all_sources()]),
            min_size=1,
            max_size=len(sources.all_sources()),
            unique=True,
        )
    )
    n_samples = draw(st.integers(min_value=1, max_value=40))
    positive = draw(st.sampled_from(names))
    stack = {}
    for name in names:
        values = (
            st.floats(min_value=1e-6, max_value=1e5)
            if name == positive
            else st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5))
        )
        stack[name] = draw(arrays(np.float64, n_samples, elements=values))
    return stack


def test_paper_quoted_intensities():
    assert sources.SOLAR.carbon_intensity_g_per_kwh == pytest.approx(48.0)
    assert sources.GAS.carbon_intensity_g_per_kwh == pytest.approx(602.0)
    assert sources.CALIFORNIA_MEAN_INTENSITY_G_PER_KWH == pytest.approx(257.0)
    assert sources.ZERO_CARBON.carbon_intensity_g_per_kwh == 0.0


@pytest.mark.parametrize("intensity", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_source_intensity_must_be_finite_and_non_negative(intensity):
    with pytest.raises(ValueError, match="x: carbon intensity must be finite and non-negative"):
        sources.EnergySource("x", intensity)


def test_source_lookup():
    assert sources.source_by_name("solar") is sources.SOLAR
    with pytest.raises(KeyError):
        sources.source_by_name("fusion")


def test_all_sources_nonempty_and_unique():
    names = [s.name for s in sources.all_sources()]
    assert len(names) == len(set(names))
    assert len(names) >= 8


def test_carbon_for_energy():
    assert sources.GAS.carbon_for_energy_kwh(2.0) == pytest.approx(1_204.0)
    with pytest.raises(ValueError):
        sources.GAS.carbon_for_energy_kwh(-1.0)


def test_intensity_per_joule_consistent():
    per_joule = sources.SOLAR.carbon_intensity_g_per_joule
    assert per_joule * 3.6e6 == pytest.approx(48.0)


class TestBlendedIntensity:
    def test_single_source(self):
        assert sources.blended_intensity({"solar": 10.0}) == pytest.approx(48.0)

    def test_equal_blend_is_mean(self):
        blend = sources.blended_intensity({"solar": 1.0, "natural gas": 1.0})
        assert blend == pytest.approx((48.0 + 602.0) / 2)

    def test_weighted_blend_between_extremes(self):
        blend = sources.blended_intensity({"solar": 3.0, "natural gas": 1.0})
        assert 48.0 < blend < 602.0
        assert blend == pytest.approx((3 * 48 + 602) / 4)

    @pytest.mark.parametrize(
        "stack, index",
        [
            ({"solar": 0.0}, 0),
            ({"solar": np.array([1.0, 0.0, 0.0]), "wind": np.array([0.0, 0.0, 2.0])}, 1),
        ],
        ids=["scalar", "array"],
    )
    def test_zero_total_rejected(self, stack, index):
        with pytest.raises(ValueError, match=f"total generation is zero at index {index}"):
            sources.blended_intensity(stack)

    @pytest.mark.parametrize(
        "stack, index",
        [
            ({"natural gas": 2.0, "solar": -1.0}, 0),
            (
                {"natural gas": np.array([2.0, 2.0, 2.0]), "solar": np.array([1.0, 0.0, -1.0])},
                2,
            ),
        ],
        ids=["scalar", "array"],
    )
    def test_negative_generation_rejected(self, stack, index):
        with pytest.raises(ValueError, match=f"'solar' is negative at index {index}"):
            sources.blended_intensity(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_generation_rejected(self, bad):
        with pytest.raises(ValueError, match="'solar' is not finite at index 0"):
            sources.blended_intensity({"solar": bad, "wind": 1.0})
        stack = {"natural gas": np.full(3, 2.0), "solar": np.array([1.0, 0.0, bad])}
        with pytest.raises(ValueError, match="'solar' is not finite at index 2"):
            sources.blended_intensity(stack)

    def test_scalar_call_returns_a_float(self):
        assert type(sources.blended_intensity({"solar": 1.0, "wind": 2.0})) is float

    @settings(max_examples=100, deadline=None)
    @given(_supply_stacks())
    def test_array_blend_is_bitwise_the_per_sample_blend(self, stack):
        blend = sources.blended_intensity(stack)
        n_samples = len(next(iter(stack.values())))
        expected = [
            _per_sample_blend({name: values[i] for name, values in stack.items()})
            for i in range(n_samples)
        ]
        assert [float(value).hex() for value in blend] == [
            float(value).hex() for value in expected
        ]


def _stack(shape, bad=(), levels=(1.0, 2.0, 3.0)):
    """A three-source stack of ``shape`` with the ``bad`` samples set.

    ``bad`` holds ``(source, flat index, value)`` triples; the sources are
    in mapping order wind, solar, natural gas.  Shape ``()`` gives Python
    floats.
    """
    stack = {
        name: np.full(shape, level)
        for name, level in zip(("wind", "solar", "natural gas"), levels)
    }
    for name, index, value in bad:
        stack[name].flat[index] = value
    if shape == ():
        stack = {name: float(values) for name, values in stack.items()}
    return stack


_SHAPES = pytest.mark.parametrize(
    "shape", [(), (288,), (3, 288)], ids=["scalar", "day", "days"]
)


class TestBlendedIntensityErrors:
    """The exact error text of every rejected stack, for every input shape."""

    @staticmethod
    def _message(stack):
        with pytest.raises(ValueError) as info:
            sources.blended_intensity(stack)
        return str(info.value)

    @_SHAPES
    @pytest.mark.parametrize(
        "value, text",
        [(np.nan, "not finite"), (np.inf, "not finite"),
         (-np.inf, "not finite"), (-0.5, "negative")],
        ids=["nan", "inf", "-inf", "negative"],
    )
    def test_names_the_first_bad_sample(self, shape, value, text):
        first, last = (0, 0) if shape == () else (7, int(np.prod(shape)) - 1)
        stack = _stack(shape, [("solar", first, value), ("solar", last, value)])
        assert self._message(stack) == (
            f"generation for 'solar' is {text} at index {first}: {value}"
        )

    @_SHAPES
    def test_names_the_first_bad_source_in_mapping_order(self, shape):
        late, early = (0, 0) if shape == () else (int(np.prod(shape)) - 1, 2)
        stack = _stack(
            shape,
            [("wind", late, -1.0), ("solar", early, np.nan),
             ("natural gas", early, np.inf)],
        )
        assert self._message(stack) == (
            f"generation for 'wind' is negative at index {late}: -1.0"
        )

    @pytest.mark.parametrize("shape", [(288,), (3, 288)], ids=["day", "days"])
    def test_non_finite_outranks_an_earlier_negative_of_one_source(self, shape):
        stack = _stack(shape, [("solar", 4, -1.0), ("solar", 9, np.inf)])
        assert self._message(stack) == (
            "generation for 'solar' is not finite at index 9: inf"
        )

    @_SHAPES
    def test_zero_total(self, shape):
        index, last = (0, 0) if shape == () else (5, int(np.prod(shape)) - 1)
        zeros = [(name, i, 0.0) for name in ("wind", "solar") for i in (index, last)]
        stack = _stack(shape, zeros, levels=(1.0, 2.0, 0.0))
        assert self._message(stack) == (
            f"total generation is zero at index {index}; "
            "cannot compute blended intensity"
        )

    def test_an_empty_stack_blends_to_an_empty_array(self):
        blend = sources.blended_intensity(_stack((0,)))
        assert isinstance(blend, np.ndarray) and blend.shape == (0,)
