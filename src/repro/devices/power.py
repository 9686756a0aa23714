"""Device power models and workload load profiles.

The paper characterises every device with a four-point power curve (Table 2):
power at 100 %, 50 %, and 10 % CPU utilisation plus idle power, and then
derives the average power under Dell's "light-medium" operating regime
(10 % of time at full load, 35 % at half load, 30 % at 10 % load, 25 % idle).

:class:`PiecewiseLinearPowerModel` reproduces exactly that representation and
interpolates linearly between the measured anchors so the thermal and serving
simulators can query power at arbitrary utilisations.  :class:`LoadProfile`
captures the time-in-mode distribution and exposes the paper's Equation (4)
average-power computation and the Equation (6) average-throughput scaling.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple


class PowerModel(abc.ABC):
    """Abstract power model: power draw (W) as a function of CPU utilisation."""

    @abc.abstractmethod
    def power_at(self, utilization: float) -> float:
        """Power draw in watts at ``utilization`` (a fraction in ``[0, 1]``)."""

    @property
    @abc.abstractmethod
    def idle_power_w(self) -> float:
        """Power draw in watts when the device is idle."""

    @property
    @abc.abstractmethod
    def peak_power_w(self) -> float:
        """Power draw in watts at 100 % utilisation."""

    def average_power(self, load_profile: "LoadProfile") -> float:
        """Time-weighted average power under ``load_profile`` (paper Eq. 4)."""
        return sum(
            fraction * self.power_at(utilization)
            for utilization, fraction in load_profile.time_fractions.items()
        )

    def energy_joules(self, utilization: float, duration_s: float) -> float:
        """Energy consumed in joules at a constant ``utilization`` for ``duration_s``."""
        return self.power_at(utilization) * duration_s


@dataclass(frozen=True)
class PiecewiseLinearPowerModel(PowerModel):
    """Power model defined by measured (utilisation, watts) anchor points.

    Anchors are linearly interpolated; queries outside the measured range are
    clamped to the nearest anchor.  The canonical anchors are the Table 2
    measurements ``{0.0: P_idle, 0.10: P_10, 0.50: P_50, 1.0: P_100}``.
    """

    anchors: Mapping[float, float]

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ValueError("power model requires at least one anchor point")
        for utilization, watts in self.anchors.items():
            if not 0.0 <= utilization <= 1.0:
                raise ValueError(f"anchor utilisation {utilization} outside [0, 1]")
            if watts < 0:
                raise ValueError(f"anchor power {watts} W is negative")
        # Sorted once: power_at runs per request in the latency probe.
        object.__setattr__(self, "_sorted", tuple(sorted(self.anchors.items())))

    def power_at(self, utilization: float) -> float:
        if utilization < 0.0 or utilization > 1.0:
            raise ValueError(f"utilization {utilization} outside [0, 1]")
        anchors = self._sorted
        if utilization <= anchors[0][0]:
            return anchors[0][1]
        if utilization >= anchors[-1][0]:
            return anchors[-1][1]
        for (u_low, p_low), (u_high, p_high) in zip(anchors, anchors[1:]):
            if u_low <= utilization <= u_high:
                if u_high == u_low:
                    return p_high
                weight = (utilization - u_low) / (u_high - u_low)
                return p_low + weight * (p_high - p_low)
        raise AssertionError("unreachable: anchors cover [0, 1] after clamping")

    @property
    def idle_power_w(self) -> float:
        return self._sorted[0][1]

    @property
    def peak_power_w(self) -> float:
        return self._sorted[-1][1]

    @classmethod
    def from_table2(
        cls,
        p_100: float,
        p_50: float,
        p_10: float,
        p_idle: float,
    ) -> "PiecewiseLinearPowerModel":
        """Build the model from the paper's Table 2 measurement quadruple."""
        return cls(anchors={0.0: p_idle, 0.10: p_10, 0.50: p_50, 1.0: p_100})


@dataclass(frozen=True)
class ConstantPowerModel(PowerModel):
    """A degenerate power model with the same draw at every utilisation.

    Used for peripherals (server fans, smart plugs) and for simplified cloud
    instance analyses where only a single operating point is known.
    """

    watts: float

    def __post_init__(self) -> None:
        if self.watts < 0:
            raise ValueError(f"constant power {self.watts} W is negative")

    def power_at(self, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization {utilization} outside [0, 1]")
        return self.watts

    @property
    def idle_power_w(self) -> float:
        return self.watts

    @property
    def peak_power_w(self) -> float:
        return self.watts


@dataclass(frozen=True)
class LoadProfile:
    """Distribution of time spent in each CPU-utilisation mode.

    ``time_fractions`` maps utilisation (fraction in ``[0, 1]``) to the
    fraction of wall-clock time spent at that utilisation.  Fractions must
    sum to 1.  The paper's light-medium regime is provided as
    :data:`LIGHT_MEDIUM`.
    """

    time_fractions: Mapping[float, float]
    name: str = "custom"

    def __post_init__(self) -> None:
        total = 0.0
        for utilization, fraction in self.time_fractions.items():
            if not 0.0 <= utilization <= 1.0:
                raise ValueError(f"utilisation {utilization} outside [0, 1]")
            if fraction < 0:
                raise ValueError(f"time fraction {fraction} is negative")
            total += fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"time fractions sum to {total}, expected 1.0")

    def average_utilization(self) -> float:
        """Time-weighted mean CPU utilisation."""
        return sum(u * f for u, f in self.time_fractions.items())

    def average_throughput(self, peak_throughput: float) -> float:
        """Average operations per second under this profile (paper Eq. 6).

        The paper assumes throughput scales linearly with CPU utilisation
        when extrapolating from microbenchmarks, i.e. ``ops_50% = 0.5 *
        ops_100%``; idle time contributes no useful work.
        """
        return peak_throughput * self.average_utilization()

    def modes(self) -> Iterable[Tuple[float, float]]:
        """Iterate over ``(utilisation, time_fraction)`` pairs."""
        return tuple(self.time_fractions.items())

    def scaled_to_utilization(self, target_average: float) -> "LoadProfile":
        """Return a two-mode profile (busy / idle) with the given average utilisation.

        Useful for modelling serving clusters whose measured average CPU
        utilisation is known (e.g. the c5.9xlarge at 25-30 % in Section 6.2)
        but whose mode distribution is not.
        """
        if not 0.0 <= target_average <= 1.0:
            raise ValueError(f"target average {target_average} outside [0, 1]")
        if target_average == 0.0:
            return LoadProfile({0.0: 1.0}, name=f"constant-0%")
        return LoadProfile(
            {1.0: target_average, 0.0: 1.0 - target_average},
            name=f"busy-idle-{target_average:.0%}",
        )


#: Dell PowerEdge R740 LCA "light-medium" operating regime (Section 3.1).
LIGHT_MEDIUM = LoadProfile(
    time_fractions={1.0: 0.10, 0.5: 0.35, 0.1: 0.30, 0.0: 0.25},
    name="light-medium",
)

#: A fully-loaded profile used by the thermal stress test (Section 4.1).
FULL_LOAD = LoadProfile(time_fractions={1.0: 1.0}, name="full-load")

#: An always-idle profile, useful as a lower bound in analyses.
IDLE = LoadProfile(time_fractions={0.0: 1.0}, name="idle")


def validate_profile_average_power(
    model: PowerModel, profile: LoadProfile
) -> Dict[str, float]:
    """Return a breakdown of the average-power computation for reporting.

    The returned dict maps a human readable mode label (e.g. ``"50%"``) to the
    contribution of that mode (watts, already weighted by its time fraction),
    plus an ``"average"`` entry with the total.
    """
    breakdown: Dict[str, float] = {}
    total = 0.0
    for utilization, fraction in profile.time_fractions.items():
        contribution = fraction * model.power_at(utilization)
        breakdown[f"{utilization:.0%}"] = contribution
        total += contribution
    breakdown["average"] = total
    return breakdown
