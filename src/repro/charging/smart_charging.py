"""Carbon-aware ("smart") charging policies (paper Section 4.3).

A smart-charging policy decides, for every trace interval, whether a
battery-backed device should draw from the wall (and top up its battery) or
run from its battery.  The paper's heuristic for the Californian grid:

* compute the *charge-time fraction* P — the percentage of the day the device
  must spend charging to cover its average power draw at its rated charge
  power;
* set the carbon-intensity threshold to the P-th percentile of the *previous
  day's* instantaneous carbon intensities;
* charge whenever the current grid intensity is at or below the threshold;
* charge unconditionally whenever the battery drops below a 25 % floor (the
  battery doubles as backup power, so it is never allowed to run flat).

The heuristic itself is *trace-level*: it needs only yesterday's intensity
samples, a battery spec, and an average draw.  :func:`charge_time_percentile`,
:func:`charge_percentile` and :func:`threshold_from_intensities` expose it
in that form so every consumer — the per-device study here, the fleet's
coupled energy-dispatch engine (:mod:`repro.fleet.dispatch`), and the
scenario runner's headroom estimate — shares one decision path.
:class:`SmartChargingPolicy` wraps the helpers into the stateful
per-interval policy the charging simulator steps; :class:`AlwaysPlugged`
and :class:`NaiveCharging` provide the baselines the savings are measured
against.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.devices.battery import BatterySpec
from repro.grid.traces import GridTrace


# ---------------------------------------------------------------------------
# Trace-level heuristic (shared by policies, fleet dispatch, and estimates)
# ---------------------------------------------------------------------------


def charge_time_percentile(battery: BatterySpec, average_draw_w: float) -> float:
    """Percentage of the day the device must spend charging (the paper's P).

    The device consumes ``average_draw_w`` around the clock and recharges at
    the battery's rated charge power, so the minimum plugged-in fraction is
    ``average_draw_w / charge_rate_w``.
    """
    if average_draw_w < 0:
        raise ValueError("average draw must be non-negative")
    fraction = min(1.0, average_draw_w / battery.charge_rate_w)
    return 100.0 * fraction


def charge_percentile(
    battery: BatterySpec, average_draw_w: float, margin: float = 5.0
) -> float:
    """The percentile the heuristic thresholds at: P plus a safety margin.

    The raw charge-time fraction is the theoretical minimum plugged-in
    time; the margin (default 5 percentage points) keeps the device from
    skating along the SoC floor when consecutive days differ.  Capped at
    100.
    """
    return min(100.0, charge_time_percentile(battery, average_draw_w) + margin)


def threshold_from_intensities(
    intensities: Optional[Union[Sequence[float], np.ndarray]],
    percentile: Union[float, np.ndarray],
) -> Optional[Union[float, np.ndarray]]:
    """Today's carbon-intensity charge threshold from yesterday's samples.

    The single source of the paper's percentile heuristic: the
    ``percentile``-th percentile (usually :func:`charge_percentile`) of the
    previous day's intensity distribution.  ``intensities`` may be any
    sample array — a 5-minute charging-study day or the fleet's hourly grid
    lookups — which is what lets the per-device study and the fleet
    dispatch engine share one decision.  ``(H,)`` samples with a scalar
    percentile give one threshold; ``(H, C)`` samples with a ``(C,)``
    percentile vector give one threshold per column, a ``nan`` percentile
    a ``nan`` threshold (a pack with no battery).  Columns sharing a
    percentile are thresholded in one pass.

    Returns ``None`` when there is no history yet (``intensities=None``;
    callers then behave like an always-plugged device).  An *empty* or
    non-finite sample array is a bug in the caller — a sliced-away day, a
    NaN-poisoned trace — not absent history, and raises
    :class:`ValueError` naming the offending input rather than silently
    disabling smart charging for the day.
    """
    if intensities is None:
        return None
    samples = np.asarray(intensities, dtype=float)
    if samples.size == 0:
        raise ValueError(
            "intensities is empty: a day's threshold needs at least one "
            "previous-day sample (pass None when there is no history yet)"
        )
    if not np.all(np.isfinite(samples)):
        bad = samples[~np.isfinite(samples)]
        raise ValueError(
            f"intensities contains {bad.size} non-finite value(s) "
            f"(first: {bad[0]!r}); carbon intensities must be finite"
        )
    if samples.ndim == 1:
        return float(np.percentile(samples, percentile))
    percentile = np.asarray(percentile, dtype=float)
    thresholds = np.full(samples.shape[1], np.nan)
    for q in np.unique(percentile[~np.isnan(percentile)]).tolist():
        cols = np.flatnonzero(percentile == q)
        thresholds[cols] = np.percentile(samples[:, cols], q, axis=0)
    return thresholds


@dataclass(frozen=True)
class ChargingDecisionContext:
    """Everything a policy may consult when deciding whether to charge now."""

    time_s: float
    intensity_g_per_kwh: float
    state_of_charge: float
    threshold_g_per_kwh: Optional[float]


class ChargingPolicy(abc.ABC):
    """Decides whether the device should be plugged in during an interval."""

    @abc.abstractmethod
    def prepare_day(self, previous_day: Optional[GridTrace], battery: BatterySpec,
                    average_draw_w: float) -> None:
        """Called at the start of each simulated day with the previous day's trace."""

    @abc.abstractmethod
    def should_charge(self, context: ChargingDecisionContext) -> bool:
        """True if the device should draw wall power during this interval."""

    @property
    def name(self) -> str:
        return type(self).__name__


class AlwaysPlugged(ChargingPolicy):
    """The do-nothing baseline: the device is permanently wall powered.

    This is how the paper's operational-carbon baseline behaves — the battery
    stays full and every joule is drawn at whatever the instantaneous grid
    intensity happens to be.
    """

    def prepare_day(self, previous_day, battery, average_draw_w) -> None:  # noqa: D102
        return None

    def should_charge(self, context: ChargingDecisionContext) -> bool:  # noqa: D102
        return True


@dataclass
class NaiveCharging(ChargingPolicy):
    """Charge whenever the battery falls below a threshold, ignore the grid.

    Models a device left on a charger with a conventional "charge when low"
    controller; used as an ablation baseline to separate the benefit of
    having a battery from the benefit of carbon-aware scheduling.
    """

    low_watermark: float = 0.25
    high_watermark: float = 0.95
    _charging: bool = False

    def prepare_day(self, previous_day, battery, average_draw_w) -> None:  # noqa: D102
        return None

    def should_charge(self, context: ChargingDecisionContext) -> bool:  # noqa: D102
        if context.state_of_charge <= self.low_watermark:
            self._charging = True
        elif context.state_of_charge >= self.high_watermark:
            self._charging = False
        return self._charging


@dataclass
class SmartChargingPolicy(ChargingPolicy):
    """The paper's percentile-threshold carbon-aware charging heuristic.

    Parameters
    ----------
    min_state_of_charge:
        Floor below which charging is forced regardless of grid conditions
        (0.25 in the paper; raise it for more backup-power margin, lower it
        to prioritise carbon savings).
    percentile_margin:
        Added to the computed charge-time percentile before taking the
        threshold (see :func:`charge_percentile`).
    fixed_percentile:
        When given, overrides the device-derived percentile entirely (useful
        for sensitivity sweeps).
    """

    min_state_of_charge: float = 0.25
    percentile_margin: float = 5.0
    fixed_percentile: Optional[float] = None
    _threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_state_of_charge < 1.0:
            raise ValueError("min state of charge must be within [0, 1)")
        if self.percentile_margin < 0:
            raise ValueError("percentile margin must be non-negative")
        if self.fixed_percentile is not None and not 0.0 <= self.fixed_percentile <= 100.0:
            raise ValueError("fixed percentile must be within [0, 100]")

    @staticmethod
    def charge_time_percentile(battery: BatterySpec, average_draw_w: float) -> float:
        """The paper's P; delegates to :func:`charge_time_percentile`."""
        return charge_time_percentile(battery, average_draw_w)

    def prepare_day(
        self,
        previous_day: Optional[GridTrace],
        battery: BatterySpec,
        average_draw_w: float,
    ) -> None:
        """Set today's carbon-intensity threshold from yesterday's trace."""
        percentile = self.fixed_percentile
        if percentile is None:
            percentile = charge_percentile(
                battery, average_draw_w, self.percentile_margin
            )
        self._threshold = threshold_from_intensities(
            previous_day.intensity_g_per_kwh if previous_day is not None else None,
            percentile,
        )

    @property
    def threshold_g_per_kwh(self) -> Optional[float]:
        """Today's carbon-intensity threshold (None before the first prepare_day)."""
        return self._threshold

    def should_charge(self, context: ChargingDecisionContext) -> bool:
        """Charge below the threshold, or unconditionally below the SoC floor."""
        if context.state_of_charge < self.min_state_of_charge:
            return True
        if context.state_of_charge >= 1.0:
            return False
        threshold = self._threshold
        if threshold is None:
            # First day: no history yet, behave like a plugged device.
            return True
        return context.intensity_g_per_kwh <= threshold
