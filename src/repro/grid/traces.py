"""Grid carbon-intensity traces and a synthetic CAISO-like generator.

The smart-charging study in Section 4.3 of the paper uses public supply data
from the California Independent System Operator (CAISO): per-5-minute
generation by source and the resulting grid carbon intensity for April 2021.
That dataset is not redistributable, so this module provides

* :class:`GridTrace` — a thin container for a timestamped carbon-intensity
  series, exposing the operations the charging and carbon models need
  (interpolation, daily slicing, percentiles, averaging); and
* :class:`CaisoLikeTraceGenerator` — a synthetic generator reproducing the
  structural features the paper's algorithm relies on: a solar "duck curve"
  (generation peaking mid-day), demand peaking in the evening, gas and
  imports filling the residual, carbon intensity therefore anti-correlated
  with solar output, and modest day-to-day variation.

Real CAISO CSV exports can be loaded into the same :class:`GridTrace`
interface via :meth:`GridTrace.from_csv`, so every downstream consumer is
agnostic to whether the data is synthetic or measured.
"""

from __future__ import annotations

import csv
import datetime as _datetime
import functools
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.grid import sources as energy_sources

#: Default sampling interval of CAISO supply data (5 minutes), and the
#: interval of every synthetic trace.
DEFAULT_INTERVAL_S = 300.0

#: Hours of each synthetic day's samples, midnight to midnight.
_DAY_HOURS = (
    np.arange(int(round(units.SECONDS_PER_DAY / DEFAULT_INTERVAL_S)))
    * DEFAULT_INTERVAL_S
    / units.SECONDS_PER_HOUR
)

#: Sunrise and sunset (hours) of the synthetic solar half-sine.
SOLAR_HOURS = (6.5, 19.5)

#: Relative sigma of the per-sample demand noise (halved when applied).
DEMAND_NOISE_SIGMA = 0.04

#: Directory of bundled grid-trace data files shipped with the package.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: A small checked-in sample of hourly CAISO-style intensities (3 days),
#: in the column layout :meth:`GridTrace.from_csv` defaults to.
CAISO_SAMPLE_CSV = os.path.join(DATA_DIR, "caiso_sample.csv")


@functools.lru_cache(maxsize=None)
def _hour_curves() -> Tuple[np.ndarray, ...]:
    """The fixed ``(288,)`` hour curves every synthetic day shares.

    The morning demand ramp, the unit evening peak, the daylight sine² and
    the night-biased wind factor depend on neither the seed nor the
    generator's parameters, so they are built once, on the first synthesis
    rather than at import (a process that never synthesises a trace never
    pays for them), and shared read-only.
    """
    hours = _DAY_HOURS
    sunrise, sunset = SOLAR_HOURS
    daylight = np.clip((hours - sunrise) / (sunset - sunrise), 0.0, 1.0)
    curves = (
        2.0 * np.exp(-0.5 * ((hours - 9.0) / 2.5) ** 2),
        np.exp(-0.5 * ((hours - 19.5) / 2.2) ** 2),
        np.sin(np.pi * daylight) ** 2,
        1.0 + 0.35 * np.cos(2.0 * np.pi * (hours - 2.0) / 24.0),
    )
    for curve in curves:
        curve.setflags(write=False)
    return curves


def _parse_time_cell(cell: str, column: str, row_number: int) -> float:
    """Parse one time cell: seconds-since-start or an ISO-8601 timestamp."""
    text = cell.strip()
    try:
        seconds = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(seconds):
            raise ValueError(
                f"row {row_number}: {column!r} value {cell!r} is not finite"
            )
        return seconds
    try:
        stamp = _datetime.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(
            f"row {row_number}: cannot parse {column!r} value {cell!r} as "
            "seconds or an ISO-8601 timestamp"
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=_datetime.timezone.utc)
    return stamp.timestamp()


def _gap_slack(first_gap: float) -> float:
    """How far any gap between samples may stray from the first: the one
    uniform-spacing rule (:func:`numpy.allclose` at rtol = atol = 1e-6)."""
    return 1e-6 + 1e-6 * abs(first_gap)


def _uneven_gap(gaps: np.ndarray) -> Optional[int]:
    """Index of the first gap that breaks the spacing rule, or ``None``."""
    off = np.abs(gaps - gaps[0]) > _gap_slack(gaps[0])
    return int(np.argmax(off)) if off.any() else None


@dataclass(frozen=True)
class GridTrace:
    """A time series of grid carbon intensity.

    ``times_s`` are seconds since the start of the trace (uniformly spaced),
    and ``intensity_g_per_kwh`` the corresponding carbon intensities.
    Interval, period, wrap-around lookups and carbon integration all assume
    the spacing, so the constructor rejects uneven times.
    """

    times_s: np.ndarray
    intensity_g_per_kwh: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times_s, dtype=float)
        intensity = np.asarray(self.intensity_g_per_kwh, dtype=float)
        if times.ndim != 1 or intensity.ndim != 1:
            raise ValueError("trace arrays must be one-dimensional")
        if len(times) != len(intensity):
            raise ValueError(
                f"times ({len(times)}) and intensities ({len(intensity)}) differ in length"
            )
        if len(times) < 2:
            raise ValueError("a trace requires at least two samples")
        # One diff pass and four reductions pass a valid trace: a finite
        # start and positive gaps within the slack of a finite first gap
        # make finite, increasing, uniform times.  The scans that name a
        # fault run only when this test fails.
        gaps = np.diff(times)
        first, low = gaps[0], gaps.min()
        slack = _gap_slack(first)
        if not (
            math.isfinite(times[0])
            and 0.0 < low
            and first - low <= slack
            and gaps.max() - first <= slack
            and 0.0 <= intensity.min()
            and intensity.max() < math.inf
        ):
            for label, values in (
                ("times_s", times),
                ("intensity_g_per_kwh", intensity),
            ):
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"{label} must be finite")
            # Finite times far apart can still overflow their difference.
            if not np.all(np.isfinite(gaps)):
                raise ValueError("gaps between trace times must be finite")
            if np.any(gaps <= 0):
                raise ValueError("trace times must be strictly increasing")
            if np.any(intensity < 0):
                raise ValueError("carbon intensities must be non-negative")
            bad = _uneven_gap(gaps)
            if bad is not None:
                raise ValueError(
                    f"trace times must be uniformly spaced; expected {first:g} s "
                    f"between samples but sample {bad + 1} is {gaps[bad]:g} s "
                    "after its predecessor"
                )
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "intensity_g_per_kwh", intensity)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_series(
        cls,
        intensity_g_per_kwh: Sequence[float],
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> "GridTrace":
        """Build a trace from a plain intensity sequence at a fixed interval."""
        intensity = np.asarray(intensity_g_per_kwh, dtype=float)
        times = np.arange(len(intensity), dtype=float) * interval_s
        return cls(times_s=times, intensity_g_per_kwh=intensity)

    @classmethod
    def from_csv(
        cls,
        path: str,
        time_col: str = "timestamp",
        intensity_col: str = "intensity_gco2_per_kwh",
    ) -> "GridTrace":
        """Load a trace from a CSV export (CAISO/ERCOT/BPA style).

        ``time_col`` may hold either numeric seconds or ISO-8601 timestamps
        (naive stamps are treated as UTC); times are re-based so the trace
        starts at 0 s.  ``intensity_col`` holds gCO2e/kWh.  Rows must be in
        chronological order; malformed cells and missing columns raise
        :class:`ValueError` naming the offending column and row.
        """
        times: List[float] = []
        intensities: List[float] = []
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            for column in (time_col, intensity_col):
                if column not in header:
                    raise ValueError(
                        f"{os.path.basename(path)}: missing column {column!r}; "
                        f"found columns: {', '.join(header) or '(none)'}"
                    )
            for row_number, row in enumerate(reader, start=2):
                time_cell = row[time_col]
                intensity_cell = row[intensity_col]
                if time_cell is None or intensity_cell is None:
                    raise ValueError(f"row {row_number}: short row")
                times.append(_parse_time_cell(time_cell, time_col, row_number))
                try:
                    intensity = float(intensity_cell)
                except ValueError:
                    raise ValueError(
                        f"row {row_number}: cannot parse {intensity_col!r} "
                        f"value {intensity_cell!r} as a number"
                    ) from None
                if not math.isfinite(intensity):
                    raise ValueError(
                        f"row {row_number}: {intensity_col!r} value "
                        f"{intensity_cell!r} is not finite"
                    )
                intensities.append(intensity)
        if len(times) < 2:
            raise ValueError(
                f"{os.path.basename(path)}: a trace requires at least two data rows"
            )
        series = np.asarray(times) - times[0]
        # A gapped export (DST jump, data outage) fails here, naming its
        # row, before the constructor rejects it without one.
        gaps = np.diff(series)
        bad = _uneven_gap(gaps)
        if bad is not None:
            raise ValueError(
                f"{os.path.basename(path)}: rows must be uniformly spaced; "
                f"expected {gaps[0]:.0f} s between samples but row "
                f"{bad + 3} is {gaps[bad]:.0f} s after its predecessor"
            )
        return cls(
            times_s=series,
            intensity_g_per_kwh=np.asarray(intensities),
        )

    @classmethod
    def constant(
        cls,
        intensity_g_per_kwh: float,
        duration_s: float = units.SECONDS_PER_DAY,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> "GridTrace":
        """A flat trace, useful for fixed energy-mix scenarios and tests."""
        n_samples = max(2, int(round(duration_s / interval_s)))
        return cls.from_series([intensity_g_per_kwh] * n_samples, interval_s=interval_s)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def interval_s(self) -> float:
        """Sampling interval, assuming uniform spacing."""
        return float(self.times_s[1] - self.times_s[0])

    @property
    def duration_s(self) -> float:
        """Time span covered by the trace."""
        return float(self.times_s[-1] - self.times_s[0])

    @property
    def n_days(self) -> int:
        """Number of whole days the trace covers (rounded to nearest)."""
        return int(round((self.duration_s + self.interval_s) / units.SECONDS_PER_DAY))

    def mean_intensity(self) -> float:
        """Time-averaged carbon intensity (gCO2e/kWh)."""
        return float(np.mean(self.intensity_g_per_kwh))

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile of the intensity distribution (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be within [0, 100], got {p}")
        return float(np.percentile(self.intensity_g_per_kwh, p))

    @property
    def period_s(self) -> float:
        """Length of one tiling period when the trace repeats end-to-end.

        One interval longer than :attr:`duration_s`, so that a
        midnight-to-midnight daily trace (samples at 0 .. 86100 s) tiles
        seamlessly: the sample after 86100 s is the next period's 0 s.
        """
        return self.duration_s + self.interval_s

    def intensity_at(self, time_s: float, wrap: bool = False) -> float:
        """Carbon intensity at an arbitrary time, via linear interpolation.

        With ``wrap=False`` times outside the trace are clamped to the
        first/last sample.  With ``wrap=True`` the trace repeats with period
        :attr:`period_s`, so long-horizon simulations (e.g. a fleet year)
        can reuse a month-long trace; the seam between the last sample and
        the repeated first sample is linearly interpolated.
        """
        return float(self.intensities_at(np.asarray(time_s, dtype=float), wrap=wrap))

    def intensities_at(self, times_s: np.ndarray, wrap: bool = False) -> np.ndarray:
        """Vectorized :meth:`intensity_at` for an array of query times."""
        times = np.asarray(times_s, dtype=float)
        if wrap:
            times = np.mod(times - self.times_s[0], self.period_s) + self.times_s[0]
            xs, ys = self._wrap_samples()
            return np.interp(times, xs, ys)
        return np.interp(times, self.times_s, self.intensity_g_per_kwh)

    def _wrap_samples(self) -> Tuple[np.ndarray, np.ndarray]:
        """Seam-bridged sample arrays for wrap-around interpolation, cached.

        One virtual sample at the period end equal to the first sample makes
        interpolation wrap instead of clamping.  The trace is immutable, so
        the bridged copies are built once and shared by every wrap-around
        query.
        """
        cached = getattr(self, "_wrap_cache", None)
        if cached is None:
            cached = (
                np.append(self.times_s, self.times_s[0] + self.period_s),
                np.append(self.intensity_g_per_kwh, self.intensity_g_per_kwh[0]),
            )
            object.__setattr__(self, "_wrap_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------

    def slice(self, start_s: float, end_s: float) -> "GridTrace":
        """Return the sub-trace covering ``[start_s, end_s)`` (times re-based to 0)."""
        if end_s <= start_s:
            raise ValueError("end must be after start")
        mask = (self.times_s >= start_s) & (self.times_s < end_s)
        if int(np.count_nonzero(mask)) < 2:
            raise ValueError("requested slice contains fewer than two samples")
        return GridTrace(
            times_s=self.times_s[mask] - start_s,
            intensity_g_per_kwh=self.intensity_g_per_kwh[mask],
        )

    def day(self, index: int) -> "GridTrace":
        """Return the trace for day ``index`` (0-based)."""
        if index < 0 or index >= self.n_days:
            raise IndexError(f"day index {index} out of range for {self.n_days}-day trace")
        start = index * units.SECONDS_PER_DAY
        return self.slice(start, start + units.SECONDS_PER_DAY)

    def days(self) -> Tuple["GridTrace", ...]:
        """Split the trace into per-day sub-traces."""
        return tuple(self.day(i) for i in range(self.n_days))

    # ------------------------------------------------------------------
    # Carbon accounting
    # ------------------------------------------------------------------

    def carbon_for_power_profile(
        self, power_w: np.ndarray, interval_s: Optional[float] = None
    ) -> float:
        """Total carbon (g) for a power series sampled at the trace's interval.

        ``power_w`` must have the same length as the trace (or a scalar), and
        is interpreted as the average power drawn during each interval.
        """
        interval = self.interval_s if interval_s is None else interval_s
        power = np.broadcast_to(np.asarray(power_w, dtype=float), self.intensity_g_per_kwh.shape)
        if np.any(power < 0):
            raise ValueError("power draw must be non-negative")
        energy_kwh = power * interval / units.JOULES_PER_KWH
        return float(np.sum(energy_kwh * self.intensity_g_per_kwh))

    def carbon_for_constant_power(self, power_w: float) -> float:
        """Total carbon (g) for drawing ``power_w`` constantly over the trace."""
        return self.carbon_for_power_profile(np.full(len(self), power_w))


@dataclass(frozen=True)
class CaisoLikeTraceGenerator:
    """Generates synthetic CAISO-style supply stacks and carbon intensities.

    The generator models Californian spring conditions (the paper studies
    April 2021): a large mid-day solar hump, modest wind with a nocturnal
    bias, flat nuclear/geothermal baseload, hydro following demand, and gas
    plus imports supplying the residual, which peaks in the evening when the
    sun sets but demand has not yet fallen — producing the characteristic
    anti-correlation between solar output and grid carbon intensity.

    All magnitudes are in GW and are tunable; the defaults land the mean
    carbon intensity close to the paper's 257 gCO2e/kWh Californian average.
    """

    seed: int = 2021
    base_demand_gw: float = 22.0
    evening_peak_gw: float = 6.0
    solar_peak_gw: float = 8.0
    wind_mean_gw: float = 3.0
    hydro_gw: float = 2.8
    nuclear_gw: float = 2.2
    geothermal_gw: float = 1.0
    day_to_day_sigma: float = 0.12

    def supply_mw(self, n_days: int, start_day: int = 0) -> Dict[str, np.ndarray]:
        """The supply stack (GW per source) of ``n_days`` synthetic days.

        Each source is a ``(n_days, 288)`` array, one row per day from
        midnight to midnight.  Day ``d`` draws from its own
        ``(seed, start_day + d)`` RNG in a fixed order (day scale, cloud
        factor, then the demand, solar and wind noise), so a row does not
        depend on which other days share the call.  Every other step is
        elementwise, so the stacked pass is bitwise the per-day one.
        """
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        n = len(_DAY_HOURS)
        scales = np.empty((2, n_days, 1))
        noise = np.empty((3, n_days, n))
        for day in range(n_days):
            rng = np.random.default_rng((self.seed, start_day + day))
            # Day scale, then cloud factor, each clipped to its band.
            scales[0, day] = min(
                max(1.0 + rng.normal(0.0, self.day_to_day_sigma), 0.6), 1.4
            )
            scales[1, day] = min(
                max(1.0 + rng.normal(0.0, self.day_to_day_sigma), 0.4), 1.3
            )
            for row, sigma in enumerate((DEMAND_NOISE_SIGMA, 0.15, 0.25)):
                noise[row, day] = rng.normal(0.0, sigma, size=n)
        day_scale, cloud_factor = scales
        demand_noise, solar_noise, wind_noise = noise

        ramp, evening_peak, daylight_sine2, night_wind = _hour_curves()
        # Demand: morning ramp, mid-day plateau, evening peak around 19:00.
        demand = self.base_demand_gw + ramp + self.evening_peak_gw * evening_peak
        demand = demand * (1.0 + demand_noise * 0.5)
        demand = np.maximum(demand, 15.0)

        # Solar: half-sine between sunrise and sunset, scaled by cloud cover.
        solar = self.solar_peak_gw * cloud_factor * daylight_sine2
        solar = np.maximum(solar + solar_noise, 0.0)

        # Wind: noisy, slightly stronger at night.
        wind = self.wind_mean_gw * day_scale * night_wind
        wind = np.maximum(wind + wind_noise, 0.2)

        hydro = np.repeat(self.hydro_gw * day_scale, n, axis=1)
        nuclear = np.full((n_days, n), self.nuclear_gw)
        geothermal = np.full((n_days, n), self.geothermal_gw)

        residual = demand - (solar + wind + hydro + nuclear + geothermal)
        # CAISO never dispatches below a few GW of thermal + import supply even
        # at the solar peak (minimum generation constraints), which keeps the
        # mid-day carbon-intensity floor around 120-170 gCO2e/kWh.
        residual = np.maximum(residual, 3.0)
        # Imports take roughly 40 % of the residual, gas the rest.
        imports = 0.40 * residual
        gas = residual - imports

        return {
            "solar": solar,
            "wind": wind,
            "hydro": hydro,
            "nuclear": nuclear,
            "geothermal": geothermal,
            "natural gas": gas,
            "imports": imports,
        }

    def generate_days(self, n_days: int, start_day: int = 0) -> GridTrace:
        """Generate ``n_days`` consecutive synthetic days as a single trace.

        One :meth:`supply_mw` pass and one blend cover every day.
        """
        intensity = energy_sources.blended_intensity(
            self.supply_mw(n_days, start_day)
        ).ravel()
        return GridTrace.from_series(intensity)
