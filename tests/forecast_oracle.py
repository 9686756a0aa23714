"""The per-window scalar forecast models: the batched models' test oracle.

:meth:`~repro.forecast.models.ForecastModel.windows` forecasts a batch of
``(site, start hour)`` rows from one hourly truth table.  This module keeps
the one-window-at-a-time form it replaced, so tests can hold every row of a
batch to it bit for bit: :func:`oracle_window` is the old ``window`` body of
each bundled model — sample the site's trace (or the CSV export) at the
window's hour starts with wrap-around, shift a persistence window back one
day (``None`` before the first full day), and multiply a noisy window by
``exp`` of normals from an RNG keyed on ``(seed, site, start second)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import units
from repro.forecast import (
    CsvForecast,
    ForecastModel,
    NoisyOracleForecast,
    PerfectForecast,
    PersistenceForecast,
)
from repro.grid.traces import GridTrace


def _hour_starts(start_s: float, horizon_h: int) -> np.ndarray:
    if horizon_h <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_h}")
    return start_s + np.arange(horizon_h, dtype=float) * units.SECONDS_PER_HOUR


def oracle_window(
    model: ForecastModel,
    trace: GridTrace,
    start_s: float,
    horizon_h: int,
    site_index: int = 0,
) -> Optional[np.ndarray]:
    """``model``'s ``(horizon_h,)`` window from ``start_s`` at one site, or
    ``None`` where it is blind, computed one window at a time."""
    times = _hour_starts(start_s, horizon_h)
    if isinstance(model, PersistenceForecast):
        if start_s < units.SECONDS_PER_DAY:
            return None
        return trace.intensities_at(times - units.SECONDS_PER_DAY, wrap=True)
    if isinstance(model, CsvForecast):
        return model.series.intensities_at(times, wrap=True)
    truth = trace.intensities_at(times, wrap=True)
    if isinstance(model, PerfectForecast):
        return truth
    if isinstance(model, NoisyOracleForecast):
        if model.noise_sigma == 0:
            return truth
        rng = np.random.default_rng(
            (int(model.seed), int(site_index), int(round(start_s)))
        )
        factors = np.exp(rng.normal(0.0, model.noise_sigma, size=horizon_h))
        return truth * factors
    raise TypeError(f"no oracle for {type(model).__name__}")
