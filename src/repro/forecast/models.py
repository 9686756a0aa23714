"""Carbon-intensity forecast models.

A :class:`ForecastModel` turns the sites' grid traces into hourly intensity
forecasts for lookahead windows — the input the
:class:`~repro.forecast.planner.LookaheadPlanner` ranks to decide which hours
charge the batteries and which serve from them.  Four models span the
fidelity axis:

* :class:`PerfectForecast` — the oracle: the true trace values, which bounds
  how much carbon a forecast-aware dispatch can possibly buffer;
* :class:`PersistenceForecast` — the weakest credible forecaster ("yesterday
  repeats"): today's forecast is the trace shifted back one day, the same
  information the paper's previous-day percentile heuristic consumes;
* :class:`NoisyOracleForecast` — the truth degraded by seeded multiplicative
  lognormal noise with configurable sigma, interpolating between the two so
  sweeps can show how savings decay as forecast skill erodes;
* :class:`CsvForecast` — a *measured* day-ahead forecast read from a CSV
  export (ElectricityMaps/WattTime-style), mirroring how measured intensity
  CSVs feed :meth:`~repro.grid.traces.GridTrace.from_csv`: the file's
  timestamped forecast series is sampled (with wrap-around) at the window's
  hours, independent of the site's own trace.

Models work on a batch of windows.  A run builds one :func:`hourly_truth`
table — each site's trace sampled at every hour start of the run plus one
horizon, wrapping end-to-end as the simulation does — and each forecast
refresh makes one :meth:`ForecastModel.windows` call for all its ``(site,
start hour)`` rows: the truth-based models gather their windows from the
table, and the CSV model interpolates its export on the rows' hour grid.
Hour starts are exact multiples of an hour and every step is elementwise,
so a row is bit for bit the window that site and start would get alone.

A model marks a row blind when it cannot forecast it (persistence before
the first full simulated day); the dispatch holds every pack over a blind
window, as the paper's previous-day heuristic holds on a day with no
history.  All models are deterministic: the noisy oracle draws each row's
noise from an RNG keyed on ``(seed, site_index, window start in seconds)``,
so the same window is perturbed the same way regardless of call order,
batch or process.
"""

from __future__ import annotations

import abc
import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.grid.traces import DATA_DIR, GridTrace

#: A small checked-in sample of an hourly day-ahead intensity forecast (3
#: days, same period as ``caiso_sample.csv``), in the column layout
#: :class:`CsvForecast` defaults to.
DAYAHEAD_SAMPLE_CSV = os.path.join(DATA_DIR, "caiso_dayahead_sample.csv")

#: Hours a persistence forecast looks back (and is blind for at the start).
PERSISTENCE_LAG_H = 24


def hourly_truth(traces: Sequence[GridTrace], n_hours: int) -> np.ndarray:
    """The ``(sites, n_hours)`` true intensity at every hour start.

    Row ``s`` is ``traces[s].intensities_at(h * 3600, wrap=True)`` for
    ``h = 0 .. n_hours - 1``: the truth every window of a run gathers from.
    """
    times = np.arange(n_hours) * units.SECONDS_PER_HOUR
    return np.stack([trace.intensities_at(times, wrap=True) for trace in traces])


def _hour_grid(start_h: np.ndarray, horizon_h: int) -> np.ndarray:
    """The ``(R, horizon_h)`` hour indices of windows starting at ``start_h``."""
    if horizon_h <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_h}")
    return np.asarray(start_h)[:, None] + np.arange(horizon_h)


def _truth_windows(
    truth: np.ndarray, site_index: np.ndarray, start_h: np.ndarray, horizon_h: int
) -> np.ndarray:
    """The true ``(R, horizon_h)`` windows of rows ``(site_index, start_h)``."""
    return truth[np.asarray(site_index)[:, None], _hour_grid(start_h, horizon_h)]


class ForecastModel(abc.ABC):
    """Produces hourly carbon-intensity forecast windows for many sites at once."""

    name: str = "forecast"

    @abc.abstractmethod
    def windows(
        self,
        truth: np.ndarray,
        site_index: np.ndarray,
        start_h: np.ndarray,
        horizon_h: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forecast windows for ``R`` rows of ``(site_index, start_h)``.

        ``truth`` is the run's :func:`hourly_truth` table, which must cover
        every row's window (and, for persistence, its lag).  Row ``r``
        forecasts ``horizon_h`` hours from hour ``start_h[r]`` at site
        ``site_index[r]``, one sample per hour start, matching the fleet
        scheduler's hourly grid lookups.  Returns the ``(R, horizon_h)``
        forecast (g/kWh) and an ``(R,)`` boolean *seeing* mask; a blind
        row's forecast is ``nan``, and
        :class:`~repro.fleet.dispatch.ForecastDispatch` holds the pack (no
        charge, no discharge) over the hours it would cover.
        """


class PerfectForecast(ForecastModel):
    """The oracle: the true trace values over the window."""

    name = "perfect"

    def windows(self, truth, site_index, start_h, horizon_h):
        forecast = _truth_windows(truth, site_index, start_h, horizon_h)
        return forecast, np.ones(len(forecast), dtype=bool)


class PersistenceForecast(ForecastModel):
    """Yesterday repeats: the trace shifted back one day.

    A window starting in the first simulated day has no yesterday, so the
    model is blind there — mirroring the first-day behaviour of the paper's
    previous-day percentile heuristic, which also runs blind until it has
    history.
    """

    name = "persistence"

    def windows(self, truth, site_index, start_h, horizon_h):
        start_h = np.asarray(start_h)
        seeing = start_h >= PERSISTENCE_LAG_H
        lagged = np.where(seeing, start_h - PERSISTENCE_LAG_H, 0)
        forecast = _truth_windows(truth, site_index, lagged, horizon_h)
        forecast[~seeing] = np.nan
        return forecast, seeing


class NoisyOracleForecast(ForecastModel):
    """The truth times seeded multiplicative lognormal noise.

    Each forecast hour is perturbed by ``exp(N(0, sigma))`` — median 1, so
    ``sigma=0`` reproduces :class:`PerfectForecast` exactly and growing sigma
    degrades the *ranking* of hours (what the lookahead planner consumes)
    smoothly toward noise.  Each row's RNG is keyed on ``(seed, site_index,
    window start in seconds)``: the same window always draws the same
    perturbation, so runs are reproducible regardless of call order.
    Windows starting at different times draw independently — an hour
    covered by several overlapping refresh windows is re-perturbed afresh
    in each, modelling a forecaster whose successive issues genuinely
    disagree.  The rows' draws are stacked and exponentiated in one pass.
    """

    name = "noisy"

    def __init__(self, noise_sigma: float = 0.1, seed: int = 0) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise sigma must be non-negative, got {noise_sigma}")
        self.noise_sigma = noise_sigma
        self.seed = seed

    def windows(self, truth, site_index, start_h, horizon_h):
        forecast = _truth_windows(truth, site_index, start_h, horizon_h)
        seeing = np.ones(len(forecast), dtype=bool)
        if self.noise_sigma == 0:
            return forecast, seeing
        noise = np.empty_like(forecast)
        for row, (site, start) in enumerate(
            zip(np.asarray(site_index).tolist(), np.asarray(start_h).tolist())
        ):
            rng = np.random.default_rng(
                (int(self.seed), site, int(round(start * units.SECONDS_PER_HOUR)))
            )
            noise[row] = rng.normal(0.0, self.noise_sigma, size=horizon_h)
        return forecast * np.exp(noise), seeing


class CsvForecast(ForecastModel):
    """A measured day-ahead forecast loaded from a CSV export.

    Real grid operators publish day-ahead intensity forecasts
    (ElectricityMaps/WattTime-style exports) in exactly the timestamped-CSV
    shape measured intensities arrive in, so this model ingests them through
    the same parser (:meth:`~repro.grid.traces.GridTrace.from_csv`) and
    serves windows by sampling the loaded series at the windows' hour
    starts, wrapping end-to-end like the simulation's own traces.  The
    forecast is *independent of the site's trace* (the truth table is not
    read) — its skill is whatever the export's skill was — which is the
    point: it closes the loop from synthetic forecast models to ingested
    ones.
    """

    name = "csv"

    def __init__(
        self,
        path: str,
        time_col: str = "timestamp",
        intensity_col: str = "intensity_gco2_per_kwh",
    ) -> None:
        if not path:
            raise ValueError("a CSV forecast needs a file path")
        self.path = path
        self.series = GridTrace.from_csv(
            path, time_col=time_col, intensity_col=intensity_col
        )

    def windows(self, truth, site_index, start_h, horizon_h):
        times = _hour_grid(start_h, horizon_h) * units.SECONDS_PER_HOUR
        forecast = self.series.intensities_at(times, wrap=True)
        return forecast, np.ones(len(forecast), dtype=bool)


#: Public model names resolvable by :func:`forecast_model_by_name` (and, with
#: the sentinel ``"none"``, by :class:`~repro.scenarios.spec.ForecastSpec`).
FORECAST_MODELS: Dict[str, type] = {
    PerfectForecast.name: PerfectForecast,
    PersistenceForecast.name: PersistenceForecast,
    NoisyOracleForecast.name: NoisyOracleForecast,
    CsvForecast.name: CsvForecast,
}


def forecast_model_by_name(
    name: str,
    noise_sigma: float = 0.1,
    seed: int = 0,
    csv_path: Optional[str] = None,
    time_col: str = "timestamp",
    intensity_col: str = "intensity_gco2_per_kwh",
) -> ForecastModel:
    """Instantiate one of the bundled forecast models by its public name.

    ``noise_sigma`` and ``seed`` only apply to the noisy oracle, and the
    CSV options only to the CSV ingester; the other models ignore them
    (they carry no tunables).
    """
    if name == NoisyOracleForecast.name:
        return NoisyOracleForecast(noise_sigma=noise_sigma, seed=seed)
    if name == CsvForecast.name:
        if not csv_path:
            raise ValueError(
                "forecast model 'csv' needs csv_path naming the day-ahead export"
            )
        return CsvForecast(csv_path, time_col=time_col, intensity_col=intensity_col)
    try:
        cls = FORECAST_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(FORECAST_MODELS))
        raise ValueError(
            f"unknown forecast model {name!r}; expected one of: {known}"
        ) from None
    return cls()
