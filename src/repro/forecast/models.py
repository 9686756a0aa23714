"""Carbon-intensity forecast models.

A :class:`ForecastModel` turns a site's :class:`~repro.grid.traces.GridTrace`
into an hourly intensity forecast for a lookahead window — the input the
:class:`~repro.forecast.planner.LookaheadPlanner` ranks to decide which hours
charge the batteries and which serve from them.  Three models span the
fidelity axis the ROADMAP's "Dispatch lookahead" item asks about:

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

A model returns ``None`` when it cannot forecast a window (persistence on the
first simulated day); the dispatch holds every pack over a blind window, as
the paper's previous-day heuristic holds on a day with no history.
All models are deterministic: the noisy oracle derives its RNG from
``(seed, site_index, window start)``, so the same window is perturbed the
same way regardless of call order or process.
"""

from __future__ import annotations

import abc
import os
from typing import Dict, Optional

import numpy as np

from repro import units
from repro.grid.traces import DATA_DIR, GridTrace

#: A small checked-in sample of an hourly day-ahead intensity forecast (3
#: days, same period as ``caiso_sample.csv``), in the column layout
#: :class:`CsvForecast` defaults to.
DAYAHEAD_SAMPLE_CSV = os.path.join(DATA_DIR, "caiso_dayahead_sample.csv")


class ForecastModel(abc.ABC):
    """Produces per-site hourly carbon-intensity forecasts from a grid trace."""

    name: str = "forecast"

    @abc.abstractmethod
    def window(
        self,
        trace: GridTrace,
        start_s: float,
        horizon_h: int,
        site_index: int = 0,
    ) -> Optional[np.ndarray]:
        """An ``(horizon_h,)`` intensity forecast (g/kWh) starting at ``start_s``.

        Samples are taken at the start of each forecast hour, matching the
        fleet scheduler's hourly grid lookups; the trace wraps end-to-end so
        windows may extend past the trace like the simulation itself does.
        Returns ``None`` when the model has no basis to forecast this window;
        :class:`~repro.fleet.dispatch.ForecastDispatch` then holds the pack
        (no charge, no discharge) over the hours the window would cover.
        """

    def _hour_starts(self, start_s: float, horizon_h: int) -> np.ndarray:
        if horizon_h <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_h}")
        return start_s + np.arange(horizon_h, dtype=float) * units.SECONDS_PER_HOUR


class PerfectForecast(ForecastModel):
    """The oracle: the true trace values over the window."""

    name = "perfect"

    def window(self, trace, start_s, horizon_h, site_index=0):
        times = self._hour_starts(start_s, horizon_h)
        return trace.intensities_at(times, wrap=True)


class PersistenceForecast(ForecastModel):
    """Yesterday repeats: the trace shifted back one day.

    The first simulated day has no yesterday, so the model returns ``None``
    there — mirroring the first-day behaviour of the paper's previous-day
    percentile heuristic, which also runs blind until it has history.
    """

    name = "persistence"

    def window(self, trace, start_s, horizon_h, site_index=0):
        if start_s < units.SECONDS_PER_DAY:
            return None
        times = self._hour_starts(start_s, horizon_h) - units.SECONDS_PER_DAY
        return trace.intensities_at(times, wrap=True)


class NoisyOracleForecast(ForecastModel):
    """The truth times seeded multiplicative lognormal noise.

    Each forecast hour is perturbed by ``exp(N(0, sigma))`` — median 1, so
    ``sigma=0`` reproduces :class:`PerfectForecast` exactly and growing sigma
    degrades the *ranking* of hours (what the lookahead planner consumes)
    smoothly toward noise.  The RNG is keyed on ``(seed, site_index, window
    start)``: the same window always draws the same perturbation, so runs
    are reproducible regardless of call order.  Windows starting at
    different times draw independently — an hour covered by several
    overlapping refresh windows is re-perturbed afresh in each, modelling a
    forecaster whose successive issues genuinely disagree.
    """

    name = "noisy"

    def __init__(self, noise_sigma: float = 0.1, seed: int = 0) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise sigma must be non-negative, got {noise_sigma}")
        self.noise_sigma = noise_sigma
        self.seed = seed

    def window(self, trace, start_s, horizon_h, site_index=0):
        times = self._hour_starts(start_s, horizon_h)
        truth = trace.intensities_at(times, wrap=True)
        if self.noise_sigma == 0:
            return truth
        rng = np.random.default_rng(
            (int(self.seed), int(site_index), int(round(start_s)))
        )
        factors = np.exp(rng.normal(0.0, self.noise_sigma, size=horizon_h))
        return truth * factors


class CsvForecast(ForecastModel):
    """A measured day-ahead forecast loaded from a CSV export.

    Real grid operators publish day-ahead intensity forecasts
    (ElectricityMaps/WattTime-style exports) in exactly the timestamped-CSV
    shape measured intensities arrive in, so this model ingests them through
    the same parser (:meth:`~repro.grid.traces.GridTrace.from_csv`) and
    serves windows by sampling the loaded series at the window's hour
    starts, wrapping end-to-end like the simulation's own traces.  The
    forecast is *independent of the site's trace* — its skill is whatever
    the export's skill was — which is the point: it closes the loop from
    synthetic forecast models to ingested ones.
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

    def window(self, trace, start_s, horizon_h, site_index=0):
        times = self._hour_starts(start_s, horizon_h)
        return self.series.intensities_at(times, wrap=True)


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
