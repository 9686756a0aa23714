"""Carbon-intensity forecasting: models, lookahead planning, regret.

Where :mod:`repro.charging` and :mod:`repro.fleet.dispatch` react to the
*previous* day's intensity distribution (the paper's percentile heuristic),
this package looks forward:

* :mod:`repro.forecast.models` — :class:`ForecastModel` and the bundled
  perfect / persistence / noisy-oracle / CSV-ingested forecasters, each
  producing a batch of hourly lookahead intensity windows in one call (the
  first three gathered from the run's :func:`hourly_truth` table of the
  sites' :class:`~repro.grid.traces.GridTrace` values, :class:`CsvForecast`
  from a measured day-ahead export);
* :mod:`repro.forecast.planner` — :class:`LookaheadPlanner`, the greedy
  rank-by-forecast-intensity charge/discharge setpoint planner; fed a
  perfect forecast it is the regret baseline.

The fleet couples these through
:class:`~repro.fleet.dispatch.ForecastDispatch`; scenarios select them with
:class:`~repro.scenarios.spec.ForecastSpec`.
"""

from repro.forecast.models import (
    DAYAHEAD_SAMPLE_CSV,
    FORECAST_MODELS,
    CsvForecast,
    ForecastModel,
    NoisyOracleForecast,
    PerfectForecast,
    PersistenceForecast,
    forecast_model_by_name,
    hourly_truth,
)
from repro.forecast.planner import LookaheadPlanner

__all__ = [
    "ForecastModel",
    "PerfectForecast",
    "PersistenceForecast",
    "NoisyOracleForecast",
    "CsvForecast",
    "DAYAHEAD_SAMPLE_CSV",
    "FORECAST_MODELS",
    "forecast_model_by_name",
    "hourly_truth",
    "LookaheadPlanner",
]
