"""Carbon-intensity forecasting: models, lookahead planning, regret.

Where :mod:`repro.charging` and :mod:`repro.fleet.dispatch` react to the
*previous* day's intensity distribution (the paper's percentile heuristic),
this package looks forward:

* :mod:`repro.forecast.models` — :class:`ForecastModel` and the bundled
  perfect / persistence / noisy-oracle / CSV-ingested forecasters, each
  producing an hourly lookahead intensity window (the first three from a
  site's :class:`~repro.grid.traces.GridTrace`, :class:`CsvForecast` from
  a measured day-ahead export);
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
    "LookaheadPlanner",
]
