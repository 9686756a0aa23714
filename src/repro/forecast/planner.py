"""Lookahead charge/discharge planning over a carbon-intensity forecast.

Where :class:`~repro.fleet.dispatch.CarbonBufferDispatch` reacts to the
*previous* day's intensity distribution, the :class:`LookaheadPlanner` plans
against a forecast of the window it is about to live through: rank the
window's hours by forecast intensity, serve device load from the batteries
at the dirtiest hours first, and fund that discharge by charging at the
cleanest hours — greedily, under the pack's state-of-charge and charge-rate
limits.  The planner emits *setpoints* (one dispatch mode per hour); the
:class:`~repro.fleet.dispatch.EnergyLedger` still enforces the real physics
at execution time (SoC floor/ceiling, idle-scaled charge rate), so an
optimistic plan degrades gracefully instead of cheating the accounting.

Fed a :class:`~repro.forecast.models.PerfectForecast` window, the same
planner plans on the *true* trace — the hindsight-optimal plan within the
planner family, which is what the regret accounting (realised vs hindsight
carbon avoided, :meth:`~repro.fleet.scheduler.FleetSimulation.replay_avoided_g`)
measures against, so a perfect-forecast run's regret is zero by
construction.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.fleet.dispatch import (
    DISPATCH_CHARGE,
    DISPATCH_DISCHARGE,
    DISPATCH_HOLD,
)


class LookaheadPlanner:
    """Greedy rank-by-forecast-intensity charge/discharge setpoint planner.

    Parameters
    ----------
    min_state_of_charge:
        The SoC floor the plan budgets discharge against (the same floor the
        executing ledger enforces).
    """

    def __init__(self, min_state_of_charge: float = 0.25) -> None:
        if not 0.0 <= min_state_of_charge < 1.0:
            raise ValueError("min state of charge must be within [0, 1)")
        self.min_state_of_charge = min_state_of_charge

    def plan_window(
        self,
        forecast: np.ndarray,
        demand_j: np.ndarray,
        capacity_j: float,
        charge_step_j: float,
        state_of_charge: float,
    ) -> np.ndarray:
        """Plan one window of hourly dispatch setpoints.

        ``forecast`` is the ``(H,)`` intensity forecast for the window;
        ``demand_j`` the ``(H,)`` estimated device energy (J) each hour must
        deliver; ``capacity_j`` the pack's usable capacity (J);
        ``charge_step_j`` the estimated energy (J) one charging hour adds to
        the pack; ``state_of_charge`` the SoC fraction at window start.
        Returns an ``(H,)`` int8 array of ``DISPATCH_*`` modes.

        Greedy allocation: walk the hours from dirtiest to cleanest.  Each
        dirty hour is served from the pack if the energy budget (initial SoC
        above the floor, plus charging planned so far) covers it; when the
        budget runs short, the cleanest still-unclaimed hours are marked as
        charge hours to fund it — but only while they are strictly cleaner
        than the hour they fund.  Once no profitable funding remains and the
        budget is spent, every remaining (cleaner) hour holds.
        """
        forecast = np.asarray(forecast, dtype=float)
        demand = np.asarray(demand_j, dtype=float)
        if forecast.ndim != 1:
            raise ValueError("forecast must be one-dimensional")
        if demand.shape != forecast.shape:
            raise ValueError(
                f"demand shape {demand.shape} does not match forecast "
                f"shape {forecast.shape}"
            )
        if not np.all(np.isfinite(forecast)):
            raise ValueError("forecast intensities must be finite")
        if np.any(demand < 0):
            raise ValueError("demand energy must be non-negative")

        modes = np.full(len(forecast), DISPATCH_HOLD, dtype=np.int8)
        if capacity_j <= 0 or charge_step_j < 0:
            return modes

        budget_j = max(0.0, state_of_charge - self.min_state_of_charge) * capacity_j
        # Stable sorts keep ties in hour order, so plans are deterministic.
        dirty_first = np.argsort(-forecast, kind="stable")
        clean_first = deque(int(h) for h in np.argsort(forecast, kind="stable"))

        for d in (int(h) for h in dirty_first):
            if demand[d] <= 0:
                continue
            while budget_j < demand[d] and clean_first:
                c = clean_first[0]
                if forecast[c] >= forecast[d]:
                    break  # no hour cleaner than this discharge remains
                clean_first.popleft()
                if c == d or modes[c] != DISPATCH_HOLD:
                    continue
                modes[c] = DISPATCH_CHARGE
                budget_j += charge_step_j
            if budget_j <= 0:
                break  # the remaining hours are cleaner and equally unfunded
            if modes[d] != DISPATCH_HOLD:
                continue
            modes[d] = DISPATCH_DISCHARGE
            budget_j -= min(budget_j, demand[d])
        return modes

    def project_state_of_charge(
        self,
        modes: np.ndarray,
        demand_j: np.ndarray,
        capacity_j: float,
        charge_step_j: float,
        state_of_charge: float,
    ) -> float:
        """The SoC the plan is expected to end at, under the plan's estimates.

        Mirrors the ledger arithmetic (charge to the ceiling, discharge to
        the floor) on the planner's own demand/charge estimates; used to seed
        the next refresh window's plan without waiting for execution.
        """
        soc = float(state_of_charge)
        if capacity_j <= 0:
            return soc
        for mode, need_j in zip(np.asarray(modes), np.asarray(demand_j, dtype=float)):
            if mode == DISPATCH_CHARGE:
                soc = min(1.0, soc + charge_step_j / capacity_j)
            elif mode == DISPATCH_DISCHARGE:
                available = max(0.0, soc - self.min_state_of_charge) * capacity_j
                soc -= min(need_j, available) / capacity_j
        return soc
