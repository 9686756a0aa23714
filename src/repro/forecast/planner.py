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

The planner works on a batch: one ``(P, H)`` call plans ``P`` packs'
windows at once, each row on its own forecast, demand, capacity, charge
step and SoC.  The greedy walk runs over the dirty ranks with every pack in
step, and each pack funds its discharge from its own clean-first order under
masks.  Every element sees the same float operations, in the same order, as
the one-pack greedy walk, so a row's plan and projected SoC are bit for bit
those of the same pack planned alone.
:class:`~repro.fleet.dispatch.ForecastDispatch` plans every battery-backed,
non-empty pack of a day in one such call per refresh.  Its forecast rows
come from one batched
:meth:`~repro.forecast.models.ForecastModel.windows` call per refresh, one
window per distinct site and start hour, which every pack at that site
plans against.

Fed :class:`~repro.forecast.models.PerfectForecast` windows (gathers from
the run's true hourly table), the same planner plans on the *true* trace —
the hindsight-optimal plan within the planner family, which is what the
regret accounting (realised vs hindsight carbon avoided,
:meth:`~repro.fleet.scheduler.FleetSimulation.replay_avoided_g`) measures
against, so a perfect-forecast run's regret is zero by construction.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.dispatch import (
    DISPATCH_CHARGE,
    DISPATCH_DISCHARGE,
    DISPATCH_HOLD,
)


class LookaheadPlanner:
    """Greedy rank-by-forecast-intensity charge/discharge setpoint planner.

    Both methods take a batch of packs: ``(P, H)`` forecasts, demands and
    modes, and ``(P,)`` capacities, charge steps and SoCs.  Rows never
    interact, so a pack's plan does not depend on which other packs share
    its call.

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
        capacity_j: np.ndarray,
        charge_step_j: np.ndarray,
        state_of_charge: np.ndarray,
    ) -> np.ndarray:
        """Plan one window of hourly dispatch setpoints for each of ``P`` packs.

        ``forecast`` is the ``(P, H)`` intensity forecast for each pack's
        window; ``demand_j`` the ``(P, H)`` estimated device energy (J)
        each hour must deliver; ``capacity_j`` each pack's usable capacity
        (J); ``charge_step_j`` the estimated energy (J) one charging hour
        adds to it; ``state_of_charge`` its SoC fraction at window start
        (all three ``(P,)``).  Returns a ``(P, H)`` int8 array of
        ``DISPATCH_*`` modes.

        Greedy allocation, per pack: walk the hours from dirtiest to
        cleanest.  Each dirty hour is served from the pack if the energy
        budget (initial SoC above the floor, plus charging planned so far)
        covers it; when the budget runs short, the cleanest still-unclaimed
        hours are marked as charge hours to fund it — but only while they
        are strictly cleaner than the hour they fund.  Once no profitable
        funding remains and the budget is spent, every remaining (cleaner)
        hour holds.  A pack with no capacity or a negative charge step holds
        throughout.
        """
        forecast = np.asarray(forecast, dtype=float)
        demand = np.asarray(demand_j, dtype=float)
        if forecast.ndim != 2:
            raise ValueError("forecast must be a two-dimensional (packs, hours) array")
        if demand.shape != forecast.shape:
            raise ValueError(
                f"demand shape {demand.shape} does not match forecast "
                f"shape {forecast.shape}"
            )
        n_packs, n_hours = forecast.shape
        capacity_j, charge_step_j, state_of_charge = self._pack_vectors(
            n_packs, capacity_j, charge_step_j, state_of_charge
        )
        if not np.all(np.isfinite(forecast)):
            raise ValueError("forecast intensities must be finite")
        if not np.all(demand >= 0):
            raise ValueError("demand energy must be non-negative")

        modes = np.full(forecast.shape, DISPATCH_HOLD, dtype=np.int8)
        planning = ~((capacity_j <= 0) | (charge_step_j < 0))
        budget_j = np.maximum(state_of_charge - self.min_state_of_charge, 0.0) * capacity_j
        # Stable sorts keep ties in hour order, so plans are deterministic.
        dirty_first = np.argsort(-forecast, axis=1, kind="stable")
        clean_first = np.argsort(forecast, axis=1, kind="stable")
        dirty_need_j = np.take_along_axis(demand, dirty_first, axis=1)
        dirty_g = np.take_along_axis(forecast, dirty_first, axis=1)
        clean_g = np.take_along_axis(forecast, clean_first, axis=1)
        # Each pack's next unclaimed position in its own clean-first order.
        clean_next = np.zeros(n_packs, dtype=np.int64)
        rows = np.arange(n_packs)

        for rank in range(n_hours):
            if not planning.any():
                break
            dirty = dirty_first[:, rank]
            need_j = dirty_need_j[:, rank]
            serving = planning & (need_j > 0)

            # Fund the dirty hour from the cleanest hours strictly cleaner
            # than it, one clean-first position per pass for every pack
            # still short.
            funding = np.flatnonzero(
                serving & (budget_j < need_j) & (clean_next < n_hours)
            )
            while funding.size:
                position = clean_next[funding]
                cleaner = clean_g[funding, position] < dirty_g[funding, rank]
                funding, position = funding[cleaner], position[cleaner]
                clean_next[funding] = position + 1
                # A strictly cleaner hour is never the dirty hour itself.
                clean = clean_first[funding, position]
                claim = modes[funding, clean] == DISPATCH_HOLD
                charging = funding[claim]
                modes[charging, clean[claim]] = DISPATCH_CHARGE
                budget_j[charging] += charge_step_j[charging]
                funding = funding[
                    (budget_j[funding] < need_j[funding]) & (position + 1 < n_hours)
                ]

            # A spent budget ends the pack's walk: the remaining hours are
            # cleaner and equally unfunded.
            spent = serving & (budget_j <= 0)
            planning &= ~spent
            discharging = np.flatnonzero(
                serving & ~spent & (modes[rows, dirty] == DISPATCH_HOLD)
            )
            modes[discharging, dirty[discharging]] = DISPATCH_DISCHARGE
            budget = budget_j[discharging]
            # ``np.minimum(need, budget)`` returns ``budget`` on a tie, as the
            # scalar ``min(budget, need)`` does.
            budget_j[discharging] = budget - np.minimum(need_j[discharging], budget)
        return modes

    def project_state_of_charge(
        self,
        modes: np.ndarray,
        demand_j: np.ndarray,
        capacity_j: np.ndarray,
        charge_step_j: np.ndarray,
        state_of_charge: np.ndarray,
    ) -> np.ndarray:
        """The ``(P,)`` SoCs the packs' plans are expected to end at.

        ``modes`` and ``demand_j`` are ``(P, T)``; the other inputs are
        ``(P,)`` as for :meth:`plan_window`.  Mirrors the ledger arithmetic
        (charge to the ceiling, discharge to the floor) on the planner's own
        demand/charge estimates, hour by hour with every pack in step; used
        to seed the next refresh window's plan without waiting for
        execution.  Hold hours, and packs with no capacity, leave the SoC
        as it is.
        """
        modes = np.asarray(modes)
        demand = np.asarray(demand_j, dtype=float)
        if modes.ndim != 2 or demand.shape != modes.shape:
            raise ValueError(
                f"modes {modes.shape} and demand {demand.shape} must be one "
                "(packs, hours) shape"
            )
        capacity_j, charge_step_j, soc = self._pack_vectors(
            modes.shape[0], capacity_j, charge_step_j, state_of_charge
        )
        has_capacity = capacity_j > 0
        charging = has_capacity[:, None] & (modes == DISPATCH_CHARGE)
        discharging = has_capacity[:, None] & (modes == DISPATCH_DISCHARGE)
        # ``np.minimum(a, b)`` and ``np.maximum(a, b)`` return ``b`` on a
        # tie: the operands are ordered to match the scalar ``min(1.0, x)``,
        # ``max(0.0, x)`` and ``min(need, available)`` of one pack.
        with np.errstate(divide="ignore", invalid="ignore"):
            step_soc = charge_step_j / capacity_j
            for hour in range(modes.shape[1]):
                charged = np.minimum(soc + step_soc, 1.0)
                available = (
                    np.maximum(soc - self.min_state_of_charge, 0.0) * capacity_j
                )
                discharged = soc - np.minimum(available, demand[:, hour]) / capacity_j
                soc = np.where(
                    charging[:, hour],
                    charged,
                    np.where(discharging[:, hour], discharged, soc),
                )
        return soc

    @staticmethod
    def _pack_vectors(n_packs, *values):
        """``values`` as float ``(n_packs,)`` arrays, or a shape error."""
        vectors = tuple(np.asarray(value, dtype=float) for value in values)
        for vector in vectors:
            if vector.shape != (n_packs,):
                raise ValueError(
                    f"per-pack inputs must have shape ({n_packs},), got {vector.shape}"
                )
        return vectors
