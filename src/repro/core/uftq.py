"""UFTQ: application-specific dynamic FTQ sizing (Section IV-A).

Three controllers over the logical FTQ depth:

* **UFTQ-AUR** — measures the *utility ratio* (useful / all prefetch
  outcomes) over 1000-prefetch windows.  Utility above target → the
  frontend can afford to run further ahead (extend); below target → too
  many useless prefetches (shrink).
* **UFTQ-ATR** — measures the *timeliness ratio*
  (icache hits / (icache hits + MSHR hits) on prefetched lines).  Below
  target → prefetches arrive late, run further ahead (extend); above →
  shrink toward the minimal sufficient depth.
* **UFTQ-ATR-AUR** — runs the AUR rule to convergence (yielding ``QD_AUR``),
  then the ATR rule (yielding ``QD_ATR``), then sets the depth with the
  paper's polynomial-regression blend and holds, periodically re-entering
  the search (always-on, to track phase changes).

The single-signal controllers intentionally reproduce the paper's failure
modes (Fig 11): AUR alone stops verilator-like workloads from running ahead;
ATR alone drives xgboost-like workloads far too deep.

The paper's regression (their Scarab fit)::

    FTQ = -0.34·QD_AUR + 0.64·QD_ATR + 0.008·QD_AUR² + 0.01·QD_ATR²
          - 0.008·QD_AUR·QD_ATR

is kept as ``PAPER_REGRESSION`` and is the default; the coefficients are a
``UFTQConfig`` field so a re-fit on this simulator (see
``repro.analysis.regression``) can be substituted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import UFTQConfig
from repro.common.counters import Counters

if TYPE_CHECKING:
    from repro.frontend.compiled import FetchTargetQueueC

PAPER_REGRESSION: tuple[float, float, float, float, float] = (
    -0.34, 0.64, 0.008, 0.01, -0.008
)

PHASE_AUR = "aur"
PHASE_ATR = "atr"
PHASE_HOLD = "hold"

# The compiled cycle driver's event codes for on_event (UFTQ_* in
# repro/common/kernels/driver.c).
EVENT_DEMAND_MISS, EVENT_USEFUL_TIMELY, EVENT_USEFUL_LATE, EVENT_USELESS = range(4)

# Convergence/robustness knobs of the search FSM (not in the paper's text;
# any bounded search works — these keep phases short relative to a run).
_MAX_PHASE_WINDOWS = 6
_HOLD_WINDOWS = 30
_CONVERGENCE_BAND = 0.04


def regression_depth(
    qd_aur: float, qd_atr: float, coeffs: tuple[float, float, float, float, float]
) -> float:
    """Evaluate the FTQ-size regression at (QD_AUR, QD_ATR)."""
    a, b, c, d, e = coeffs
    return (
        a * qd_aur
        + b * qd_atr
        + c * qd_aur * qd_aur
        + d * qd_atr * qd_atr
        + e * qd_aur * qd_atr
    )


class _RatioWindow:
    """Counts positive/total events over fixed-size windows."""

    __slots__ = ("window", "positive", "total")

    def __init__(self, window: int) -> None:
        self.window = window
        self.positive = 0
        self.total = 0

    def observe(self, positive: bool) -> float | None:
        """Record one event; return the ratio when a window completes."""
        self.total += 1
        if positive:
            self.positive += 1
        if self.total < self.window:
            return None
        ratio = self.positive / self.total
        self.positive = 0
        self.total = 0
        return ratio


class UFTQController:
    """Adapts ``ftq.depth`` from runtime AUR/ATR measurements.

    ``ftq`` is either FTQ twin: the depth is all the controller reads and
    sets.
    """

    def __init__(self, config: UFTQConfig, ftq: FetchTargetQueueC,
                 counters: Counters | None = None) -> None:
        config.validate()
        self.config = config
        self.ftq = ftq
        self.counters = counters if counters is not None else Counters()
        self.ftq.depth = config.initial_depth
        window = config.window_prefetches
        self._utility = _RatioWindow(window)
        self._timeliness = _RatioWindow(window)
        # Combined-mode FSM state.
        self.phase = PHASE_AUR if config.mode == "atr-aur" else config.mode
        self.qd_aur: int | None = None
        self.qd_atr: int | None = None
        self._phase_windows = 0
        self._hold_windows = 0
        self._last_direction = 0
        self.adjustments = 0

    # -- event feeds (wired by the simulator) ----------------------------------

    def on_utility_event(self, useful: bool) -> None:
        """A prefetch outcome: useful hit or useless eviction."""
        if self.config.mode == "off":
            return
        ratio = self._utility.observe(useful)
        if ratio is None:
            return
        if self.config.mode == "aur":
            self._adjust(self._aur_direction(ratio))
        elif self.config.mode == "atr-aur":
            self._combined_window(ratio, kind=PHASE_AUR)

    def on_timeliness_event(self, timely: bool) -> None:
        """A demand touch of a prefetched line: icache hit (timely) or MSHR hit."""
        if self.config.mode == "off":
            return
        ratio = self._timeliness.observe(timely)
        if ratio is None:
            return
        if self.config.mode == "atr":
            self._adjust(self._atr_direction(ratio))
        elif self.config.mode == "atr-aur":
            self._combined_window(ratio, kind=PHASE_ATR)

    def on_event(self, event: int) -> int:
        """One event from the compiled cycle driver; returns the FTQ depth.

        The driver calls this where :class:`~repro.sim.simulator.Simulator`
        calls the two feeds above: an on-path demand miss (untimely), a
        useful prefetch (then timely or not) and a useless eviction.
        """
        if event == EVENT_DEMAND_MISS:
            self.on_timeliness_event(False)
        elif event == EVENT_USELESS:
            self.on_utility_event(False)
        else:
            self.on_utility_event(True)
            self.on_timeliness_event(event == EVENT_USEFUL_TIMELY)
        return self.ftq.depth

    # -- adjustment rules -----------------------------------------------------------

    def _aur_direction(self, ratio: float) -> int:
        """High utility → deeper is affordable; low utility → pollution, shrink."""
        return 1 if ratio >= self.config.target_aur else -1

    def _atr_direction(self, ratio: float) -> int:
        """Low timeliness → run further ahead; high timeliness → shrink."""
        return 1 if ratio < self.config.target_atr else -1

    def _adjust(self, direction: int) -> None:
        cfg = self.config
        new_depth = self.ftq.depth + direction * cfg.step
        self.ftq.depth = max(cfg.min_depth, min(cfg.max_depth, new_depth))
        self.adjustments += 1
        self.counters.bump("uftq_adjustments")

    # -- combined-mode FSM ------------------------------------------------------------

    def _combined_window(self, ratio: float, kind: str) -> None:
        if self.phase == PHASE_HOLD:
            if kind == PHASE_AUR:  # count hold time in utility windows
                self._hold_windows += 1
                if self._hold_windows >= _HOLD_WINDOWS:
                    self._enter_phase(PHASE_AUR)
            return
        if kind != self.phase:
            return
        if self.phase == PHASE_AUR:
            direction = self._aur_direction(ratio)
            converged = self._phase_step(ratio, self.config.target_aur, direction)
            if converged:
                self.qd_aur = self.ftq.depth
                self._enter_phase(PHASE_ATR)
        else:  # PHASE_ATR
            direction = self._atr_direction(ratio)
            converged = self._phase_step(ratio, self.config.target_atr, direction)
            if converged:
                self.qd_atr = self.ftq.depth
                self._apply_regression()
                self._enter_phase(PHASE_HOLD)

    def _phase_step(self, ratio: float, target: float, direction: int) -> bool:
        """Adjust once; True when the phase search has converged."""
        self._phase_windows += 1
        in_band = abs(ratio - target) <= _CONVERGENCE_BAND
        flipped = self._last_direction != 0 and direction != self._last_direction
        at_rail = (
            (direction > 0 and self.ftq.depth >= self.config.max_depth)
            or (direction < 0 and self.ftq.depth <= self.config.min_depth)
        )
        if in_band or flipped or at_rail or self._phase_windows >= _MAX_PHASE_WINDOWS:
            return True
        self._adjust(direction)
        self._last_direction = direction
        return False

    def _enter_phase(self, phase: str) -> None:
        self.phase = phase
        self._phase_windows = 0
        self._hold_windows = 0
        self._last_direction = 0
        self.counters.bump(f"uftq_phase_{phase}")

    def _apply_regression(self) -> None:
        assert self.qd_aur is not None and self.qd_atr is not None
        depth = regression_depth(self.qd_aur, self.qd_atr, self.config.regression)
        cfg = self.config
        self.ftq.depth = max(cfg.min_depth, min(cfg.max_depth, int(round(depth))))
        self.counters.bump("uftq_regression_applied")
        self.counters.set("uftq_final_depth", self.ftq.depth)
