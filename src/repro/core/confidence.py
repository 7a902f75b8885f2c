"""UDP's off-path estimator: the TAGE-confidence counter (Section IV-B).

For each branch the decoupled frontend predicts, the TAGE confidence class
bumps a counter (+2 low, +1 medium, +0 high).  Once the accumulated
uncertainty exceeds a threshold, UDP *assumes* the frontend is off-path and
starts gating prefetches through the useful-set.  The counter resets on
every branch recovery / BTB resteer.  Additionally, a taken prediction for
a PC the BTB does not know immediately flags off-path.

This is a belief, not ground truth — the simulator tracks both, and the
estimator's confusion matrix (assumed vs. actual path) is exported for
analysis.
"""

from __future__ import annotations

from repro.branch.compiled import CONF_HIGH, CONF_LOW, CONF_MEDIUM
from repro.common.config import UDPConfig
from repro.common.counters import Counters


class ConfidenceEstimator:
    """Implements the frontend's :class:`~repro.frontend.bpu.PathEstimator`."""

    def __init__(self, config: UDPConfig, counters: Counters | None = None) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self.counter = 0
        self._forced_off_path = False
        self._increments = {
            CONF_LOW: config.low_increment,
            CONF_MEDIUM: config.medium_increment,
            CONF_HIGH: config.high_increment,
        }

    @property
    def assumed_off_path(self) -> bool:
        """UDP's current belief that the frontend has left the true path."""
        return self._forced_off_path or self.counter > self.config.confidence_threshold

    def on_confidence(self, confidence: int) -> None:
        """Accumulate uncertainty from one TAGE prediction."""
        self.counter += self._increments.get(confidence, self.config.low_increment)
        self.counters.bump(f"udp_conf_{confidence}")

    def on_btb_miss_predicted_taken(self) -> None:
        """A taken prediction with no BTB target: assume off-path immediately."""
        self._forced_off_path = True
        self.counters.bump("udp_forced_off_path")

    def reset(self) -> None:
        """Branch recovery or BTB resteer: back on the known-good path."""
        self.counter = 0
        self._forced_off_path = False
