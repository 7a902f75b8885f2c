"""UDP: the utility-driven prefetch gate (Section IV-B).

Wiring (see Fig 10 of the paper):

* While the :class:`~repro.core.confidence.ConfidenceEstimator` believes the
  frontend is on-path, FDIP emits unconditionally (on-path candidates are
  always useful).
* While assumed off-path, every candidate is (a) recorded in the
  :class:`~repro.core.seniority.SeniorityFTQ` for utility learning and
  (b) emitted **only** if the useful-set knows it; a super-block hit may
  license 2 or 4 lines at once.
* At retirement, instructions whose line matches a Seniority-FTQ entry
  promote that candidate into the useful-set.
* Prefetch outcomes (useful hit / useless eviction) feed the useful-set's
  flush policy.

Total storage: 16k + 1k + 1k bits of Bloom filters (2.25 KB) plus the
Seniority-FTQ and counters — the paper's 8 KB budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.addr import line_of
from repro.common.config import UDPConfig
from repro.common.counters import Counters
from repro.core.confidence import ConfidenceEstimator
from repro.core.seniority import SeniorityFTQ
from repro.core.useful_set import UsefulSet

if TYPE_CHECKING:
    from repro.frontend.fetch_block import FTQEntry


class UDPFilter:
    """The complete UDP mechanism: estimator + useful-set + Seniority-FTQ.

    ``code_lines`` bound the useful-set's exact set (:class:`UsefulSet`).
    """

    def __init__(
        self,
        config: UDPConfig,
        counters: Counters | None = None,
        code_lines: range | None = None,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self.estimator = ConfidenceEstimator(config, self.counters)
        self.useful_set = UsefulSet(config, self.counters, code_lines)
        self.seniority = SeniorityFTQ(config.seniority_entries)

    # -- FDIP gate (PrefetchGate protocol) ------------------------------------

    def evaluate(self, line_addr: int, entry: FTQEntry) -> list[int]:
        """Admission decision for one prefetch candidate."""
        if not entry.assumed_off_path:
            self.counters.bump("udp_pass_on_path")
            return [line_addr]
        if self.config.use_seniority:
            self.seniority.insert(line_addr)
        lines = self.useful_set.query(line_addr)
        if lines:
            self.counters.bump("udp_emit_off_path")
            if len(lines) > 1:
                self.counters.bump("udp_superline_emits")
            return lines
        self.counters.bump("udp_drop_off_path")
        return []

    # -- training hooks ----------------------------------------------------------

    def on_retire(self, pc: int) -> None:
        """Backend retirement: prove pending candidates useful."""
        if not self.config.use_seniority:
            return
        line_addr = line_of(pc)
        if self.seniority.match(line_addr):
            self.useful_set.insert(line_addr)
            self.counters.bump("udp_learned_useful")

    def on_demand_hit_off_path_prefetch(self, line_addr: int) -> None:
        """The paper's populate rule: an on-path demand load hit a prefetch
        that was emitted under the off-path assumption — learn it.

        This complements the Seniority-FTQ (which catches candidates whose
        demand comes *after* they aged out of the fill path); with
        ``use_seniority=False`` it is the only learning channel (ablation).
        """
        self.useful_set.insert(line_addr)
        self.counters.bump("udp_learned_useful_direct")

    def on_prefetch_outcome(self, useful: bool) -> None:
        """Feed the useful-set flush policy."""
        self.useful_set.on_prefetch_outcome(useful)

    # -- frontend path-estimator passthrough ----------------------------------

    @property
    def path_estimator(self) -> ConfidenceEstimator:
        return self.estimator
