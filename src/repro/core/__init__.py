"""The paper's contributions: UDP prefetch gating and UFTQ dynamic sizing.

The public names resolve on first use (``repro._lazy``): UFTQ's controller
loads only where a simulator runs it.
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.core.bloom", ("BloomFilter", "capacity_for_fpr", "optimal_num_hashes")),
    ("repro.core.confidence", ("ConfidenceEstimator",)),
    ("repro.core.seniority", ("SeniorityFTQ",)),
    ("repro.core.superline", ("CoalescingBuffer", "superline_base", "superline_lines")),
    ("repro.core.udp", ("UDPFilter",)),
    ("repro.core.uftq", ("PAPER_REGRESSION", "UFTQController", "regression_depth")),
    ("repro.core.useful_set", ("UsefulSet",)),
)
