"""Decoupled frontend: FTQ, run-ahead walker, FDIP prefetch engine.

The public names resolve on first use (``repro._lazy``): a compiled run
loads the scalars the cycle driver syncs (``repro.frontend.compiled``),
never the object frontend.
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.frontend.bpu", ("DecoupledFrontend", "PathEstimator")),
    ("repro.frontend.fdip", ("FDIPEngine", "PrefetchGate")),
    ("repro.frontend.fetch_block", (
        "RESTEER_AT_DECODE",
        "RESTEER_AT_EXECUTE",
        "FTQEntry",
        "PendingResteer",
        "SeenBranch",
    )),
    ("repro.frontend.ftq", ("FetchTargetQueue",)),
)
