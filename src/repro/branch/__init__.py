"""Branch prediction substrate: TAGE, BTB, indirect target buffer, RAS.

The public names resolve on first use (``repro._lazy``): a compiled run
loads the branch unit and the driver's arrays (``repro.branch.compiled``),
never the object predictors.
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.branch.bimodal", ("BimodalPredictor",)),
    ("repro.branch.btb", ("BranchTargetBuffer", "BTBEntry", "IndirectTargetBuffer")),
    ("repro.branch.history", ("FoldedHistory", "GlobalHistory")),
    ("repro.branch.ras", ("ReturnAddressStack",)),
    ("repro.branch.compiled", ("CONF_HIGH", "CONF_LOW", "CONF_MEDIUM", "CONFIDENCE_NAMES")),
    ("repro.branch.tage", ("TagePrediction", "TagePredictor")),
    ("repro.branch.unit", ("BranchPredictionUnit", "btb_from_config", "ibtb_from_config")),
    ("repro.branch.loop_predictor", ("LoopPredictor",)),
    ("repro.branch.two_level_btb", ("TwoLevelBTB",)),
)
