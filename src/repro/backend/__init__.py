"""Backend core: dispatch/issue/retire window with branch resolution timing.

The public names resolve on first use (``repro._lazy``).
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.backend.core", ("OP_BRANCH",)),
    ("repro.backend.window", ("BackendCore", "MicroOp")),
)
