"""Stand-alone instruction prefetchers used as comparators.

The public names resolve on first use (``repro._lazy``).
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.prefetchers.base", ("InstructionPrefetcher", "NullPrefetcher")),
    ("repro.prefetchers.eip", ("EntangledInstructionPrefetcher",)),
    ("repro.prefetchers.next_line", ("NextLinePrefetcher",)),
    ("repro.prefetchers.swprefetch", (
        "ProfileGuidedPrefetcher",
        "build_for_program",
        "profile_instruction_misses",
    )),
)
