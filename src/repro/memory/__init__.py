"""Memory hierarchy substrate: caches, MSHRs, stream prefetcher, uncore.

The public names resolve on first use (``repro._lazy``): a compiled run
loads the driver's arrays (``repro.memory.compiled``), never the object
caches.
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.memory.cache", ("CacheLine", "SetAssocCache")),
    ("repro.memory.hierarchy", ("MemoryHierarchy",)),
    ("repro.memory.mshr", ("MSHREntry", "MSHRFile")),
    ("repro.memory.stream", ("StreamPrefetcher",)),
)
