"""Profile-guided software instruction prefetching (I-Spy-style comparator).

The paper's related work contrasts UDP with profile-guided software
schemes (I-Spy, Twig): they reach high accuracy because an offline profile
sees the whole execution, but they need profiling runs, recompilation, and
cannot adapt to dynamic behaviour.

This module reproduces that trade-off honestly:

* :func:`profile_instruction_misses` performs the offline profiling pass —
  a functional L1I simulation over the ground-truth trace that records, for
  every miss, a *trigger* line observed ``prefetch_distance`` lines earlier
  (where an inserted software-prefetch instruction would live).
* :class:`ProfileGuidedPrefetcher` is the "recompiled binary": unbounded
  metadata (it is software), firing prefetches whenever a trigger line is
  fetched.

Because the profile is collected on the true path, the scheme never
prefetches wrong-path junk — but it also only covers misses the profiling
run saw (the adaptivity limitation the paper calls out).
"""

from __future__ import annotations

from collections import deque

from repro.common.config import CacheConfig
from repro.memory.cache import SetAssocCache
from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
from repro.prefetchers.registry import SWProfileParams
from repro.workloads.oracle import OracleCursor
from repro.workloads.program import Program
from repro.workloads.tables import program_cache


def profile_instruction_misses(
    program: Program,
    num_blocks: int = 20_000,
    l1i: CacheConfig | None = None,
    prefetch_distance: int = 12,
    max_targets_per_trigger: int = 4,
) -> dict[int, list[int]]:
    """The offline profiling pass: trigger line -> miss lines it should cover.

    Simulates only L1I contents (no timing) along the true path; every miss
    is attributed to the line fetched ``prefetch_distance`` distinct lines
    earlier — far enough upstream that a software prefetch issued there
    hides the fill latency.
    """
    cache = SetAssocCache(l1i if l1i is not None else CacheConfig("L1I", 32 * 1024, 8))
    cursor = OracleCursor(program)
    recent: deque[int] = deque(maxlen=prefetch_distance + 1)
    profile: dict[int, list[int]] = {}
    for _ in range(num_blocks):
        transition = cursor.step()
        block = transition.block
        for line_addr in range(block.addr & ~63, block.end_addr, 64):
            if not recent or recent[-1] != line_addr:
                recent.append(line_addr)
            if cache.lookup(line_addr) is not None:
                continue
            cache.install(line_addr)
            if len(recent) <= prefetch_distance:
                continue
            trigger = recent[0]
            if trigger == line_addr:
                continue
            targets = profile.setdefault(trigger, [])
            if line_addr not in targets:
                if len(targets) >= max_targets_per_trigger:
                    targets.pop(0)
                targets.append(line_addr)
    return profile


class ProfileGuidedPrefetcher(InstructionPrefetcher):
    """The deployed profile: fires on demand fetches of trigger lines."""

    name = "sw-profile"

    def __init__(self, profile: dict[int, list[int]]) -> None:
        self.profile = profile
        self.triggered = 0

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        targets = self.profile.get(line_addr)
        if not targets:
            return []
        self.triggered += len(targets)
        return list(targets)

    def storage_bytes(self) -> int:
        """Software metadata footprint (lives in the binary, not SRAM)."""
        return sum(4 + 4 * len(t) for t in self.profile.values())

    @property
    def num_triggers(self) -> int:
        return len(self.profile)


def build_for_program(
    program: Program, num_blocks: int = 20_000, **profile_kwargs
) -> ProfileGuidedPrefetcher:
    """Profile + deploy in one step."""
    profile = profile_instruction_misses(program, num_blocks, **profile_kwargs)
    return ProfileGuidedPrefetcher(profile)


def build_sw_profile(
    params: SWProfileParams, program: Program, hooks: FrontendHooks
) -> ProfileGuidedPrefetcher:
    """Registry factory: deploy the offline profile of ``program``.

    The profile pass runs once per process, program and ``params``: it is
    memoized in the program's per-process memo, and every simulator of the
    program (a sampled spec builds one per interval) deploys the same dict,
    which the prefetcher only reads.
    """
    cache = program_cache(program)
    key = ("sw_profile", params)
    profile = cache.get(key)
    if profile is None:
        profile = cache[key] = profile_instruction_misses(
            program,
            params.profile_blocks,
            prefetch_distance=params.prefetch_distance,
            max_targets_per_trigger=params.max_targets_per_trigger,
        )
    return ProfileGuidedPrefetcher(profile)
