"""The process pool behind a pooled batch (:func:`repro.sim.engine.run_batch`).

:func:`run_pool` fans a batch's work units out over a
``concurrent.futures.ProcessPoolExecutor`` and supervises them: retries,
broken-pool recovery and the hung-worker backstop.  Only a pooled batch
imports this module (and, through it, ``multiprocessing``); a serial batch
runs its units in-process and never loads it.  Workers run
:func:`repro.sim.engine._run_unit`, which the pool pickles by reference, so
both paths share one unit entry point.  Every unit is submitted as it
comes: units that share a missing warmup checkpoint may each walk the
warmup and write the same blob (an atomic replace); a compiled walk costs
about what a restore does.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable

from repro.common.artifacts import requested_faults
from repro.sim.engine import RunSpec, _run_unit, _timeout_grace


def _init_worker() -> None:
    """Pool-worker initializer.

    ``gc.freeze()`` moves everything a forked worker inherited from the
    parent into the permanent generation: the worker's collections then
    scan only its own objects instead of the parent's whole heap (which
    also spares copying every inherited page on write).  A short unit in
    a worker forked from a long-running test process spent 0.21 s in
    collections without it and 0.002 s with it (2-vCPU x86-64 host).
    """
    faults = requested_faults()  # a worker inherits the batch's environment
    if faults is not None:
        faults.mark_worker()
    gc.freeze()


def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's worker processes (hung-worker backstop)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass


def run_pool(
    *,
    spec_list: list[RunSpec],
    units: list[int],
    deliver: Callable,
    fail: Callable,
    failure_for: Callable,
    classify: Callable,
    workers: int,
    retries: int,
    unit_timeout: float | None,
    backoff: float,
) -> None:
    """Supervised pool execution of a batch's work units (spec indices).

    Responsibilities beyond plain fan-out:

    * **Retry with backoff** — a unit that raises is rescheduled until its
      ``1 + retries`` attempt budget is spent, then recorded as a permanent
      failure; the units that share its checkpoint key run regardless.
    * **Broken-pool recovery** — a dying worker breaks the whole
      executor, failing *every* in-flight future.  The supervisor
      rebuilds the pool and re-runs the affected units one at a time
      (quarantine): a unit that breaks the pool while running alone is
      the confirmed culprit and consumes an attempt; innocent bystanders
      are re-run free of charge.
    * **Timeout backstop** — with a unit timeout configured, a worker
      that blows well past it (``2x + REPRO_TIMEOUT_GRACE``; a hard hang
      the in-worker ``SIGALRM`` could not interrupt) is terminated from
      the parent, the timeout charged to the overdue unit, and the pool
      rebuilt.
    """
    # Forked workers inherit the parent's modules: load the simulator's
    # once here instead of in every worker's first unit.
    import repro.sim.simulator  # noqa: F401

    waiting: dict = {}
    deadlines: dict = {}
    unit_attempts: dict[int, int] = {}  # failed attempts so far
    pending_submit: deque[int] = deque(units)
    retry_heap: list[tuple[float, int, int]] = []
    quarantine: deque[int] = deque()
    sequence = itertools.count()
    grace = _timeout_grace()

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker
        )

    pool = make_pool()

    def rebuild_pool() -> None:
        nonlocal pool
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken executors may refuse
            pass
        pool = make_pool()

    def submit(unit: int) -> None:
        """Hand a unit to the pool."""
        future = pool.submit(_run_unit, spec_list[unit], unit_timeout)
        waiting[future] = unit
        if unit_timeout is not None:
            deadlines[future] = time.monotonic() + unit_timeout * 2 + grace

    def attempt_failed(
        unit: int, kind: str, message: str, interval: int = -1
    ) -> None:
        """One failed execution: schedule a retry or record the failure."""
        failed_count = unit_attempts.get(unit, 0) + 1
        unit_attempts[unit] = failed_count
        if failed_count <= retries:
            delay = backoff * (2 ** (failed_count - 1)) if backoff > 0 else 0.0
            heapq.heappush(
                retry_heap, (time.monotonic() + delay, next(sequence), unit)
            )
        else:
            fail(failure_for(unit, kind, message, failed_count, interval))

    def settle(unit: int, future) -> bool:
        """Resolve one completed future; True if it broke the pool."""
        try:
            payload = future.result(timeout=30)
        except BrokenExecutor:
            return True
        except CancelledError:
            pending_submit.append(unit)  # engine-initiated, not unit's fault
        except TimeoutError:
            # The manager thread never resolved the future (it should
            # within moments of a break) — treat like a pool casualty.
            return True
        except Exception as exc:  # noqa: BLE001 - classified below
            attempt_failed(unit, *classify(exc))
        else:
            deliver(unit, payload, unit_attempts.pop(unit, 0) + 1)
        return False

    def recover_broken_pool(first_unit: int) -> None:
        """A worker died: quarantine in-flight units and rebuild the pool.

        If the break happened while a quarantined unit ran *alone*, that
        unit is the confirmed culprit: the crash consumes one of its
        attempts, and once the budget is gone it becomes a permanent
        ``"crash"`` failure.  A break during normal parallel operation
        cannot be attributed, so every in-flight unit goes to quarantine
        to be re-run solo — at no cost to their retry budgets.
        """
        casualties = [first_unit]
        for future, unit in list(waiting.items()):
            del waiting[future]
            deadlines.pop(future, None)
            if settle(unit, future):
                casualties.append(unit)
        if quarantine and casualties == [quarantine[0]]:
            culprit = quarantine[0]
            failed_count = unit_attempts.get(culprit, 0) + 1
            unit_attempts[culprit] = failed_count
            if failed_count > retries:
                quarantine.popleft()
                fail(
                    failure_for(
                        culprit,
                        "crash",
                        "worker process died while running this unit",
                        failed_count,
                    )
                )
            # else: the culprit stays at the quarantine front for a solo
            # retry against the rebuilt pool.
        else:
            quarantine.extend(casualties)
        rebuild_pool()

    def enforce_deadlines() -> bool:
        """Terminate hard-hung workers past the parent-side backstop."""
        now = time.monotonic()
        overdue = [f for f, deadline in deadlines.items() if deadline <= now]
        if not overdue:
            return False
        for future in overdue:
            unit = waiting.pop(future)
            deadlines.pop(future)
            if quarantine and quarantine[0] == unit:
                quarantine.popleft()
            attempt_failed(
                unit,
                "timeout",
                f"unit exceeded {unit_timeout:g}s and its worker was "
                "unresponsive (terminated)",
            )
        # The hung workers only die with the whole pool; survivors are
        # drained (their completed results are kept, interrupted ones
        # resubmitted free of charge) and the pool rebuilt.
        _terminate_pool_processes(pool)
        for future, unit in list(waiting.items()):
            del waiting[future]
            deadlines.pop(future, None)
            if settle(unit, future):
                pending_submit.append(unit)
        rebuild_pool()
        return True

    try:
        while True:
            if quarantine:
                # Solo re-runs: exactly one quarantined unit in flight.
                if not waiting:
                    submit(quarantine[0])
            else:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, unit = heapq.heappop(retry_heap)
                    submit(unit)
                while pending_submit and len(waiting) < workers:
                    submit(pending_submit.popleft())
            if not (waiting or pending_submit or retry_heap or quarantine):
                break
            if not waiting:
                if retry_heap and not quarantine:
                    # Nothing in flight; sleep until the next retry is due.
                    time.sleep(
                        max(0.0, min(retry_heap[0][0] - time.monotonic(), 0.5))
                    )
                continue
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            if retry_heap and not quarantine:
                due = max(0.0, retry_heap[0][0] - time.monotonic())
                timeout = due if timeout is None else min(timeout, due)
            done, _ = wait(waiting, timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                enforce_deadlines()  # woke for a deadline or a due retry
                continue
            broke_for: int | None = None
            for future in done:
                unit = waiting.pop(future)
                deadlines.pop(future, None)
                if settle(unit, future):
                    broke_for = unit
                    break
                if quarantine and quarantine[0] == unit:
                    quarantine.popleft()
            if broke_for is not None:
                recover_broken_pool(broke_for)
    finally:
        if waiting:
            # Abnormal exit (fail-fast or an unexpected error): don't leave
            # workers grinding on a batch nobody will collect.
            _terminate_pool_processes(pool)
        pool.shutdown(wait=False, cancel_futures=True)
