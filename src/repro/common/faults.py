"""Deterministic fault injection for failure-path testing.

The engine's failure handling (worker crashes, hung units, corrupt
artifacts) is only trustworthy if it can be exercised on demand.  This
module turns the ``REPRO_FAULT`` environment variable into reproducible
faults fired from well-defined points inside the run path, which reach
it through :func:`repro.common.artifacts.requested_faults`, so it loads
only when the variable is set:

    REPRO_FAULT=kill:<unit>[:N]                # exit the worker process abruptly
    REPRO_FAULT=hang:<unit>[:N]                # stall inside the unit (SIGALRM-interruptible)
    REPRO_FAULT=hang-hard:<unit>[:N]           # stall with SIGALRM blocked (backstop test)
    REPRO_FAULT=raise:<unit>[:N]               # raise FaultInjected from the unit
    REPRO_FAULT=corrupt-program:<workload>[:N] # treat the stored program pickle as corrupt

Multiple directives are comma-separated.  A *unit token* matches a batch
work unit by spec label (``kill:udp``), ``workload/label``
(``kill:gcc/udp``), or — for sampled specs — ``label#interval``
(``raise:udp#3``).

``kill``, ``hang``, and ``hang-hard`` are honored **only inside pool
worker processes** (:func:`mark_worker` is installed as the pool
initializer); firing them in the batch parent would take down the whole
run, which is never what a fault test wants.  ``raise`` and
``corrupt-program`` fire in any process, so the serial execution path is
testable too.

The optional ``:N`` suffix caps how many times a directive fires
*globally across all processes*: each firing atomically claims a marker
file under ``REPRO_FAULT_DIR`` (default ``<cache_root>/faults``), so
"fail exactly once, then succeed on retry" is deterministic even when the
retried unit lands on a different worker.  Without the suffix the
directive fires every time it matches (a permanent fault).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.common.artifacts import FAULT_ENV, cache_root

FAULT_DIR_ENV = "REPRO_FAULT_DIR"
HANG_SECONDS_ENV = "REPRO_FAULT_HANG_SECONDS"

KILL_EXIT_CODE = 117  # distinctive, so a fault kill is recognizable in logs

_KINDS = (
    "kill",
    "hang",
    "hang-hard",
    "raise",
    "corrupt-program",
)

# Set by mark_worker() (the pool initializer) in each worker process.
_IN_WORKER = False


class FaultInjected(RuntimeError):
    """The exception a ``raise:<unit>`` directive throws from inside a unit."""


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULT`` directive."""


@dataclass(frozen=True)
class FaultDirective:
    """One parsed ``kind:token[:limit]`` directive from ``REPRO_FAULT``."""

    kind: str
    token: str
    limit: int | None  # None = unlimited firings
    ordinal: int  # position in the env list, disambiguates duplicates

    @property
    def raw(self) -> str:
        budget = "" if self.limit is None else f":{self.limit}"
        return f"{self.kind}:{self.token}{budget}"


def mark_worker() -> None:
    """Flag this process as a pool worker (installed as pool initializer)."""
    global _IN_WORKER
    _IN_WORKER = True


def active() -> bool:
    """Cheap guard: is any fault directive configured at all?"""
    return bool(os.environ.get(FAULT_ENV, "").strip())


def parse_faults(value: str | None = None) -> list[FaultDirective]:
    """Parse ``REPRO_FAULT`` (or an explicit string) into directives.

    Raises :class:`FaultSpecError` on an unknown kind or a malformed
    budget — a typo in a fault test must fail loudly, not silently
    disable the fault and let a vacuous test pass.
    """
    if value is None:
        value = os.environ.get(FAULT_ENV, "")
    directives: list[FaultDirective] = []
    for ordinal, chunk in enumerate(
        part.strip() for part in value.split(",") if part.strip()
    ):
        pieces = chunk.split(":")
        if len(pieces) < 2 or not pieces[0] or not pieces[1]:
            raise FaultSpecError(
                f"malformed fault directive {chunk!r}; expected kind:token[:N]"
            )
        kind = pieces[0]
        if kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; expected one of {', '.join(_KINDS)}"
            )
        limit: int | None = None
        if len(pieces) == 3:
            try:
                limit = int(pieces[2])
            except ValueError:
                raise FaultSpecError(
                    f"bad fault budget in {chunk!r}; the :N suffix must be an integer"
                ) from None
            if limit < 1:
                raise FaultSpecError(f"fault budget must be >= 1 in {chunk!r}")
        elif len(pieces) > 3:
            raise FaultSpecError(
                f"malformed fault directive {chunk!r}; expected kind:token[:N]"
            )
        directives.append(FaultDirective(kind, pieces[1], limit, ordinal))
    return directives


def _fault_dir() -> Path:
    override = os.environ.get(FAULT_DIR_ENV, "").strip()
    if override:
        return Path(override)
    return cache_root() / "faults"


def _claim(directive: FaultDirective) -> bool:
    """Atomically claim one firing of a budgeted directive.

    Unlimited directives always fire.  Budgeted ones race ``O_EXCL``
    marker-file creation under the fault dir, which is atomic across
    processes on one filesystem — exactly N claims succeed globally.
    """
    if directive.limit is None:
        return True
    root = _fault_dir()
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    slug = f"{directive.ordinal}-{directive.kind}-{directive.token}".replace(
        os.sep, "_"
    )
    for firing in range(directive.limit):
        try:
            fd = os.open(root / f"{slug}.{firing}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return False
        os.close(fd)
        return True
    return False


def _hang(block_alarm: bool) -> None:
    """Stall for up to ``REPRO_FAULT_HANG_SECONDS`` (default 60).

    The plain ``hang`` sleeps interruptibly, so a worker-side SIGALRM
    unit timeout cuts it short; ``hang-hard`` blocks SIGALRM first to
    emulate a worker stuck in uninterruptible code, which only the
    engine's parent-side backstop (terminate + pool rebuild) can clear.
    """
    if block_alarm and hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        ceiling = float(os.environ.get(HANG_SECONDS_ENV, "") or 60.0)
    except ValueError:
        ceiling = 60.0
    deadline = time.monotonic() + ceiling
    while time.monotonic() < deadline:
        time.sleep(0.05)


def fire_unit_faults(tokens: list[str]) -> None:
    """Fire any ``kill``/``hang``/``raise`` directive matching a unit token.

    Called at the top of every work-unit execution.  ``kill`` and the
    hangs are suppressed outside pool workers (see module docstring);
    ``raise`` fires anywhere so serial-path failure handling is testable.
    """
    if not active():
        return
    token_set = set(tokens)
    for directive in parse_faults():
        if directive.token not in token_set:
            continue
        if directive.kind == "raise":
            if _claim(directive):
                raise FaultInjected(f"injected fault: {directive.raw}")
        elif directive.kind == "kill":
            if _IN_WORKER and _claim(directive):
                os._exit(KILL_EXIT_CODE)
        elif directive.kind in ("hang", "hang-hard"):
            if _IN_WORKER and _claim(directive):
                _hang(block_alarm=directive.kind == "hang-hard")


def corrupt_artifact(kind: str, token: str) -> bool:
    """True when a ``kind`` directive (``"corrupt-program"``) whose token
    is ``token`` (the workload name) claims this artifact read.

    The program store calls this after a successful read and substitutes
    garbage bytes on a hit, driving its corrupt-blob fallback end-to-end.
    """
    if not active():
        return False
    for directive in parse_faults():
        if directive.kind == kind and directive.token == token and _claim(directive):
            return True
    return False
