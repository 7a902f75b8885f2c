"""Shared plumbing for the on-disk artifact stores.

Two content-addressed artifact classes live under one cache root
(``REPRO_CACHE_DIR``, default ``~/.cache/repro``):

* **results** — serialized ``SimResult`` objects
  (:class:`repro.sim.engine.ResultCache`, ``<root>/<k>/<key>.json``),
* **programs** — synthetic programs' pickled flat columns
  (:class:`repro.workloads.store.ProgramStore`, ``<root>/programs/...``).

This module holds what both share: the root resolution, the package
fingerprint that enters every key, canonical JSON key hashing, atomic
writes, and directory statistics.  It lives in ``repro.common`` because the
stores span layers (workloads and sim) that must not import each other.
So does :func:`requested_faults`, the guard through which the stores and
the engine reach the fault injector (:mod:`repro.common.faults`), which
loads only when ``REPRO_FAULT`` is set.

``REPRO_NO_CHECKPOINT=1`` disables the program store's disk layer —
every process then synthesizes its programs from scratch, exactly as if
the store did not exist (the name dates from the stored warmup
checkpoints, which are gone).  The result cache has its own independent
switch (``REPRO_NO_CACHE``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CHECKPOINT_ENV = "REPRO_NO_CHECKPOINT"
FAULT_ENV = "REPRO_FAULT"

_TRUTHY = ("1", "true", "yes", "on")


def env_truthy(name: str) -> bool:
    """True when the environment variable ``name`` is set to a truthy value.

    All boolean ``REPRO_*`` switches share this parse (``1``/``true``/
    ``yes``/``on``, case-insensitive), so they behave identically.
    """
    return os.environ.get(name, "").strip().lower() in _TRUTHY


def cache_root() -> Path:
    """The active cache directory (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def reuse_disabled() -> bool:
    """True when ``REPRO_NO_CHECKPOINT`` disables the on-disk program store."""
    return env_truthy(NO_CHECKPOINT_ENV)


def requested_faults():
    """The fault injector (:mod:`repro.common.faults`) when ``REPRO_FAULT``
    names a fault, else ``None``, so a run with none never imports it."""
    if not os.environ.get(FAULT_ENV, "").strip():
        return None
    from repro.common import faults

    return faults


# Source files whose edits change simulation results: the Python modules
# and the C kernels under repro/common/kernels.
SOURCE_SUFFIXES = (".py", ".c", ".h")


def _is_source(name: str) -> bool:
    """``name`` has a source suffix, as ``pathlib.PurePath.suffix`` reads it
    (the text from its last dot, not a leading dot, to a non-empty end)."""
    dot = name.rfind(".")
    return 0 < dot < len(name) - 1 and name[dot:] in SOURCE_SUFFIXES


def source_digest(root: str | os.PathLike, salt: str = "") -> str:
    """SHA-256 hex digest of every source file under ``root`` plus ``salt``.

    Covers each file's path relative to ``root`` and its contents, in the
    order of their paths' components.  One ``os.walk`` (which, like
    ``Path.rglob``, does not descend into linked directories) instead of
    pathlib's glob and per-path objects: it runs in every fresh process.
    """
    top = os.fspath(root)
    found = []
    for directory, dirnames, filenames in os.walk(top):
        relative = os.path.relpath(directory, top)
        parts = () if relative == os.curdir else tuple(relative.split(os.sep))
        found.extend((*parts, name) for name in (*dirnames, *filenames) if _is_source(name))
    digest = hashlib.sha256()
    for parts in sorted(found):
        digest.update(os.path.join(*parts).encode())
        try:
            with open(os.path.join(top, *parts), "rb") as fh:
                digest.update(fh.read())
        except OSError:  # pragma: no cover - racing file removal
            continue
    digest.update(salt.encode())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def package_fingerprint() -> str:
    """Hash of every ``repro`` source file plus the package version.

    Included in each artifact key so that editing any simulator module or C
    kernel (or bumping the version) invalidates every stale entry without a
    manual ``repro cache clear``.
    """
    try:
        from repro import __version__ as version
    except ImportError:  # pragma: no cover - partial install
        version = ""
    package = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
    return source_digest(package, version)[:16]


def canonical_key(payload: dict) -> str:
    """SHA-256 over the canonical JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def shard_path(root: Path, key: str, suffix: str) -> Path:
    """The two-level sharded path ``<root>/<key[:2]>/<key><suffix>``."""
    return root / key[:2] / f"{key}{suffix}"


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` atomically (temp file + ``os.replace``).

    Filesystem errors are swallowed: a store write failing must never fail
    the simulation whose result it was caching.
    """
    tmp_name = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


def read_bytes_or_none(path: Path) -> bytes | None:
    """Read a file, treating any filesystem error as a miss."""
    try:
        return path.read_bytes()
    except OSError:
        return None


def dir_stats(root: Path, pattern: str) -> tuple[int, int]:
    """(entry count, total bytes) of files matching ``pattern`` under ``root``."""
    entries = 0
    size = 0
    if root.is_dir():
        for path in root.glob(pattern):
            try:
                size += path.stat().st_size
                entries += 1
            except OSError:
                continue
    return entries, size


def clear_dir(root: Path, pattern: str) -> int:
    """Delete files matching ``pattern`` under ``root``; returns the count."""
    removed = 0
    if root.is_dir():
        for path in list(root.glob(pattern)):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
    return removed
