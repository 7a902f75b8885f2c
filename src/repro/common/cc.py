"""Runtime builder for the compiled hot-loop kernels.

Interpreted Python is the hot-path ceiling of the simulator's scalar
leaves, and per-probe numpy is a pessimization at simulator table sizes
(see docs/performance.md).  This module compiles the hand-written C
kernels under ``repro/common/kernels/`` into a CPython extension module
*on first use* with the system compiler, caches the built ``.so``
content-addressed under the shared artifact root (digest of every source
file plus the build flags and interpreter ABI; atomic rename, exactly like
the program/checkpoint stores), and loads it via importlib.

A measured design note: the kernels are a real CPython extension
(``METH_FASTCALL``) rather than a ``ctypes``-loaded plain ``.so`` because a
``ctypes`` foreign call costs ~800ns in call overhead alone — more than the
dict probes it would replace — while an extension call is ~80ns, cheap
enough for per-probe kernels on top of the fat batch kernels.

Fallback contract: when no compiler is present, compilation fails, or
``REPRO_NO_COMPILED=1`` is set, :func:`kernels` returns ``None`` and every
call site silently stays on the object implementations, which remain the
byte-identity oracle (``tests/sim/test_modes.py`` enforces identical
counters between the two).  No new Python dependencies are involved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

from repro.common.artifacts import cache_root, env_truthy

NO_COMPILED_ENV = "REPRO_NO_COMPILED"

MODULE_NAME = "_repro_kernels"

# Every translation unit, in link order; the header is part of the digest.
KERNEL_DIR = Path(__file__).resolve().parent / "kernels"
KERNEL_SOURCES = ("cache.c", "btb.c", "tage.c", "backend.c", "module.c")
KERNEL_HEADER = "kernels.h"

CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-strict-aliasing")

# Process-wide memo: False = not attempted, None = attempted and unavailable.
_MODULE: object = False
_BUILD_ERROR: str | None = None


def compiled_disabled() -> bool:
    """True when ``REPRO_NO_COMPILED`` opts out of the compiled kernels."""
    return env_truthy(NO_COMPILED_ENV)


def _compiler() -> str | None:
    """The C compiler to use: ``$CC`` if set, else the first of cc/gcc/clang."""
    override = os.environ.get("CC", "").strip()
    if override:
        return override
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_digest(compiler: str) -> str:
    """Content digest of everything that shapes the built artifact."""
    digest = hashlib.sha256()
    for name in (KERNEL_HEADER, *KERNEL_SOURCES):
        digest.update(name.encode())
        digest.update((KERNEL_DIR / name).read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(compiler.encode())
    digest.update(sys.version.encode())
    digest.update(str(sysconfig.get_config_var("EXT_SUFFIX")).encode())
    return digest.hexdigest()[:32]


def _artifact_path(digest: str) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return cache_root() / "kernels" / f"{MODULE_NAME}-{digest}{suffix}"


def _compile(compiler: str, out_path: Path) -> bool:
    """Compile the kernel sources to ``out_path`` (atomic rename)."""
    global _BUILD_ERROR
    sources = [str(KERNEL_DIR / name) for name in KERNEL_SOURCES]
    include = sysconfig.get_paths()["include"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=out_path.parent, prefix=out_path.stem, suffix=".tmp.so"
    )
    os.close(fd)
    cmd = [compiler, *CFLAGS, f"-I{include}", "-o", tmp_name, *sources]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.SubprocessError) as exc:
        _BUILD_ERROR = f"{compiler}: {exc}"
        os.unlink(tmp_name)
        return False
    if proc.returncode != 0:
        output = (proc.stderr or proc.stdout or "").strip()[:2000]
        _BUILD_ERROR = output or f"{compiler} exited with {proc.returncode}"
        os.unlink(tmp_name)
        return False
    os.replace(tmp_name, out_path)
    return True


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path)
    if spec is None or spec.loader is None:  # pragma: no cover - loader quirk
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernels():
    """The loaded kernel extension module, or ``None`` when unavailable.

    Builds on first call (memoized for the process, including the negative
    result so a missing compiler is probed once, not per simulator).
    """
    global _MODULE, _BUILD_ERROR
    if compiled_disabled():
        # Checked before the memo so the gate stays live for the whole
        # process; an already-built module is simply not handed out while
        # the env opts out.
        return None
    if _MODULE is not False:
        return _MODULE
    compiler = _compiler()
    if compiler is None:
        _BUILD_ERROR = "no C compiler found (cc/gcc/clang or $CC)"
        _MODULE = None
        return None
    try:
        digest = _build_digest(compiler)
        path = _artifact_path(digest)
        if not path.is_file() and not _compile(compiler, path):
            _MODULE = None
            return None
        _MODULE = _load(path)
    except Exception as exc:  # pragma: no cover - defensive: never fail a sim
        _BUILD_ERROR = repr(exc)
        _MODULE = None
    return _MODULE


def build_error() -> str | None:
    """Diagnostics from the last failed build attempt (``repro profile``)."""
    return _BUILD_ERROR


def compiled_enabled() -> bool:
    """True when the compiled kernels are available and not opted out."""
    return kernels() is not None


def resolve_compiled(compiled: bool | None) -> bool:
    """Resolve an explicit ``compiled`` override against the environment.

    ``None`` defers to :func:`compiled_enabled`; an explicit ``True`` still
    requires the kernels to actually build (graceful degradation on
    compiler-less hosts is the contract, not an error).
    """
    if compiled is None:
        return compiled_enabled()
    return bool(compiled) and compiled_enabled()


def kernel_call_counts() -> dict[str, int]:
    """Per-kernel dispatch counts since process start (profile attribution)."""
    module = _MODULE if _MODULE is not False else None
    if module is None:
        return {}
    return dict(module.call_counts())


def reset_for_tests() -> None:
    """Drop the process-wide memo so tests can exercise gating/fallback."""
    global _MODULE, _BUILD_ERROR
    _MODULE = False
    _BUILD_ERROR = None
