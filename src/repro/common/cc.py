"""Runtime builder for the compiled kernels.

Interpreted Python is the hot-path ceiling of the simulator, and per-probe
numpy is a pessimization at simulator table sizes (see
docs/performance.md).  This module compiles the hand-written C kernels
under ``repro/common/kernels/`` -- the compiled cycle driver and the
structure code it runs -- into a CPython extension module *on first use*
with the system compiler, caches the built ``.so`` content-addressed under
the shared artifact root (digest of every source file plus the build flags
and interpreter ABI; atomic rename, exactly like the program/checkpoint
stores), and loads it via importlib.  Python enters it once per run
(``run_cycles``) or walk (``functional_walk``) and once per program to
check its columns (``check_columns``) and index its blocks
(``index_blocks``), plus the bulk state helpers and the two BTB calls a
plug-in technique's hooks make.

Fallback contract: when no compiler is present, compilation fails, or
``REPRO_NO_COMPILED=1`` is set, :func:`kernels` returns ``None`` and every
simulator silently holds the object structures, which remain the
byte-identity oracle (``tests/sim/test_modes.py`` enforces identical
counters between the two).  No new Python dependencies are involved.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import tempfile
from pathlib import Path

from repro.common.artifacts import cache_root, env_truthy

NO_COMPILED_ENV = "REPRO_NO_COMPILED"

MODULE_NAME = "_repro_kernels"

# Every kernel file, in the order the unity translation unit includes them
# (a file may call the static helpers of the files before it); the header
# is part of the digest.
KERNEL_DIR = Path(__file__).resolve().parent / "kernels"
KERNEL_SOURCES = (
    "cache.c", "btb.c", "tage.c", "backend.c", "techniques.c", "driver.c", "tables.c", "module.c",
)
KERNEL_HEADER = "kernels.h"

CFLAGS = ("-O1", "-fPIC", "-shared", "-fno-strict-aliasing")

# The interpreter's extension-module suffix, sysconfig's ``EXT_SUFFIX``
# (".cpython-311-x86_64-linux-gnu.so"), without importing sysconfig and its
# build data into a process that only loads a built module.
EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

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


def unity_source() -> str:
    """The single translation unit the extension is compiled from.

    One compiler invocation over one TU instead of one per file: the
    per-file front-end and Python.h parsing dominated the build, and the
    cycle driver calls the other files' static helpers directly.
    """
    return "".join(f'#include "{name}"\n' for name in KERNEL_SOURCES)


def _build_digest(compiler: str) -> str:
    """Content digest of everything that shapes the built artifact."""
    digest = hashlib.sha256()
    digest.update(unity_source().encode())
    for name in (KERNEL_HEADER, *KERNEL_SOURCES):
        digest.update(name.encode())
        digest.update((KERNEL_DIR / name).read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(compiler.encode())
    digest.update(sys.version.encode())
    digest.update(EXT_SUFFIX.encode())
    return digest.hexdigest()[:32]


def _artifact_path(digest: str) -> Path:
    return cache_root() / "kernels" / f"{MODULE_NAME}-{digest}{EXT_SUFFIX}"


def _compile(compiler: str, out_path: Path) -> bool:
    """Compile the unity translation unit to ``out_path`` (atomic rename)."""
    global _BUILD_ERROR
    # Only a build runs the compiler: a process that loads a built module
    # never imports subprocess, nor sysconfig for Python's headers.
    import subprocess
    import sysconfig

    include = sysconfig.get_paths()["include"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=out_path.parent, prefix=out_path.stem, suffix=".tmp.so"
    )
    os.close(fd)
    fd, unity_name = tempfile.mkstemp(
        dir=out_path.parent, prefix=out_path.stem, suffix=".unity.c"
    )
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(unity_source())
    cmd = [
        compiler, *CFLAGS, f"-I{include}", f"-I{KERNEL_DIR}",
        "-o", tmp_name, unity_name,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.SubprocessError) as exc:
        _BUILD_ERROR = f"{compiler}: {exc}"
        os.unlink(tmp_name)
        return False
    finally:
        os.unlink(unity_name)
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
