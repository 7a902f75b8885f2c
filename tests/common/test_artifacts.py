"""The package fingerprint that enters every result, program and checkpoint key."""

import hashlib
import shutil
from pathlib import Path

import repro
from repro.common import artifacts

PACKAGE_ROOT = Path(artifacts.__file__).resolve().parents[1]


def test_package_fingerprint_is_the_source_digest():
    assert artifacts.package_fingerprint() == artifacts.source_digest(
        PACKAGE_ROOT, repro.__version__
    )[:16]


def _pathlib_digest(root: Path, salt: str = "") -> str:
    """``source_digest`` as pathlib computes it: every ``rglob`` path with a
    source suffix, sorted, hashed as its path relative to ``root`` and its
    bytes."""
    digest = hashlib.sha256()
    paths = sorted(path for path in root.rglob("*") if path.suffix in artifacts.SOURCE_SUFFIXES)
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
    digest.update(salt.encode())
    return digest.hexdigest()


def test_source_digest_is_the_pathlib_digest_of_the_package():
    # Bit-identical, so no cache key moves.
    assert artifacts.source_digest(PACKAGE_ROOT, "v") == _pathlib_digest(PACKAGE_ROOT, "v")


def test_source_digest_orders_and_filters_paths_as_pathlib_does(tmp_path):
    tree = tmp_path / "tree"
    # "a-b/x.py" sorts before "a/b.py" as a string, after it by components;
    # ".py" and "x." have no suffix, "..py" has ".py"; a directory with a
    # source suffix is hashed by name only; a linked directory is not walked.
    for name in (
        "a/b.py", "a-b/x.py", "a.py", "z/.py", "z/..py", "z/k.c", "z/k.h",
        "z/k.pyc", "z/x.", "dir.py/inner.c", "d/e/f/g.h",
    ):
        path = tree / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(name)
    (tree / "linked").symlink_to(tree / "d", target_is_directory=True)
    assert artifacts.source_digest(tree) == _pathlib_digest(tree)
    assert artifacts.source_digest(str(tree), "salt") == _pathlib_digest(tree, "salt")


def test_source_digest_covers_python_and_kernel_sources(tmp_path):
    # A kernel fix must invalidate cached results just like a Python edit.
    tree = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_ROOT, tree, ignore=shutil.ignore_patterns("__pycache__")
    )
    digests = [artifacts.source_digest(tree)]
    for name in (
        "common/kernels/driver.c",
        "common/kernels/kernels.h",
        "sim/simulator.py",
    ):
        path = tree / name
        comment = "# edited" if path.suffix == ".py" else "/* edited */"
        path.write_text(f"{path.read_text()}\n{comment}\n")
        digests.append(artifacts.source_digest(tree))
    assert len(set(digests)) == len(digests)
