"""The package fingerprint that enters every result, program and checkpoint key."""

import shutil
from pathlib import Path

import repro
from repro.common import artifacts

PACKAGE_ROOT = Path(artifacts.__file__).resolve().parents[1]


def test_package_fingerprint_is_the_source_digest():
    assert artifacts.package_fingerprint() == artifacts.source_digest(
        PACKAGE_ROOT, repro.__version__
    )[:16]


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
