"""The runtime kernel builder: caching, gating, and graceful fallback.

The compiled kernels are a pure wall-clock optimization, so the builder's
contract is all about degradation: no compiler, a broken compiler, or
``REPRO_NO_COMPILED=1`` must each leave every call site on the interpreted
SoA path with identical results — never an error.
"""

import os
import sys

import pytest

from repro.common import cc


@pytest.fixture(autouse=True)
def _restore_memo():
    """Each test manipulates the process-wide build memo; reset afterwards."""
    yield
    cc.reset_for_tests()


def _compiler_works() -> bool:
    """A compiler may be present but broken (the CI no-compiler job sets
    ``CC=/bin/false``), so probe with a real build attempt, not a which()."""
    cc.reset_for_tests()
    ok = cc.kernels() is not None
    cc.reset_for_tests()
    return ok


def test_no_compiled_env_gates_everything(monkeypatch):
    monkeypatch.setenv(cc.NO_COMPILED_ENV, "1")
    assert cc.compiled_disabled()
    assert cc.kernels() is None
    assert not cc.compiled_enabled()
    # An explicit True cannot force the gate open: graceful degradation is
    # the contract, not an error.
    assert cc.resolve_compiled(True) is False
    assert cc.resolve_compiled(None) is False


def test_env_gate_is_live_after_build(monkeypatch):
    if not _compiler_works():
        pytest.skip("no C compiler on this host")
    cc.reset_for_tests()
    assert cc.kernels() is not None
    monkeypatch.setenv(cc.NO_COMPILED_ENV, "1")
    assert cc.kernels() is None
    monkeypatch.delenv(cc.NO_COMPILED_ENV)
    assert cc.kernels() is not None  # memoized module, no rebuild


def test_build_is_cached_on_disk(monkeypatch, tmp_path):
    if not _compiler_works():
        pytest.skip("no C compiler on this host")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv(cc.NO_COMPILED_ENV, raising=False)
    cc.reset_for_tests()
    module = cc.kernels()
    assert module is not None
    artifacts = list((tmp_path / "kernels").iterdir())
    assert len(artifacts) == 1
    assert artifacts[0].name.startswith(cc.MODULE_NAME)
    mtime = artifacts[0].stat().st_mtime_ns
    # A second process-fresh attempt loads the cached .so without rebuilding.
    cc.reset_for_tests()
    assert cc.kernels() is not None
    assert artifacts[0].stat().st_mtime_ns == mtime


def test_broken_compiler_falls_back(monkeypatch, tmp_path):
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv(cc.NO_COMPILED_ENV, raising=False)
    cc.reset_for_tests()
    assert cc.kernels() is None
    assert cc.build_error()
    assert cc.resolve_compiled(True) is False


def test_broken_compiler_simulation_matches_interpreted(monkeypatch, tmp_path):
    """compiled=True on a compiler-less host must silently run interpreted."""
    from repro.sim.presets import PRESET_BUILDERS
    from repro.sim.profile import build_simulator

    def run():
        config = PRESET_BUILDERS["udp"](2_000)
        sim = build_simulator("gcc", config, compiled=True)
        sim.run()
        return sim

    baseline = run()

    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cc.reset_for_tests()
    degraded = run()
    assert not degraded.compiled_enabled
    assert degraded.cycle == baseline.cycle
    assert degraded.measured_counters() == baseline.measured_counters()


def test_kernel_call_counts_shape():
    if not _compiler_works():
        assert cc.kernel_call_counts() == {}
        pytest.skip("no C compiler on this host")
    cc.reset_for_tests()
    assert cc.kernels() is not None
    counts = cc.kernel_call_counts()
    assert counts and all(
        isinstance(v, int) and v >= 0 for v in counts.values()
    )
    assert set(counts) == {
        "btb_contains", "btb_fill", "run_cycles", "functional_walk", "check_columns",
        "index_blocks",
    }


def test_digest_covers_sources_and_interpreter():
    if not _compiler_works():
        pytest.skip("no C compiler on this host")
    compiler = cc._compiler()
    digest = cc._build_digest(compiler)
    assert len(digest) == 32
    assert sys.version.encode()  # sanity: the digest folds the ABI in
    assert cc._build_digest(compiler) == digest  # deterministic


def test_built_kernels_keep_their_digest_and_file_name(monkeypatch, tmp_path):
    """The extension suffix comes from importlib, not sysconfig: the digest
    and the artifact's name must be what sysconfig's ``EXT_SUFFIX`` gives,
    so a module an earlier process built is still found, not rebuilt."""
    import hashlib
    import subprocess
    import sysconfig

    ext_suffix = sysconfig.get_config_var("EXT_SUFFIX")
    assert cc.EXT_SUFFIX == ext_suffix
    compiler = "cc"
    digest = hashlib.sha256()
    digest.update(cc.unity_source().encode())
    for name in (cc.KERNEL_HEADER, *cc.KERNEL_SOURCES):
        digest.update(name.encode())
        digest.update((cc.KERNEL_DIR / name).read_bytes())
    digest.update(" ".join(cc.CFLAGS).encode())
    digest.update(compiler.encode())
    digest.update(sys.version.encode())
    digest.update(str(ext_suffix).encode())
    expected = digest.hexdigest()[:32]
    assert cc._build_digest(compiler) == expected
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cc._artifact_path(expected) == (
        tmp_path / "kernels" / f"{cc.MODULE_NAME}-{expected}{ext_suffix or '.so'}"
    )
    if not _compiler_works():
        pytest.skip("no C compiler on this host")
    # A fresh process that loads the built module imports no sysconfig.
    cc.reset_for_tests()
    assert cc.kernels() is not None
    code = (
        "import sys; from repro.common import cc; "
        "assert cc.kernels() is not None; print('sysconfig' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(cc.KERNEL_DIR.parents[2])}
    env.pop(cc.NO_COMPILED_ENV, None)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
