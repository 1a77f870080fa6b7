"""The bit-plane compile cache: keying, reuse, safety checks, cleanup.

Every test points the cache at its own ``tmp_path`` by monkeypatching
``tempfile.tempdir`` (the cache lives in ``tempfile.gettempdir()``), so
no test sees another's entries.  A ready-built library from one
module-scoped compile is copied in wherever a test needs a warm cache:
a copy is a new path and a new inode, so ``dlopen`` really opens it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro.backends.bitplane as bp
from repro.backends import NumpyBackend
from repro.backends.bitplane import BitplaneBackend, make_bitplane_backend
from repro.gpusim import BulkSearchEngine
from repro.qubo import QuboMatrix
from tests.helpers.engine_check import assert_engines_equal

pytestmark = pytest.mark.skipif(bp._find_cc() is None, reason="no C compiler")

SRC = Path(bp.__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One compiled cache entry: ``(file name, bytes)``."""
    root = tmp_path_factory.mktemp("built")
    saved, tempfile.tempdir = tempfile.tempdir, str(root)
    try:
        bp._load_library()
    finally:
        tempfile.tempdir = saved
    (entry,) = (root / f"repro-bitplane-{os.getuid()}").glob("*.so")
    return entry.name, entry.read_bytes()


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def warm(cache: Path, built, data: bytes | None = None) -> Path:
    """Install the built entry (or ``data`` under its name) in ``cache``."""
    name, blob = built
    cache.mkdir(mode=0o700, exist_ok=True)
    entry = cache / name
    entry.write_bytes(blob if data is None else data)
    entry.chmod(0o755)
    return entry


def leftovers(root: Path) -> list[str]:
    """Anything but the cache dir and its ``.so`` entries under ``root``."""
    cache = bp._cache_dir()
    out = [p.name for p in root.iterdir() if p != cache]
    if cache.is_dir() and not cache.is_symlink():
        out += [p.name for p in cache.iterdir() if p.suffix != ".so"]
    return out


def test_second_interpreter_loads_without_compiling(tmp_path):
    script = (
        "import json, subprocess\n"
        "import repro.backends.bitplane as bp\n"
        "calls, real = [], subprocess.run\n"
        "def spy(argv, **kw):\n"
        "    calls.append(list(argv))\n"
        "    return real(argv, **kw)\n"
        "subprocess.run = spy\n"
        "lib = bp.BitplaneBackend.ensure_compiled()\n"
        "print(json.dumps({'compiled': any('-shared' in c for c in calls),\n"
        "                  'path': lib._name}))\n"
    )
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": str(SRC)}
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    cache = tmp_path / f"repro-bitplane-{os.getuid()}"
    assert [r["compiled"] for r in runs] == [True, False]
    assert runs[0]["path"] == runs[1]["path"]
    assert Path(runs[1]["path"]).parent == cache


def test_key_covers_source_flags_and_compiler():
    args = ("/usr/bin/cc", "cc 1.0", bp._BASE_FLAGS)
    key = bp._cache_key(*args)
    assert key == bp._cache_key(*args)
    assert key != bp._cache_key(*args, source=bp._C_SOURCE + "\n")
    assert key != bp._cache_key("/usr/bin/cc", "cc 1.0", bp._FLAG_SETS[0])
    assert key != bp._cache_key("/usr/bin/cc", "cc 1.1", bp._BASE_FLAGS)
    assert key != bp._cache_key("/usr/bin/clang", "cc 1.0", bp._BASE_FLAGS)


@pytest.mark.parametrize("bad", ["truncated", "not a library"])
def test_bad_entry_is_deleted_and_rebuilt(cache_root, built, bad):
    # A half-written entry fails the seal check; a sealed non-library
    # passes it and fails in dlopen instead.
    blob = built[1][: len(built[1]) // 2] if bad == "truncated" else bp._seal(b"junk")
    entry = warm(bp._cache_dir(), built, data=blob)
    lib = bp._load_library()
    assert lib._name == str(entry)
    assert entry.stat().st_size == len(built[1])
    assert lib.bp_straight_w64 is not None
    assert leftovers(cache_root) == []


def _group_writable(cache: Path, built, monkeypatch) -> Path:
    warm(cache, built)
    cache.chmod(0o770)
    return cache


def _world_writable(cache: Path, built, monkeypatch) -> Path:
    warm(cache, built)
    cache.chmod(0o707)
    return cache


def _foreign_owned(cache: Path, built, monkeypatch) -> Path:
    # The dir is ours; the loader is made to run as the next uid, whose
    # cache dir name this is — so to the loader the dir is foreign.
    uid = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: uid)
    foreign = bp._cache_dir()
    warm(foreign, built)
    return foreign


def _symlinked(cache: Path, built, monkeypatch) -> Path:
    target = cache.parent / "elsewhere"
    warm(target, built)
    cache.symlink_to(target, target_is_directory=True)
    return target


def _symlinked_entry(cache: Path, built, monkeypatch) -> Path:
    target = cache.parent / "elsewhere"
    real = warm(target, built)
    cache.mkdir(mode=0o700)
    (cache / built[0]).symlink_to(real)
    return target


@pytest.mark.parametrize("make_unsafe", [
    _group_writable, _world_writable, _foreign_owned, _symlinked, _symlinked_entry,
])
def test_unsafe_cache_is_never_loaded_from(cache_root, built, monkeypatch, make_unsafe):
    planted = make_unsafe(bp._cache_dir(), built, monkeypatch)
    lib = bp._load_library()
    assert Path(lib._name).parent != planted
    assert (planted / built[0]).read_bytes() == built[1]  # left untouched
    assert lib.bp_straight_w16_d32 is not None
    # The private build dir is gone too: only what the test planted is left.
    assert {p.name for p in cache_root.iterdir()} <= {
        bp._cache_dir().name, planted.name,
    }


@pytest.mark.parametrize("mask", ["REPRO_NO_CC", "no compiler on PATH"])
def test_fallback_wins_over_a_warm_cache(cache_root, built, monkeypatch, mask):
    warm(bp._cache_dir(), built)
    if mask == "REPRO_NO_CC":
        monkeypatch.setenv("REPRO_NO_CC", "1")
    else:
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(cache_root / "no-bin"))
    monkeypatch.setattr(bp, "_warned", False)
    monkeypatch.setattr(BitplaneBackend, "_lib", None)
    with pytest.warns(RuntimeWarning, match="falling back"):
        backend = make_bitplane_backend()
    assert type(backend) is NumpyBackend
    assert backend.fallback_from == "bitplane"
    assert BitplaneBackend._lib is None


def test_compiles_leave_no_scratch_dirs(cache_root):
    for _ in range(2):
        for entry in bp._cache_dir().glob("*.so"):
            entry.unlink()
        bp._load_library()
    assert leftovers(cache_root) == []
    assert len(list(bp._cache_dir().glob("*.so"))) == 1


def test_portable_build_walks_match_numpy(cache_root, monkeypatch, rng):
    # Where -march=native works, no other test runs the portable build,
    # and the dense kernels' mask loops vectorize differently there.
    monkeypatch.setattr(bp, "_FLAG_SETS", (bp._FLAG_SETS[1],))
    monkeypatch.setattr(BitplaneBackend, "_lib", None)
    monkeypatch.setattr(BitplaneBackend, "_build_error", None)
    backend = BitplaneBackend()
    lib = backend.ensure_compiled()
    cc = bp._find_cc()
    version = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout
    key = bp._cache_key(os.path.realpath(shutil.which(cc) or cc), version, bp._BASE_FLAGS)
    assert lib._name == str(bp._cache_dir() / f"{key}.so")
    q = QuboMatrix.random(130, seed=37)
    wide = QuboMatrix(np.asarray(q.W, dtype=np.int64) * 5, check=False)
    for weights, variant in ((q, "dense_w16_d32"), (wide, "dense_w64")):
        ref = BulkSearchEngine(weights, 4, windows=5, backend="numpy")
        eng = BulkSearchEngine(weights, 4, windows=5, backend=backend)
        assert eng.prepared.planes.variant == variant
        for scan_neighbors in (True, False):
            targets = rng.integers(0, 2, (4, weights.n), dtype=np.uint8)
            for e in (ref, eng):
                e.reset_best()
                e.straight_to(targets, scan_neighbors=scan_neighbors)
                e.reset_best()
                e.local_steps(20)
            assert_engines_equal(eng, ref, context=f"{variant}, scan={scan_neighbors}")
