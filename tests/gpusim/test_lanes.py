"""Block-parallel walks: the lane pool, its failure path and fork safety.

A sync-mode engine (``split=True``) runs the block ranges of one walk on
several threads (:mod:`repro.gpusim.lanes`).  These tests pin what the
split must never change: a range that raises is waited for, not
abandoned; a ``fork`` after a split leaves the child a working pool and
a process solve its sync-equal answer; and a fleet worker, which is one
device on its own core, never splits.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.abs.device as device_mod
import repro.gpusim.engine as engine_mod
import repro.gpusim.lanes as lanes_mod
from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.backends import NumpyBackend, cc_available
from repro.gpusim import BulkSearchEngine
from repro.qubo import QuboMatrix

pytestmark = pytest.mark.timeout(120)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert lanes_mod.usable_cpus() == 3


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert lanes_mod.usable_cpus() == 6


def test_numpy_walks_never_split(monkeypatch):
    """The numpy kernels hold the GIL: threads would not overlap them."""
    monkeypatch.setattr(engine_mod, "SPLIT_FLOOR_NS", 0)
    monkeypatch.setattr(lanes_mod, "usable_cpus", lambda: 4)
    eng = BulkSearchEngine(QuboMatrix.random(16, seed=1), 8, backend="numpy", split=True)
    assert eng.lanes == 1


class _StubBackend(NumpyBackend):
    """Claims to run off the GIL.  The range whose first block is
    ``fail_at`` raises at once; any other sleeps, then records that it
    finished.  Each block's energy starts as its index, so a range
    knows where it begins."""

    def __init__(self, fail_at: int) -> None:
        self.fail_at = fail_at
        self.finished = threading.Event()

    def flip_ns(self, pw):
        return 1.0

    def run_local_steps(self, pw, X, delta, energy, *rest):
        if int(energy[0]) == self.fail_at:
            raise RuntimeError("kernel failed")
        time.sleep(0.2)
        energy[:] = -1
        self.finished.set()
        return 0


@pytest.mark.parametrize("fail_at", [0, 2], ids=["caller-range", "helper-range"])
def test_a_failing_range_waits_for_the_others(monkeypatch, fail_at):
    monkeypatch.setattr(engine_mod, "SPLIT_FLOOR_NS", 0)
    monkeypatch.setattr(lanes_mod, "usable_cpus", lambda: 2)
    stub = _StubBackend(fail_at)
    eng = BulkSearchEngine(QuboMatrix.random(8, seed=2), 4, windows=4, backend=stub, split=True)
    assert eng.lanes == 2
    eng.energy[:] = np.arange(4)
    with pytest.raises(RuntimeError, match="kernel failed"):
        eng.local_steps(1)
    # The other range had finished before the walk re-raised, so no
    # thread writes to the engine once the call is over.
    assert stub.finished.is_set()
    survivor = slice(2, 4) if fail_at == 0 else slice(0, 2)
    assert (eng.energy[survivor] == -1).all()
    assert eng.counters.flips == 0  # the failed walk counts nothing


def _split_walks_agree(weights, blocks: int) -> bool:
    """One split and one single engine walk alike (floor 0 assumed)."""
    engines = [
        BulkSearchEngine(weights, blocks, backend="bitplane", split=split)
        for split in (False, True)
    ]
    targets = np.random.default_rng(5).integers(0, 2, (blocks, weights.n), dtype=np.uint8)
    for eng in engines:
        eng.straight_to(targets)
        eng.local_steps(12)
    a, b = engines
    return b.lanes > 1 and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("X", "delta", "energy", "best_energy", "best_x", "offsets")
    )


needs_cc = pytest.mark.skipif(not cc_available(), reason="split walks need the C kernels")


@needs_cc
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_after_a_split_leaves_the_child_a_working_pool(monkeypatch):
    monkeypatch.setattr(engine_mod, "SPLIT_FLOOR_NS", 0)
    monkeypatch.setattr(lanes_mod, "usable_cpus", lambda: 2)
    weights = QuboMatrix.random(40, seed=4)
    assert _split_walks_agree(weights, 6)  # the parent now has a helper thread
    pid = os.fork()
    if pid == 0:  # child: the dead helper's pool is gone, and splitting works
        signal.alarm(30)  # a split handed to a dead helper would hang
        ok = lanes_mod.LANES._pool is None and _split_walks_agree(weights, 6)
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert _split_walks_agree(weights, 6)  # and the parent's pool comes back


_PROCESS_CFG = dict(
    n_gpus=1, blocks_per_gpu=8, local_steps=8, pool_capacity=16, max_rounds=6,
    time_limit=120.0, seed=11, lockstep=True, start_method="fork", backend="bitplane",
)

_FRESH_SOLVE = """
import hashlib, sys
from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.qubo import QuboMatrix
res = AdaptiveBulkSearch(QuboMatrix.random(48, seed=6), AbsConfig(**{cfg!r})).solve("process")
print(res.best_energy, hashlib.sha256(res.best_x.tobytes()).hexdigest(), res.rounds)
"""


@needs_cc
@pytest.mark.process
def test_fork_started_process_solve_after_a_sync_split(monkeypatch, tmp_path):
    """A sync solve splits its walks (helper threads now live), then a
    ``fork`` process solve in the same interpreter: its workers start
    and finish, and its answer is the one a fresh interpreter gets.
    The workers record their engines' lanes where they build their
    devices: a fleet worker never splits."""
    import hashlib

    monkeypatch.setattr(engine_mod, "SPLIT_FLOOR_NS", 0)
    monkeypatch.setattr(lanes_mod, "usable_cpus", lambda: 4)
    runs = []
    run = lanes_mod.LANES.run
    monkeypatch.setattr(lanes_mod.LANES, "run", lambda walks: runs.append(1) or run(walks))
    weights = QuboMatrix.random(48, seed=6)
    AdaptiveBulkSearch(
        weights, AbsConfig(blocks_per_gpu=8, max_rounds=3, seed=1, backend="bitplane")
    ).solve("sync")
    assert runs, "the sync solve never split a walk"

    built = device_mod.DeviceSimulator.from_plan.__func__
    marks = tmp_path / "lanes"
    marks.mkdir()

    def from_plan(cls, *args, **kwargs):
        device = built(cls, *args, **kwargs)
        (marks / str(os.getpid())).write_text(str(device.engine.lanes))
        return device

    monkeypatch.setattr(device_mod.DeviceSimulator, "from_plan", classmethod(from_plan))
    res = AdaptiveBulkSearch(weights, AbsConfig(**_PROCESS_CFG)).solve("process")
    recorded = [p.read_text() for p in marks.iterdir()]
    assert recorded and all(lanes == "1" for lanes in recorded), recorded

    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_SOLVE.format(cfg=_PROCESS_CFG)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(engine_mod.__file__).parents[2])},
    )
    here = f"{res.best_energy} {hashlib.sha256(res.best_x.tobytes()).hexdigest()} {res.rounds}"
    assert fresh.stdout.strip() == here
