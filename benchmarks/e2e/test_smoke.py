"""Smoke test of the repository benchmark at tiny size.

    python -m pytest benchmarks/e2e -q

Runs all four workloads once untraced and once traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that the
answer oracle passed, and that tracing did not change any answer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Workloads whose answers are a pure function of the seed.
DETERMINISTIC = ("random-dense-sync", "maxcut-sparse-sync", "service-stream")


def _run(out: Path, *extra: str) -> tuple[dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--tiny", "--seconds", "0.5",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module")
def plain(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, list[dict]]:
    return _run(tmp_path_factory.mktemp("plain") / "runs.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, list[dict]]:
    return _run(tmp_path_factory.mktemp("traced") / "runs.json", "--trace")


def _check_emitted(result: dict, runs: list[dict], section: str, key: str) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(runs)
    assert [r["workload"] for r in runs] == [w["name"] for w in SPEC["workloads"]]
    for run in runs:
        assert run["errors"] == []
        for metric in SPEC[section]:
            name = metric["name"]
            assert run[key][name]["unit"] == metric["unit"], (run["workload"], name)
            line = result["metrics"][f"{run['workload']}/{name}"]
            assert line["unit"] == metric["unit"]
            assert isinstance(line["value"], (int, float))


def test_every_end_to_end_metric_is_emitted(plain: tuple[dict, list[dict]]) -> None:
    result, runs = plain
    _check_emitted(result, runs, "end_to_end", "metrics")
    for run in runs:
        for name, m in run["metrics"].items():
            assert m["value"] > 0 and m["n"] >= 1 and m["q1"] <= m["median"] <= m["q3"], name
            assert m["wall"] > 0, name
        assert run["kernel_s"]["n"] >= 2 and run["kernel_s"]["median"] > 0
        assert run["env"]["backend"] and run["env"]["nproc"] >= 1


def test_every_layer_metric_is_emitted(traced: tuple[dict, list[dict]]) -> None:
    result, runs = traced
    _check_emitted(result, runs, "per_layer", "layers")
    layers = {run["workload"]: run["layers"] for run in runs}
    assert layers["random-dense-sync"]["engine.local.flips"]["value"] > 0
    assert layers["process-oneshot"]["backend.compile.calls"]["value"] > 0  # forked workers
    assert layers["service-stream"]["service.run_s"]["value"] > 0


def test_tracing_does_not_change_answers(
    plain: tuple[dict, list[dict]], traced: tuple[dict, list[dict]]
) -> None:
    energies = [{r["workload"]: r["energies"] for r in runs} for _, runs in (plain, traced)]
    for workload in DETERMINISTIC:
        a, b = energies[0][workload], energies[1][workload]
        k = min(len(a), len(b))
        assert k >= 2 and a[:k] == b[:k], workload


def test_compare_finds_no_change_between_identical_files(
    plain: tuple[dict, list[dict]], tmp_path: Path
) -> None:
    path = tmp_path / "a.json"
    runs = plain[1] + [{**run, "set": "2"} for run in plain[1]]
    path.write_text(json.dumps({"runs": runs}))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare", str(path), f"{path}#2"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    assert " worse" not in proc.stdout and " better" not in proc.stdout
    rows = [line for line in proc.stdout.splitlines() if line.endswith("unresolved")]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    for rel in ["BENCHMARK.json", *SPEC["paths"]]:
        src = ROOT / rel
        if src.is_dir():
            shutil.copytree(src, tmp_path / rel, ignore=shutil.ignore_patterns(".*", "__pycache__"))
        else:
            shutil.copy(src, tmp_path / rel)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "random-dense-sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
