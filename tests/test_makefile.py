"""``make clean`` removes build and test leftovers, never committed files.

The committed benchmark trajectory (``benchmarks/results/``) once sat in
the clean recipe; this pins that no ``rm`` or ``find … -exec rm`` in the
recipe can match a git-tracked path.
"""

import fnmatch
import glob
import os
import shlex
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def recipe(target):
    """The shell lines of one Makefile target."""
    with open(os.path.join(ROOT, "Makefile")) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{target}:"))
    body = []
    for line in lines[start + 1 :]:
        if not line.startswith("\t"):
            break
        body.append(line.strip())
    return body


def tracked_paths():
    if shutil.which("git") is None:
        pytest.skip("git not installed")
    proc = subprocess.run(
        ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        pytest.skip("not a git checkout")
    return proc.stdout.splitlines()


def test_clean_recipe_removes_no_tracked_path():
    tracked = tracked_paths()
    removed = []
    for line in recipe("clean"):
        words = shlex.split(line)
        if words[0] == "rm":
            for word in words[1:]:
                if word.startswith("-"):
                    continue
                matches = glob.glob(word, root_dir=ROOT) or [word]
                removed += [m.rstrip("/") for m in matches]
        elif words[0] == "find":
            assert "-name" in words, line
            pattern = words[words.index("-name") + 1]
            hits = [
                p for p in tracked
                if any(fnmatch.fnmatch(part, pattern) for part in p.split("/"))
            ]
            assert hits == [], f"{line!r} would delete tracked {hits[:5]}"
        else:
            pytest.fail(f"unrecognised clean command: {line!r}")
    assert removed, "the clean recipe removes nothing"
    for target in removed:
        hits = [p for p in tracked if p == target or p.startswith(target + "/")]
        assert hits == [], f"make clean deletes tracked {hits[:5]}"
