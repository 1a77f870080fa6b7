"""The package version has one source: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and reads it from that
attribute, so the installed metadata and the import-time string cannot
drift apart.  The newest CHANGELOG entry names the same version.
"""

import os
import re

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pyproject():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)


def test_pyproject_reads_the_version_from_the_package():
    meta = _pyproject()
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    dynamic = meta["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}


def test_changelog_heads_with_the_package_version():
    with open(os.path.join(ROOT, "CHANGELOG.md"), encoding="utf-8") as fh:
        newest = re.search(r"^## (\S+)", fh.read(), re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
    assert newest is not None and newest.group(1) == repro.__version__
