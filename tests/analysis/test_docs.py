"""docs-check: the documentation suite must stay link- and flag-clean.

Runs the :mod:`repro.analysis.docscheck` checker against the actual
repository docs (the tier-1 wiring of ``make docs-check``), plus unit
coverage of each defect class on synthetic trees.
"""

from pathlib import Path

import pytest

from repro.analysis.docscheck import check_repo, main

pytestmark = pytest.mark.analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepositoryDocs:
    def test_repo_docs_are_clean(self):
        findings = check_repo(REPO_ROOT)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_docs_map_exists_and_links_every_page(self):
        index = (REPO_ROOT / "docs" / "index.md").read_text()
        for page in sorted((REPO_ROOT / "docs").glob("*.md")):
            if page.name == "index.md":
                continue
            assert f"({page.name})" in index, f"docs/index.md misses {page.name}"

    def test_main_exit_code_clean(self, capsys):
        assert main([str(REPO_ROOT)]) == 0
        assert "OK" in capsys.readouterr().out


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


class TestDefectClasses:
    def test_broken_relative_link(self, tmp_path):
        _write(tmp_path, "README.md", "[gone](docs/missing.md)\n")
        findings = check_repo(tmp_path)
        assert len(findings) == 1
        assert "broken link" in findings[0].message
        assert findings[0].path == "README.md"

    def test_good_links_anchors_and_urls_pass(self, tmp_path):
        _write(tmp_path, "docs/other.md", "x\n")
        _write(
            tmp_path,
            "docs/index.md",
            "[ok](other.md) [up](../README.md) [a](#sec) [w](https://e.org)\n",
        )
        _write(tmp_path, "README.md", "[map](docs/index.md#top)\n")
        assert check_repo(tmp_path) == []

    def test_unknown_subcommand_in_fence(self, tmp_path):
        _write(tmp_path, "README.md", "```bash\npython -m repro frobnicate x\n```\n")
        findings = check_repo(tmp_path)
        assert len(findings) == 1
        assert "unknown CLI subcommand 'frobnicate'" in findings[0].message

    def test_stale_flag_in_fence(self, tmp_path):
        # The pre-rename spelling: `analyze` took over landscape's flags.
        _write(
            tmp_path,
            "README.md",
            "```bash\npython -m repro analyze inst.qubo --walk-steps 64\n```\n",
        )
        findings = check_repo(tmp_path)
        assert any("--walk-steps" in f.message for f in findings)

    def test_valid_commands_pass(self, tmp_path):
        _write(
            tmp_path,
            "README.md",
            "```bash\n"
            "python -m repro landscape inst.qubo --walk-steps 64\n"
            "REPRO_BACKEND=bitplane python -m repro solve inst.qubo --rounds 3\n"
            "abs-solve solve inst.qubo --backend bitplane | tee out.txt\n"
            "python -m repro solve inst.qubo \\\n    --blocks 8 --seed 7\n"
            "```\n",
        )
        assert check_repo(tmp_path) == []

    def test_module_invocations_are_not_subcommand_checked(self, tmp_path):
        _write(
            tmp_path,
            "README.md",
            "```bash\npython -m repro.telemetry.schema run.jsonl\n"
            "python -m repro.analysis.docscheck\n```\n",
        )
        assert check_repo(tmp_path) == []

    def test_commands_outside_fences_ignored(self, tmp_path):
        _write(tmp_path, "README.md", "Run `python -m repro frobnicate` someday.\n")
        assert check_repo(tmp_path) == []

    def test_unknown_make_target_in_fence(self, tmp_path):
        _write(tmp_path, "Makefile", "test:\n\tpytest\n")
        _write(tmp_path, "README.md", "```bash\nmake ship-it\n```\n")
        findings = check_repo(tmp_path)
        assert len(findings) == 1
        assert "make target 'ship-it'" in findings[0].message

    def test_unknown_make_target_in_inline_code(self, tmp_path):
        _write(tmp_path, "Makefile", "test:\n\tpytest\n")
        _write(tmp_path, "README.md", "Run `make chek` before pushing.\n")
        findings = check_repo(tmp_path)
        assert len(findings) == 1
        assert "make target 'chek'" in findings[0].message

    def test_known_targets_prose_and_flags_pass(self, tmp_path):
        _write(
            tmp_path,
            "Makefile",
            ".PHONY: test check\ntest:\n\tpytest\ncheck: test\n\ttrue\n",
        )
        _write(
            tmp_path,
            "README.md",
            "Make sure to make the solver fast.\n"   # prose: not matched
            "Run `make check` or:\n"
            "```bash\nmake -j4 test\nmake check   # explains make bars in a comment\n```\n",
        )
        assert check_repo(tmp_path) == []

    def test_no_makefile_skips_target_check(self, tmp_path):
        _write(tmp_path, "README.md", "```bash\nmake anything\n```\n")
        assert check_repo(tmp_path) == []

    def test_dangling_dotted_names_in_inline_code(self, tmp_path):
        _write(
            tmp_path,
            "README.md",
            "| resume | `repro.abs.no_such_module` |\n"
            "Call `repro.qubo.QuboMatrix.no_such_method()` first.\n",
        )
        findings = check_repo(tmp_path)
        assert [f.line for f in findings] == [1, 2]
        assert "'repro.abs.no_such_module' does not resolve" in findings[0].message
        assert "no 'no_such_method' in repro.qubo.QuboMatrix" in findings[1].message

    def test_resolving_dotted_names_pass(self, tmp_path):
        _write(
            tmp_path,
            "README.md",
            "Use `repro.solve(q)`, `repro.qubo.QuboMatrix.random` or\n"
            "`repro.backends.graycode.graycode_minimum`; run\n"
            "`python -m repro.analysis.docscheck`.\n"
            "Prose repro.nope and `src/repro.nope` are not names.\n"
            "```python\nimport repro.nope\n```\n",
        )
        assert check_repo(tmp_path) == []

    def test_main_reports_and_fails(self, tmp_path, capsys):
        _write(tmp_path, "README.md", "[gone](nope.md)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "README.md:1" in out.out
        assert "1 problem(s)" in out.err
