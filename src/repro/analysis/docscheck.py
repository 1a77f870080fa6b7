"""Documentation consistency checker (``make docs-check``).

Docs rot in three characteristic ways: relative links break when files
move, CLI examples keep flags that the parser renamed (the
``analyze`` → ``landscape`` rename left exactly such fossils), and
tables keep naming modules that were deleted.  This
checker walks ``README.md`` and ``docs/*.md`` and verifies:

1. **Links** — every relative markdown link target outside a code
   fence resolves to an existing file (fragments are stripped first;
   ``http(s)://``, ``mailto:`` and pure-``#`` anchors are skipped).
   This covers the ``docs/index.md`` documentation map and all
   cross-references between docs pages.
2. **CLI examples** — inside code fences, every ``python -m repro
   <subcommand>`` / ``abs-solve <subcommand>`` invocation names a real
   subcommand, and every ``--flag`` it shows exists on that
   subcommand's parser (or as a global flag).  The inventory is built
   live from ``repro.cli.build_parser()``, so a flag rename breaks the
   docs build instead of the reader.
3. **Make targets** — every ``make <target>`` shown in a code fence or
   inline code span names a target defined in the repository
   ``Makefile``.  The target list is parsed from the Makefile itself,
   so renaming or dropping a target breaks the docs build too.  Prose
   mentions outside code markup ("make sure", "make the solver…") are
   never matched.
4. **Dotted names** — every ``repro.<module>[.<attr>…]`` name inside
   an inline code span outside a fence resolves: the longest prefix
   that imports as a module is imported, then the rest is looked up
   with ``getattr``.  Deleting or renaming a module, class or function
   the docs name breaks the docs build.

Run as a module (``python -m repro.analysis.docscheck [root]``) or via
``make docs-check``; the tier-1 suite runs :func:`check_repo` against
the repository in ``tests/analysis/test_docs.py``.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["DocFinding", "check_file", "check_repo", "main"]


@dataclass(frozen=True)
class DocFinding:
    """One documentation defect, printable as ``path:line: message``."""

    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


#: Markdown inline link: ``[text](target)``.  Targets with spaces are
#: not used in this repo; titles (``(target "title")``) are split off.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: A documented CLI invocation.  The lookahead after ``repro`` keeps
#: ``python -m repro.telemetry.schema``-style module invocations (which
#: have their own argv contract) out of subcommand checking.
_CMD_RE = re.compile(r"(?:python3?\s+-m\s+repro(?=\s)|\babs-solve\b)\s+(.+)")

_SKIP_SCHEMES = ("http://", "https://", "mailto:")

#: ``make <target>`` with the target in command position.  A leading
#: ``[A-Za-z0-9]`` keeps flags (``make -j4``) from matching; prose is
#: filtered upstream by only scanning fences and inline code spans.
_MAKE_RE = re.compile(r"\bmake\s+([A-Za-z0-9][A-Za-z0-9_.-]*)")

#: Inline code span in prose: `` `make test` ``.
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: A dotted ``repro.…`` name.  The lookbehind keeps path fragments
#: (``src/repro.x``) and longer identifiers (``myrepro.x``) out.
_DOTTED_RE = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")

#: A Makefile rule header: ``target: prerequisites``.  Special targets
#: (``.PHONY``) and pattern rules (``%.o``) are excluded by the
#: character class.
_MAKE_RULE_RE = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.-]*)\s*:")

#: Shell metacharacters that end the repro command's own argv.
_SHELL_BREAKS = ("|", ">", ">>", "<", "&&", ";", "2>", "2>&1")


def _cli_inventory() -> dict[str, set[str]]:
    """``{subcommand: allowed option strings (incl. globals)}``, live."""
    from repro.cli import build_parser

    parser = build_parser()
    global_opts: set[str] = set()
    subcommands: dict[str, set[str]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                opts: set[str] = set()
                for sub_action in sub._actions:
                    opts.update(sub_action.option_strings)
                subcommands[name] = opts
        else:
            global_opts.update(action.option_strings)
    return {name: opts | global_opts for name, opts in subcommands.items()}


def _iter_logical_lines(text: str):
    """Yield ``(first_lineno, joined_line, in_fence)`` with backslash
    continuations folded so multi-line CLI examples check as one."""
    in_fence = False
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            i += 1
            continue
        first = i + 1
        joined = line
        while in_fence and joined.rstrip().endswith("\\") and i + 1 < len(lines):
            joined = joined.rstrip()[:-1] + " " + lines[i + 1].strip()
            i += 1
        yield first, joined, in_fence
        i += 1


def _check_link(target: str, base: Path, root: Path) -> str | None:
    if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
        return None
    path_part = target.split("#", 1)[0]
    if not path_part:
        return None
    resolved = (root / path_part[1:]) if path_part.startswith("/") else (base / path_part)
    if not resolved.exists():
        return f"broken link: {target!r} does not resolve"
    return None


def _makefile_targets(root: Path) -> set[str] | None:
    """Rule names defined in ``root/Makefile``; ``None`` when absent."""
    makefile = root / "Makefile"
    if not makefile.exists():
        return None
    targets: set[str] = set()
    for raw in makefile.read_text(encoding="utf-8").splitlines():
        if raw.startswith(("\t", " ", "#")):
            continue
        match = _MAKE_RULE_RE.match(raw)
        if match:
            targets.add(match.group(1))
    return targets


def _check_make_mentions(
    line: str, in_fence: bool, targets: set[str]
) -> list[str]:
    """Unknown ``make <target>`` mentions in command-looking text."""
    if in_fence:
        # strip trailing shell comments: `make foo  # explains make bars`
        scopes = [re.split(r"(?:^|\s)#", line, maxsplit=1)[0]]
    else:
        scopes = [m.group(1) for m in _CODE_SPAN_RE.finditer(line)]
    problems = []
    for scope in scopes:
        for match in _MAKE_RE.finditer(scope):
            target = match.group(1)
            if target not in targets:
                problems.append(
                    f"make target {target!r} is not defined in the Makefile"
                )
    return problems


def _check_dotted_name(name: str) -> str | None:
    """Why the dotted ``repro.…`` ``name`` does not resolve, or ``None``."""
    parts = name.split(".")
    cut = len(parts)
    while True:  # ends at the latest on ``repro`` itself
        prefix = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(prefix)
            break
        except ImportError:
            cut -= 1
    for attr in parts[cut:]:
        if not hasattr(obj, attr):
            return f"dotted name {name!r} does not resolve: no {attr!r} in {prefix}"
        obj = getattr(obj, attr)
        prefix = f"{prefix}.{attr}"
    return None


def _check_command(rest: str, inventory: dict[str, set[str]]) -> list[str]:
    tokens = []
    for token in rest.split():
        if token in _SHELL_BREAKS or token.startswith("#"):
            break
        tokens.append(token)
    positional = [t for t in tokens if not t.startswith("-")]
    if not positional:
        return ["CLI example names no subcommand"]
    sub = positional[0]
    if sub not in inventory:
        return [
            f"unknown CLI subcommand {sub!r} "
            f"(valid: {', '.join(sorted(inventory))})"
        ]
    allowed = inventory[sub]
    problems = []
    for token in tokens:
        if not token.startswith("--"):
            continue
        flag = token.split("=", 1)[0]
        if flag not in allowed:
            problems.append(
                f"flag {flag!r} is not accepted by subcommand {sub!r}"
            )
    return problems


def check_file(
    path: Path,
    root: Path,
    inventory: dict[str, set[str]],
    make_targets: set[str] | None = None,
) -> list[DocFinding]:
    """All findings for one markdown file."""
    findings: list[DocFinding] = []
    rel = str(path.relative_to(root))
    text = path.read_text(encoding="utf-8")
    for lineno, line, in_fence in _iter_logical_lines(text):
        if in_fence:
            match = _CMD_RE.search(line)
            if match:
                for message in _check_command(match.group(1), inventory):
                    findings.append(DocFinding(rel, lineno, message))
        else:
            for match in _LINK_RE.finditer(line):
                message = _check_link(match.group(1), path.parent, root)
                if message:
                    findings.append(DocFinding(rel, lineno, message))
            for span in _CODE_SPAN_RE.finditer(line):
                for match in _DOTTED_RE.finditer(span.group(1)):
                    message = _check_dotted_name(match.group(0))
                    if message:
                        findings.append(DocFinding(rel, lineno, message))
        if make_targets is not None:
            for message in _check_make_mentions(line, in_fence, make_targets):
                findings.append(DocFinding(rel, lineno, message))
    return findings


def check_repo(root: Path | str = ".") -> list[DocFinding]:
    """Check ``README.md`` and every ``docs/*.md`` under ``root``."""
    root = Path(root).resolve()
    targets = []
    readme = root / "README.md"
    if readme.exists():
        targets.append(readme)
    targets.extend(sorted((root / "docs").glob("*.md")))
    inventory = _cli_inventory()
    make_targets = _makefile_targets(root)
    findings: list[DocFinding] = []
    for path in targets:
        findings.extend(check_file(path, root, inventory, make_targets))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.docscheck",
        description="validate doc links, CLI examples, make targets and "
        "dotted repro names against the live repository",
    )
    parser.add_argument(
        "root", nargs="?", default=".", help="repository root (default: .)"
    )
    args = parser.parse_args(argv)
    findings = check_repo(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"docs-check: {len(findings)} problem(s)", file=sys.stderr)
        return 1
    print("OK: doc links and CLI examples are consistent")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
