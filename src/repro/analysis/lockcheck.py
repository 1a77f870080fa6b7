"""``lock-discipline``: a guarded-by convention for threaded host state.

The solver service is a long-lived multi-threaded host — a dispatcher
thread, user-facing ``submit``/``status``/``cancel`` calls, the fleet's
supervise thread — and its first review surfaced a real concurrency
bug (a result-cache insert racing the cancellation check).
The wire-level exchange structures are already model-checked by
:mod:`repro.analysis.interleave`; this rule covers the *thread-level*
state those checks cannot see, by making the locking contract a
machine-checked annotation instead of a code comment:

**Declaring guards.**  Either a trailing comment on the attribute's
assignment (in ``__init__`` or the class body)::

    self._jobs = {}          # guarded-by: _lock

or a class-level mapping (checked identically)::

    GUARDED_BY = {"_latest": "_lock", "stats": "_lock"}

**What is enforced** (per class, purely lexically):

- every ``self.<attr>`` read or write of a guarded attribute happens
  inside a ``with self.<lock>:`` block for the declared lock — where
  "the declared lock" resolves through Condition aliasing: after
  ``self._cond = threading.Condition(self._lock)``, holding ``_cond``
  *is* holding ``_lock`` and either spelling satisfies the guard;
- a method may instead be documented as called with the lock held, via
  a trailing marker on its ``def`` line (``# lock-held: _lock``), which
  shifts the obligation to its callers — use sparingly, the marker is
  trusted, not verified;
- ``Condition.wait()`` must be called while holding the condition's
  lock **and** lexically inside a ``while`` loop (the classic
  wait-predicate idiom — an ``if`` guard misses spurious wakeups and
  notify races); ``notify``/``notify_all`` must hold the lock;
- lock acquisitions that nest (``with self._a:`` containing
  ``with self._b:``) build a per-class lock-order graph; a cycle —
  two locks taken in both orders on different paths — is the classic
  deadlock shape and is flagged on the back edge.

**Severities.**  Violations of the above are errors.  A guard naming an
attribute that is never assigned a recognized lock object is a warning
(the annotation protects nothing).  A ``GUARDED_BY`` entry whose
attribute never appears in the class is a note (stale annotation).

**Limits** (documented, deliberate): the analysis is lexical.  It does
not follow call graphs (a helper that acquires the lock for you needs
the ``# lock-held`` marker at its own ``def``), does not track locks of
*other* objects (``other._lock``), and treats code inside nested
function definitions as running without locks (a closure may execute
after the ``with`` block exits).  Thread-confined state — attributes
only one thread ever touches, like the fleet's host-loop bookkeeping —
should simply not be annotated; the convention is opt-in by design.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.core import Finding, Module, Rule, register_rule

__all__ = ["RULE_LOCK_DISCIPLINE"]

#: ``# guarded-by: _lock`` trailing an attribute assignment.
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")

#: ``# lock-held: _lock`` (or bare ``# lock-held``) trailing a ``def``.
_LOCK_HELD_RE = re.compile(r"#\s*lock-held(?::\s*([A-Za-z_]\w*))?")

#: Constructors that produce a lock-like object.
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition"})


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` attribute access, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_ctor(call: ast.AST) -> tuple[str, ast.AST | None] | None:
    """``(ctor_name, first_arg)`` when ``call`` builds a lock object."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name not in _LOCK_CTORS:
        return None
    if isinstance(func, ast.Attribute):
        root = func.value
        if not (isinstance(root, ast.Name) and root.id == "threading"):
            return None
    return name, (call.args[0] if call.args else None)


@dataclass
class _ClassLocks:
    """Everything the rule knows about one class's locking contract."""

    #: lock attr -> canonical lock attr (Condition aliasing resolved).
    canonical: dict[str, str] = field(default_factory=dict)
    #: lock attrs that are Conditions (wait/notify discipline applies).
    conditions: set[str] = field(default_factory=set)
    #: guarded attr -> (declared lock attr, declaration lineno).
    guarded: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: attrs assigned anywhere in the class (for stale-GUARDED_BY notes).
    assigned: set[str] = field(default_factory=set)

    def resolve(self, lock: str) -> str:
        return self.canonical.get(lock, lock)


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _collect_class(cls: ast.ClassDef, lines: list[str]) -> _ClassLocks:
    info = _ClassLocks()
    # GUARDED_BY class-level mapping.
    for node in cls.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "GUARDED_BY"
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    info.guarded[key.value] = (value.value, key.lineno)
    # Attribute assignments: locks, trailing guarded-by comments.
    for meth in _methods(cls):
        for node in ast.walk(meth):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value: ast.AST | None = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                info.assigned.add(attr)
                ctor = _lock_ctor(value) if value is not None else None
                if ctor is not None:
                    kind, first_arg = ctor
                    alias = _self_attr(first_arg) if first_arg is not None else None
                    info.canonical[attr] = alias if alias is not None else attr
                    if kind == "Condition":
                        info.conditions.add(attr)
                line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
                match = _GUARDED_RE.search(line)
                if match is not None:
                    info.guarded[attr] = (match.group(1), node.lineno)
    # Resolve one level of Condition aliasing onto the underlying lock.
    for attr, target in list(info.canonical.items()):
        info.canonical[attr] = info.canonical.get(target, target)
    return info


def _lock_held_marker(
    func: ast.FunctionDef | ast.AsyncFunctionDef, lines: list[str]
) -> str | None:
    """``# lock-held[: _lock]`` on the def line; ``"*"`` for the bare form."""
    line = lines[func.lineno - 1] if func.lineno <= len(lines) else ""
    match = _LOCK_HELD_RE.search(line)
    if match is None:
        return None
    return match.group(1) or "*"


class _MethodChecker:
    """One lexical pass over a method body, tracking held locks."""

    def __init__(
        self,
        module: Module,
        cls: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        info: _ClassLocks,
        held_marker: str | None,
        edges: dict[tuple[str, str], int],
    ) -> None:
        self.module = module
        self.cls = cls
        self.func = func
        self.info = info
        self.held_marker = held_marker
        self.edges = edges
        self.findings: list[Finding] = []

    # -- helpers ----------------------------------------------------------
    def _satisfied(self, lock: str, held: frozenset[str]) -> bool:
        if lock in held:
            return True
        if self.held_marker == "*":
            return True
        return self.held_marker is not None and (
            self.info.resolve(self.held_marker) == lock
        )

    def _err(self, node: ast.AST, message: str, severity: str = "error") -> None:
        self.findings.append(
            self.module.finding(node, "lock-discipline", message, severity)
        )

    # -- the walk ---------------------------------------------------------
    def check(self) -> list[Finding]:
        self._visit_body(self.func.body, frozenset(), in_while=False)
        return self.findings

    def _visit_body(
        self, body: list[ast.stmt], held: frozenset[str], in_while: bool
    ) -> None:
        for stmt in body:
            self._visit_stmt(stmt, held, in_while)

    def _visit_stmt(
        self, stmt: ast.stmt, held: frozenset[str], in_while: bool
    ) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in stmt.items:
                self._visit_expr(item.context_expr, held, in_while)
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in self.info.canonical:
                    lock = self.info.resolve(attr)
                    for prior in held | frozenset(acquired):
                        if prior != lock:
                            key = (prior, lock)
                            self.edges.setdefault(key, stmt.lineno)
                    acquired.append(lock)
            self._visit_body(stmt.body, held | frozenset(acquired), in_while)
            return
        if isinstance(stmt, (ast.While,)):
            self._visit_expr(stmt.test, held, in_while)
            self._visit_body(stmt.body, held, in_while=True)
            self._visit_body(stmt.orelse, held, in_while=True)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def may run after the enclosing with exits:
            # conservatively, it holds nothing.
            self._visit_body(stmt.body, frozenset(), in_while=False)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter, held, in_while)
            self._visit_expr(stmt.target, held, in_while)
            self._visit_body(stmt.body, held, in_while)
            self._visit_body(stmt.orelse, held, in_while)
            return
        if isinstance(stmt, (ast.If,)):
            self._visit_expr(stmt.test, held, in_while)
            self._visit_body(stmt.body, held, in_while)
            self._visit_body(stmt.orelse, held, in_while)
            return
        if isinstance(stmt, ast.Try):
            self._visit_body(stmt.body, held, in_while)
            for handler in stmt.handlers:
                self._visit_body(handler.body, held, in_while)
            self._visit_body(stmt.orelse, held, in_while)
            self._visit_body(stmt.finalbody, held, in_while)
            return
        # Leaf statements: check every expression they contain.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child, held, in_while)
            elif isinstance(child, ast.stmt):  # pragma: no cover - safety net
                self._visit_stmt(child, held, in_while)

    def _visit_expr(
        self, node: ast.AST, held: frozenset[str], in_while: bool
    ) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Lambda,)):
                continue  # deferred execution: treated as unlocked below
            if isinstance(sub, ast.Call):
                self._check_condition_call(sub, held, in_while)
            attr = _self_attr(sub)
            if attr is None or attr not in self.info.guarded:
                continue
            declared, _ = self.info.guarded[attr]
            lock = self.info.resolve(declared)
            if not self._satisfied(lock, held):
                self._err(
                    sub,
                    f"{self.cls.name}.{self.func.name}: access to "
                    f"{attr!r} (guarded-by {declared!r}) outside "
                    f"`with self.{declared}:` — annotate the method "
                    "`# lock-held` if callers hold the lock",
                )

    def _check_condition_call(
        self, call: ast.Call, held: frozenset[str], in_while: bool
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        cond_attr = _self_attr(func.value)
        if cond_attr is None or cond_attr not in self.info.conditions:
            return
        lock = self.info.resolve(cond_attr)
        if func.attr in ("wait", "wait_for", "notify", "notify_all"):
            if not self._satisfied(lock, held):
                self._err(
                    call,
                    f"{self.cls.name}.{self.func.name}: "
                    f"{cond_attr}.{func.attr}() without holding "
                    f"`self.{cond_attr}` — Condition methods require the lock",
                )
        if func.attr in ("wait", "wait_for") and not in_while:
            self._err(
                call,
                f"{self.cls.name}.{self.func.name}: {cond_attr}.{func.attr}() "
                "outside a `while <predicate>` loop — spurious wakeups and "
                "notify races make a bare wait incorrect",
            )


def _cycle_findings(
    module: Module, cls: ast.ClassDef, edges: dict[tuple[str, str], int]
) -> Iterator[Finding]:
    """DFS back-edge detection over the per-class lock-order graph."""
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    color: dict[str, int] = {}  # 0 white (absent), 1 grey, 2 black
    stack_path: list[str] = []

    def visit(node: str) -> Iterator[tuple[str, str]]:
        color[node] = 1
        stack_path.append(node)
        for succ in graph.get(node, ()):
            if color.get(succ, 0) == 1:
                yield node, succ  # back edge: cycle
            elif color.get(succ, 0) == 0:
                yield from visit(succ)
        stack_path.pop()
        color[node] = 2

    for start in sorted(graph):
        if color.get(start, 0) == 0:
            for a, b in visit(start):
                lineno = edges.get((a, b), cls.lineno)
                yield module.finding(
                    lineno,
                    "lock-discipline",
                    f"{cls.name}: lock-order cycle — {b!r} is acquired "
                    f"while holding {a!r} here, but {a!r} is also acquired "
                    f"while holding {b!r} elsewhere (deadlock shape)",
                )


def _check_lock_discipline(module: Module) -> Iterable[Finding]:
    lines = module.source.splitlines()
    for cls in (n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)):
        info = _collect_class(cls, lines)
        if not info.guarded and not info.canonical:
            continue
        # Annotation sanity: guards must name a real lock; GUARDED_BY
        # entries must name a real attribute.
        for attr, (declared, lineno) in sorted(info.guarded.items()):
            if info.resolve(declared) not in set(info.canonical.values()):
                yield module.finding(
                    lineno,
                    "lock-discipline",
                    f"{cls.name}.{attr}: guarded-by names {declared!r}, which "
                    "is never assigned a threading.Lock/RLock/Condition in "
                    "this class — the annotation protects nothing",
                    severity="warning",
                )
            if attr not in info.assigned:
                yield module.finding(
                    lineno,
                    "lock-discipline",
                    f"{cls.name}: GUARDED_BY entry {attr!r} matches no "
                    "attribute assigned in this class (stale annotation?)",
                    severity="note",
                )
        edges: dict[tuple[str, str], int] = {}
        for meth in _methods(cls):
            if meth.name == "__init__":
                continue  # construction precedes sharing
            marker = _lock_held_marker(meth, lines)
            if marker is not None and marker != "*" and (
                info.resolve(marker) not in set(info.canonical.values())
            ):
                yield module.finding(
                    meth,
                    "lock-discipline",
                    f"{cls.name}.{meth.name}: lock-held marker names "
                    f"{marker!r}, which is not a lock of this class",
                    severity="warning",
                )
            checker = _MethodChecker(module, cls, meth, info, marker, edges)
            yield from checker.check()
        yield from _cycle_findings(module, cls, edges)


RULE_LOCK_DISCIPLINE = register_rule(Rule(
    id="lock-discipline",
    description=(
        "attributes annotated `# guarded-by: <lock>` (or via a GUARDED_BY "
        "class mapping) are only accessed under `with self.<lock>:`; "
        "Condition.wait sits in a predicate loop under its lock; nested "
        "lock acquisitions are cycle-free"
    ),
    scope="module",
    check=_check_lock_discipline,
))
