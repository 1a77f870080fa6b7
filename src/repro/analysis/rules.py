"""The core project-invariant rules behind ``python -m repro analyze``.

Every rule is purely static: declarations (the telemetry schema, the
``AbsConfig`` field list) are read from the *analyzed* files' ASTs, so
the rules work identically on the real tree and on self-contained test
fixtures.  Rule catalog with rationale: ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Iterable, Iterator, Sequence

from repro.analysis.core import Finding, Module, Rule, register_rule
from repro.analysis.lockcheck import RULE_LOCK_DISCIPLINE

__all__ = [
    "RULE_CONFIG_PLUMBING",
    "RULE_KERNEL_PURITY",
    "RULE_LOCK_DISCIPLINE",
    "RULE_RNG_DISCIPLINE",
    "RULE_SHM_PROTOCOL",
    "RULE_TELEMETRY",
]


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _str_const(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _fstring_pattern(node: ast.JoinedStr) -> str:
    """Normalize an f-string: each interpolation becomes one ``*``."""
    parts: list[str] = []
    for piece in node.values:
        if isinstance(piece, ast.Constant):
            parts.append(str(piece.value))
        else:
            parts.append("*")
    return "".join(parts)


def _first_arg(call: ast.Call) -> ast.AST | None:
    return call.args[0] if call.args else None


def _module_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# --------------------------------------------------------------------------
# 1. telemetry-consistency
# --------------------------------------------------------------------------

def _extract_schema_decls(module: Module) -> dict[str, dict[str, int]] | None:
    """``{"events"|"counters"|"patterns": {name: decl lineno}}`` or None."""
    events: dict[str, int] = {}
    counters: dict[str, int] = {}
    patterns: dict[str, int] = {}
    found_events = False
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id == "EVENT_SCHEMAS" and isinstance(value, ast.Dict):
                found_events = True
                for key in value.keys:
                    name = _str_const(key) if key is not None else None
                    if name is not None:
                        events[name] = key.lineno  # type: ignore[union-attr]
            elif target.id == "COUNTER_NAMES":
                inner = value
                if isinstance(inner, ast.Call) and len(inner.args) == 1:
                    inner = inner.args[0]  # frozenset({...})
                if isinstance(inner, (ast.Set, ast.List, ast.Tuple)):
                    for elt in inner.elts:
                        name = _str_const(elt)
                        if name is not None:
                            counters[name] = elt.lineno
            elif target.id == "COUNTER_PATTERNS":
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for elt in value.elts:
                        name = _str_const(elt)
                        if name is not None:
                            patterns[name] = elt.lineno
    if not found_events:
        return None
    return {"events": events, "counters": counters, "patterns": patterns}


def _is_inc_call(call: ast.Call) -> bool:
    """``<…>.counters.inc(…)`` — the CounterRegistry increment idiom."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "inc"):
        return False
    base = func.value
    return (isinstance(base, ast.Attribute) and base.attr == "counters") or (
        isinstance(base, ast.Name) and base.id == "counters"
    )


def _is_emit_call(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "emit"


def _check_telemetry(modules: Sequence[Module]) -> Iterable[Finding]:
    rule = "telemetry-consistency"
    schema_module: Module | None = None
    decls: dict[str, dict[str, int]] | None = None
    for module in modules:
        extracted = _extract_schema_decls(module)
        if extracted is not None:
            schema_module, decls = module, extracted
            break
    if decls is None:
        # No schema in the analyzed set (single-file run): fall back to
        # the installed declarations; dead-declaration checks are
        # meaningless without the full tree, so skip them.
        from repro.telemetry import schema as _schema

        decls = {
            "events": dict.fromkeys(_schema.EVENT_SCHEMAS, 0),
            "counters": dict.fromkeys(_schema.COUNTER_NAMES, 0),
            "patterns": dict.fromkeys(_schema.COUNTER_PATTERNS, 0),
        }

    events, counters, patterns = decls["events"], decls["counters"], decls["patterns"]
    live_events: set[str] = set()
    live_counters: set[str] = set()
    live_patterns: set[str] = set()
    string_pool: set[str] = set()  # every str constant outside the schema
    emitters = [m for m in modules if m is not schema_module]

    for module in emitters:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                string_pool.add(node.value)
            if not isinstance(node, ast.Call):
                continue
            arg = _first_arg(node)
            if _is_emit_call(node):
                name = _str_const(arg) if arg is not None else None
                if name is not None:
                    live_events.add(name)
                    if name not in events:
                        yield module.finding(
                            node, rule,
                            f"event {name!r} is not declared in the telemetry schema",
                        )
                elif isinstance(arg, ast.JoinedStr):
                    yield module.finding(
                        node, rule,
                        "event name is an f-string — event names must be "
                        "literal so the schema can be checked statically",
                    )
                # a plain variable first arg is the relay re-emit idiom:
                # the original literal site is checked instead.
            elif _is_inc_call(node):
                name = _str_const(arg) if arg is not None else None
                if name is not None:
                    if name in counters:
                        live_counters.add(name)
                    else:
                        matched = [p for p in patterns if fnmatchcase(name, p)]
                        if matched:
                            live_patterns.update(matched)
                        else:
                            yield module.finding(
                                node, rule,
                                f"counter {name!r} is not declared in "
                                "COUNTER_NAMES (telemetry schema)",
                            )
                elif isinstance(arg, ast.JoinedStr):
                    pattern = _fstring_pattern(arg)
                    if pattern in patterns:
                        live_patterns.add(pattern)
                    else:
                        yield module.finding(
                            node, rule,
                            f"dynamic counter {pattern!r} does not match any "
                            "COUNTER_PATTERNS entry (telemetry schema)",
                        )

    if schema_module is None or not emitters:
        return
    # Drift in the other direction: declarations nobody emits.  A fixed
    # counter also counts as live when its name appears as a string
    # constant anywhere: run counters are kept in plain dicts and
    # attributes, and reach the bus only through the one fold of
    # ``SolveResult.counters`` in ``AdaptiveBulkSearch._search``, by
    # variable name.
    for name, lineno in events.items():
        if name not in live_events:
            yield schema_module.finding(
                lineno, rule, f"declared event {name!r} has no emit site"
            )
    for name, lineno in counters.items():
        if name not in live_counters and name not in string_pool:
            yield schema_module.finding(
                lineno, rule, f"declared counter {name!r} has no increment site"
            )
    for name, lineno in patterns.items():
        if name not in live_patterns:
            yield schema_module.finding(
                lineno, rule,
                f"declared counter pattern {name!r} has no f-string increment site",
            )


RULE_TELEMETRY = register_rule(Rule(
    id="telemetry-consistency",
    description=(
        "every bus.emit()/counter name must be declared in "
        "repro.telemetry.schema, and every declaration must have an emitter"
    ),
    scope="project",
    check=_check_telemetry,
))


# --------------------------------------------------------------------------
# 2. rng-discipline
# --------------------------------------------------------------------------

#: numpy.random constructors that *produce* seeded generators — allowed.
_RNG_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)


def _check_rng(module: Module) -> Iterable[Finding]:
    rule = "rng-discipline"
    numpy_aliases = {"numpy"}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name in ("random", "numpy.random"):
                    yield module.finding(
                        node, rule,
                        f"import of {alias.name!r} in the deterministic search "
                        "stack — thread a seeded np.random.Generator instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield module.finding(
                    node, rule,
                    "import from stdlib 'random' in the deterministic search "
                    "stack — thread a seeded np.random.Generator instead",
                )
            elif node.module is not None and node.module.endswith(".random") and (
                node.module.split(".", 1)[0] in numpy_aliases
            ):
                for alias in node.names:
                    if alias.name not in _RNG_ALLOWED:
                        yield module.finding(
                            node, rule,
                            f"'from numpy.random import {alias.name}' pulls in "
                            "module-level (global-state) RNG",
                        )

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if chain is None:
            continue
        parts = chain.split(".")
        if (
            len(parts) >= 3
            and parts[0] in numpy_aliases
            and parts[1] == "random"
            and parts[2] not in _RNG_ALLOWED
        ):
            yield module.finding(
                node, rule,
                f"call to global-state RNG {chain!r} breaks lockstep "
                "determinism — use a seeded Generator threaded from AbsConfig.seed",
            )
        elif parts[0] == "random" and len(parts) >= 2 and parts[0] not in numpy_aliases:
            yield module.finding(
                node, rule,
                f"call to stdlib RNG {chain!r} — use a seeded np.random.Generator",
            )
        elif parts[-1] == "default_rng" and not node.args and not node.keywords:
            yield module.finding(
                node, rule,
                "default_rng() without a seed is nondeterministic — pass a "
                "seed or SeedSequence derived from AbsConfig.seed",
            )


RULE_RNG_DISCIPLINE = register_rule(Rule(
    id="rng-discipline",
    description=(
        "no global-state RNG (np.random.* module calls, stdlib random, "
        "unseeded default_rng) in the deterministic search stack"
    ),
    scope="module",
    check=_check_rng,
    path_parts=(
        "repro/search/", "repro/ga/", "repro/abs/",
        "repro/backends/", "repro/gpusim/",
    ),
))


# --------------------------------------------------------------------------
# 3. config-plumbing
# --------------------------------------------------------------------------

def _config_fields(
    modules: Sequence[Module], class_name: str
) -> tuple[Module, dict[str, int]] | None:
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                fields = {
                    stmt.target.id: stmt.lineno
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                }
                return module, fields
    return None


def _config_keywords(scope: ast.AST, class_name: str) -> tuple[set[str], bool]:
    """Keyword names passed to ``<class_name>(...)`` calls under ``scope``.

    The bool is True when a ``**kwargs`` splat reaches the constructor
    (every field is then considered plumbed).
    """
    keywords: set[str] = set()
    splat = False
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if chain is None or chain.split(".")[-1] != class_name:
            continue
        for kw in node.keywords:
            if kw.arg is None:
                splat = True
            else:
                keywords.add(kw.arg)
    return keywords, splat


def _absconfig_fields(modules: Sequence[Module]) -> tuple[Module, dict[str, int]] | None:
    return _config_fields(modules, "AbsConfig")


def _absconfig_keywords(scope: ast.AST) -> tuple[set[str], bool]:
    return _config_keywords(scope, "AbsConfig")


def _check_config_plumbing(modules: Sequence[Module]) -> Iterable[Finding]:
    rule = "config-plumbing"
    located = _absconfig_fields(modules)
    if located is None:
        return
    config_module, fields = located
    if not fields:
        return

    api_module = next((m for m in modules if m.path.name == "api.py"), None)
    cli_module = next((m for m in modules if m.path.name == "cli.py"), None)

    if api_module is not None:
        solve = next(
            (f for f in _module_functions(api_module.tree) if f.name == "solve"),
            None,
        )
        if solve is not None:
            params = {a.arg for a in solve.args.args + solve.args.kwonlyargs}
            has_var_kw = solve.args.kwarg is not None
            keywords, splat = _absconfig_keywords(solve)
            for name, lineno in fields.items():
                if name not in keywords and not splat:
                    yield config_module.finding(
                        lineno, rule,
                        f"AbsConfig.{name} is never passed to AbsConfig() "
                        "inside api.solve() — knob unreachable from solve(...)",
                    )
                elif name not in params and not has_var_kw:
                    yield config_module.finding(
                        lineno, rule,
                        f"AbsConfig.{name} is not a keyword of api.solve() — "
                        "knob unreachable from the one-call API",
                    )

    if cli_module is not None:
        keywords, splat = _absconfig_keywords(cli_module.tree)
        for name, lineno in fields.items():
            if name not in keywords and not splat:
                yield config_module.finding(
                    lineno, rule,
                    f"AbsConfig.{name} is never passed to AbsConfig() in the "
                    "CLI — knob unreachable from the command line",
                )

    # The warm-fleet service config gets the same treatment: every
    # ServiceConfig knob must reach a ServiceConfig(...) call in the CLI
    # (the `serve` subcommand), so adding a field without a flag fails
    # `make analyze`.
    svc = _config_fields(modules, "ServiceConfig")
    if svc is not None and cli_module is not None:
        svc_module, svc_fields = svc
        keywords, splat = _config_keywords(cli_module.tree, "ServiceConfig")
        for name, lineno in svc_fields.items():
            if name not in keywords and not splat:
                yield svc_module.finding(
                    lineno, rule,
                    f"ServiceConfig.{name} is never passed to ServiceConfig() "
                    "in the CLI — knob unreachable from `serve`",
                )


RULE_CONFIG_PLUMBING = register_rule(Rule(
    id="config-plumbing",
    description=(
        "every AbsConfig field must be reachable from api.solve() kwargs "
        "and from an AbsConfig(...) call in the CLI; every ServiceConfig "
        "field from a ServiceConfig(...) call in the CLI"
    ),
    scope="project",
    check=_check_config_plumbing,
))


# --------------------------------------------------------------------------
# 4. kernel-purity
# --------------------------------------------------------------------------

#: Engine/telemetry layers a kernel backend must not reach back into.
_FORBIDDEN_BACKEND_IMPORTS = (
    "repro.telemetry", "repro.abs", "repro.gpusim", "repro.ga",
)

_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict", "deque", "Counter"})

#: The per-flip kernel interface: methods with these names on a Backend
#: class run once per step (or per batch of steps) on the hot path.
_HOT_KERNEL_METHODS = frozenset({
    "flip", "select_window", "select_straight", "update_best",
    "track_position", "run_local_steps", "run_straight",
})

#: Call roots that mean process/filesystem/warning work.  Legal in
#: ``prepare_*()`` and module-level factories such as
#: ``make_bitplane_backend`` (that is where the bitplane backend
#: compiles its C library); never in a hot kernel method.
#: ``ctypes``/``os`` are deliberately absent — calling an already
#: compiled function is exactly what a hot kernel is for.
_HOT_KERNEL_FORBIDDEN_ROOTS = frozenset({
    "subprocess", "tempfile", "shutil", "warnings",
})
_HOT_KERNEL_FORBIDDEN_BUILTINS = frozenset({"open", "print", "exec", "compile"})


def _module_mutable_globals(tree: ast.Module) -> set[str]:
    mutable: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        is_mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CTORS
        )
        if is_mutable:
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
    return mutable


def _kernel_scopes(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Kernel bodies: Backend-subclass methods and *nested* functions.

    Module-level helper functions (the constructors in the
    ``repro.backends`` name table, such as ``make_bitplane_backend``)
    are legitimately stateful; the purity constraint applies to
    the code that runs per flip — backend methods and any closures
    defined inside them (a kernel a future JIT backend would compile).
    """
    funcs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            (base_name := _dotted(base)) and "Backend" in base_name.split(".")[-1]
            for base in node.bases
        ):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    funcs.add(sub)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is not node and isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    funcs.add(sub)
    return iter(sorted(funcs, key=lambda f: f.lineno))


def _check_kernel_purity(module: Module) -> Iterable[Finding]:
    rule = "kernel-purity"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith(
                    _FORBIDDEN_BACKEND_IMPORTS
                ):
                    yield module.finding(
                        node, rule,
                        f"backend module imports {alias.name!r} — kernels must "
                        "not reach back into engine/telemetry state",
                    )
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module == "repro" or node.module.startswith(
                _FORBIDDEN_BACKEND_IMPORTS
            ):
                yield module.finding(
                    node, rule,
                    f"backend module imports from {node.module!r} — kernels "
                    "must not reach back into engine/telemetry state",
                )
        elif isinstance(node, ast.Call) and (
            _is_emit_call(node) or _is_inc_call(node)
        ):
            yield module.finding(
                node, rule,
                "telemetry emitted from a kernel backend — timing/counting "
                "belongs to the engine wrapper, so kernels stay pure and "
                "swappable",
            )

    mutable = _module_mutable_globals(module.tree)
    for func in _kernel_scopes(module.tree):
        local_names = {a.arg for a in func.args.args + func.args.kwonlyargs}
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield module.finding(
                    node, rule,
                    f"kernel body {func.name!r} rebinds outer state via "
                    f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}",
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable
                and node.id not in local_names
            ):
                yield module.finding(
                    node, rule,
                    f"kernel body {func.name!r} closes over mutable module "
                    f"global {node.id!r} (breaks nopython compilation and "
                    "process isolation)",
                )

    for klass in ast.walk(module.tree):
        if not (
            isinstance(klass, ast.ClassDef)
            and any(
                (base_name := _dotted(base))
                and "Backend" in base_name.split(".")[-1]
                for base in klass.bases
            )
        ):
            continue
        for func in ast.walk(klass):
            if (
                not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or func.name not in _HOT_KERNEL_METHODS
            ):
                continue
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                dotted = _dotted(call.func)
                if not dotted:
                    continue
                root = dotted.split(".")[0]
                if root in _HOT_KERNEL_FORBIDDEN_ROOTS or (
                    "." not in dotted and dotted in _HOT_KERNEL_FORBIDDEN_BUILTINS
                ):
                    yield module.finding(
                        call, rule,
                        f"hot kernel {func.name!r} calls {dotted!r} — "
                        "process/file/warning work belongs in prepare_*() "
                        "or a module-level factory such as "
                        "make_bitplane_backend, not the per-flip path",
                    )


RULE_KERNEL_PURITY = register_rule(Rule(
    id="kernel-purity",
    description=(
        "repro.backends kernel bodies must not emit telemetry, close over "
        "mutable module globals, or import engine state; hot kernel methods "
        "must not do process/file/warning work"
    ),
    scope="module",
    check=_check_kernel_purity,
    path_parts=("repro/backends/",),
))


# --------------------------------------------------------------------------
# 5. shm-protocol
# --------------------------------------------------------------------------

#: Attribute names of the exchange payload views (everything that must be
#: ordered around the `_header` sequence/epoch words).
_PAYLOAD_ATTRS = frozenset({"_slots", "_meta", "_energies", "_packed"})


def _is_exchange_module(module: Module) -> bool:
    posix = module.path.as_posix()
    return posix.endswith("abs/exchange.py") or posix.endswith("/exchange.py")


def _is_checker_module(module: Module) -> bool:
    return "repro/analysis/" in module.path.as_posix()


def _subscript_base_attr(node: ast.Subscript, aliases: dict[str, str]) -> str | None:
    """Payload attribute a subscript ultimately targets, or None.

    Resolves one level of local aliasing (``meta = self._meta[s]``)
    recorded in ``aliases``.
    """
    base = node.value
    if isinstance(base, ast.Attribute) and base.attr in _PAYLOAD_ATTRS:
        return base.attr
    if isinstance(base, ast.Name) and base.id in aliases:
        return aliases[base.id]
    return None


def _header_index(node: ast.Subscript) -> str | None:
    """``_H_SEQ``/``_H_EPOCH`` for a ``…._header[<idx>]`` subscript."""
    if not (isinstance(node.value, ast.Attribute) and node.value.attr == "_header"):
        return None
    idx = node.slice
    if isinstance(idx, ast.Name) and idx.id in ("_H_SEQ", "_H_EPOCH"):
        return idx.id
    return None


def _protocol_events(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """Ordered shared-memory access events in one method body."""
    aliases: dict[str, str] = {}
    events: list[tuple[int, str]] = []  # (lineno, kind)
    nodes = sorted(
        (n for n in ast.walk(func) if hasattr(n, "lineno")),
        key=lambda n: (n.lineno, n.col_offset),
    )
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name):
                attr: str | None = None
                if isinstance(value, ast.Subscript):
                    attr = _subscript_base_attr(value, aliases)
                elif isinstance(value, ast.Attribute) and value.attr in _PAYLOAD_ATTRS:
                    attr = value.attr
                if attr is not None:
                    aliases[target.id] = attr
        if not isinstance(node, ast.Subscript):
            continue
        header = _header_index(node)
        store = isinstance(node.ctx, ast.Store)
        if header is not None:
            kind = ("store:" if store else "load:") + header
            events.append((node.lineno, kind))
        elif _subscript_base_attr(node, aliases) is not None:
            events.append((node.lineno, "store:payload" if store else "load:payload"))
    return events


def _check_shm_protocol(module: Module) -> Iterable[Finding]:
    rule = "shm-protocol"
    outside_exchange = not _is_exchange_module(module)
    checker = _is_checker_module(module)

    if outside_exchange and not checker:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Attribute
            ) and node.value.attr == "buf":
                yield module.finding(
                    node, rule,
                    "raw SharedMemory.buf indexing outside exchange.py — the "
                    "seqlock/ring layout is owned by repro.abs.exchange",
                )
            elif isinstance(node, ast.Attribute) and node.attr == "_header" and not (
                isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            ):
                yield module.finding(
                    node, rule,
                    "exchange _header word accessed outside the protocol module",
                )
            elif isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if chain is not None and chain.split(".")[-1] == "ndarray":
                    kw = {k.arg: k.value for k in node.keywords if k.arg}
                    buffer = kw.get("buffer")
                    if (
                        "offset" in kw
                        and isinstance(buffer, ast.Attribute)
                        and buffer.attr == "buf"
                    ):
                        yield module.finding(
                            node, rule,
                            "offset ndarray view over SharedMemory.buf outside "
                            "exchange.py — layout arithmetic must stay in the "
                            "protocol module",
                        )

    # Store-ordering checks for any seqlock/SPSC-shaped method (the real
    # exchange classes and protocol fixtures alike).
    for cls in (n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)):
        for func in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            events = _protocol_events(func)
            if not events:
                continue
            seq_stores = [ln for ln, k in events if k == "store:_H_SEQ"]
            epoch_stores = [ln for ln, k in events if k == "store:_H_EPOCH"]
            seq_loads = [ln for ln, k in events if k == "load:_H_SEQ"]
            p_stores = [ln for ln, k in events if k == "store:payload"]
            p_loads = [ln for ln, k in events if k == "load:payload"]

            if seq_stores and p_stores:
                # Seqlock writer: the (final) sequence-word store is the
                # publication point — every payload/epoch store must
                # precede it, or a reader can see a fresh generation
                # with a half-written payload.
                publish = max(seq_stores)
                for ln in p_stores + epoch_stores:
                    if ln > publish:
                        yield module.finding(
                            ln, rule,
                            f"{cls.name}.{func.name}: payload/epoch stored "
                            "after the sequence word was published — readers "
                            "can observe a torn record",
                        )
            elif epoch_stores and p_loads and not seq_stores:
                # SPSC consumer: advancing tail releases the slot to the
                # producer — every payload copy must complete first.
                release = min(epoch_stores)
                for ln in p_loads:
                    if ln > release:
                        yield module.finding(
                            ln, rule,
                            f"{cls.name}.{func.name}: payload read after the "
                            "tail word released the slot — the producer may "
                            "overwrite it mid-copy",
                        )
            elif p_loads and seq_loads and not (seq_stores or epoch_stores):
                # Seqlock reader: the sequence word must be re-checked
                # after the last payload copy, or torn reads go
                # undetected.
                if max(seq_loads) < max(p_loads):
                    yield module.finding(
                        max(p_loads), rule,
                        f"{cls.name}.{func.name}: no sequence-word re-check "
                        "after the payload copy — torn reads are undetectable",
                    )


RULE_SHM_PROTOCOL = register_rule(Rule(
    id="shm-protocol",
    description=(
        "SharedMemory.buf arithmetic stays inside exchange.py; seqlock/SPSC "
        "methods must order payload stores/copies around the header words"
    ),
    scope="module",
    check=_check_shm_protocol,
))
