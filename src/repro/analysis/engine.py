"""The rule-engine core: one AST walk per file, all rules dispatched.

Design
------
A :class:`Rule` declares the node types it cares about
(``node_types``) and a ``check(node, ctx)`` method; the
:class:`FileLinter` parses each file **once**, walks the tree with a
single recursive visitor that maintains the ambient context every rule
needs — enclosing function/class stacks, async-ness, function-local
assignment bindings — and dispatches each node to exactly the rules
registered for its type and active for this file's path.  Adding a rule
never adds a walk.

Per-file cost is therefore one ``ast.parse``, one tokenize pass (for
``# repro: ignore[...]`` suppressions), and one tree traversal,
independent of the rule count.

Rules *report* through :meth:`LintContext.report`; the engine applies
suppressions, then appends :data:`~repro.analysis.suppress.
UNUSED_SUPPRESSION` findings for stale ignores, so no rule ever
re-implements that bookkeeping.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.findings import ERROR, Finding
from repro.analysis.suppress import SuppressionIndex

#: Finding code for files that do not parse.
PARSE_ERROR = "RPR999"


class Rule:
    """Base class for one lint rule.

    Subclasses set ``code`` (``RPRxxx``), ``name`` (short kebab slug),
    ``severity``, a one-line ``rationale`` (surfaced by ``--explain`` and
    the README table), the ``node_types`` tuple they want dispatched, and
    the default path scoping (``default_paths`` — empty means every file —
    and ``default_exclude``).
    """

    code: str = "RPR000"
    name: str = "abstract"
    severity: str = ERROR
    rationale: str = ""
    node_types: Tuple[type, ...] = ()
    default_paths: Tuple[str, ...] = ()
    default_exclude: Tuple[str, ...] = ()

    def check(self, node: ast.AST, ctx: "LintContext") -> None:
        raise NotImplementedError


class _FunctionFrame:
    """Per-function ambient state (assignment bindings for key tracing)."""

    __slots__ = ("node", "is_async", "assignments")

    def __init__(self, node: ast.AST, is_async: bool):
        self.node = node
        self.is_async = is_async
        #: simple name -> the last AST expression assigned to it (used by
        #: rules that trace a value one hop, e.g. the cache-key rule)
        self.assignments: Dict[str, ast.AST] = {}


class LintContext:
    """Everything a rule may consult while checking one node."""

    def __init__(self, path: str, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.source = source
        self.func_stack: List[_FunctionFrame] = []
        self.class_stack: List[ast.ClassDef] = []
        self._findings: List[Tuple[str, Finding]] = []

    # -- ambient queries -------------------------------------------------
    @property
    def in_async_function(self) -> bool:
        """True iff the *innermost* enclosing function is ``async def``."""
        return bool(self.func_stack) and self.func_stack[-1].is_async

    def enclosing_function_names(self) -> List[str]:
        return [
            frame.node.name
            for frame in self.func_stack
            if isinstance(frame.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def resolve_name(self, node: ast.AST) -> ast.AST:
        """One-hop resolution: a bare Name becomes its last assigned
        expression in the current function, when known."""
        if isinstance(node, ast.Name) and self.func_stack:
            return self.func_stack[-1].assignments.get(node.id, node)
        return node

    # -- reporting -------------------------------------------------------
    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        self._findings.append(
            (
                rule.code,
                Finding(
                    path=self.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    code=rule.code,
                    severity=rule.severity,
                    message=message,
                ),
            )
        )


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain; ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")  # call/subscript base: keep the attr tail
    return ".".join(reversed(parts))


def contains_await(node: ast.AST) -> bool:
    """Does *node*'s subtree await, ignoring nested function bodies?"""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            return True
        if contains_await(child):
            return True
    return False


def subtree_mentions(node: ast.AST, tokens: Sequence[str]) -> bool:
    """Does any Name/Attribute/Call-name in *node* contain one of *tokens*?"""
    for sub in ast.walk(node):
        text = ""
        if isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        if text and any(token in text for token in tokens):
            return True
    return False


class FileLinter:
    """Runs a fixed rule set over files, honoring config scoping."""

    def __init__(self, rules: Sequence[Rule], config: LintConfig):
        self.rules = list(rules)
        self.config = config
        codes = [rule.code for rule in self.rules]
        if len(set(codes)) != len(codes):
            raise ValueError(f"duplicate rule codes in {codes}")
        self.active: Set[str] = config.active_codes(codes)
        self._by_type: Dict[type, List[Rule]] = {}
        for rule in self.rules:
            if rule.code not in self.active:
                continue
            for node_type in rule.node_types:
                self._by_type.setdefault(node_type, []).append(rule)

    # ------------------------------------------------------------------
    def rel_path(self, path: Path) -> str:
        """Path relative to the config root (posix), for glob scoping."""
        resolved = path.resolve()
        root = self.config.root
        if root is not None:
            try:
                return resolved.relative_to(root).as_posix()
            except ValueError:
                pass
        try:
            return resolved.relative_to(Path.cwd()).as_posix()
        except ValueError:
            return resolved.as_posix()

    def _rules_for(self, rel: str) -> Dict[type, List[Rule]]:
        by_type: Dict[type, List[Rule]] = {}
        for node_type, rules in self._by_type.items():
            scoped = [
                rule
                for rule in rules
                if self.config.rule_applies(
                    rule.code, rel, rule.default_paths, rule.default_exclude
                )
            ]
            if scoped:
                by_type[node_type] = scoped
        return by_type

    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: Path) -> List[Finding]:
        """Lint one in-memory module (the fixture-test entry point)."""
        rel = self.rel_path(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code=PARSE_ERROR,
                    severity=ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            ]
        suppressions = SuppressionIndex(source)
        ctx = LintContext(rel, tree, source)
        self._walk(tree, ctx, self._rules_for(rel))

        kept: List[Finding] = []
        for code, finding in ctx._findings:
            if not suppressions.suppresses(finding.line, code):
                kept.append(finding)
        kept.extend(suppressions.unused_findings(rel, self.active))
        kept.sort()
        return kept

    def lint_file(self, path: Path) -> List[Finding]:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [
                Finding(
                    path=self.rel_path(path),
                    line=1,
                    col=0,
                    code=PARSE_ERROR,
                    severity=ERROR,
                    message=f"cannot read file: {exc}",
                )
            ]
        return self.lint_source(source, path)

    def lint_paths(self, paths: Iterable[Path]) -> Tuple[List[Finding], int]:
        """Lint ``.py`` files under *paths*; returns (findings, file count).

        Directories recurse (sorted, so output order is stable across
        filesystems); explicit files are linted whatever their suffix.
        """
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        findings: List[Finding] = []
        for file_path in files:
            findings.extend(self.lint_file(file_path))
        return findings, len(files)

    # ------------------------------------------------------------------
    def _walk(
        self,
        node: ast.AST,
        ctx: LintContext,
        by_type: Dict[type, List[Rule]],
    ) -> None:
        for rule in by_type.get(type(node), ()):
            rule.check(node, ctx)

        is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        is_class = isinstance(node, ast.ClassDef)
        if is_func:
            ctx.func_stack.append(
                _FunctionFrame(node, isinstance(node, ast.AsyncFunctionDef))
            )
        elif isinstance(node, ast.Lambda):
            # a lambda body is not the enclosing async function's body
            ctx.func_stack.append(_FunctionFrame(node, False))
        elif is_class:
            ctx.class_stack.append(node)
        elif (
            isinstance(node, ast.Assign)
            and ctx.func_stack
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            ctx.func_stack[-1].assignments[node.targets[0].id] = node.value

        for child in ast.iter_child_nodes(node):
            self._walk(child, ctx, by_type)

        if is_func or isinstance(node, ast.Lambda):
            ctx.func_stack.pop()
        elif is_class:
            ctx.class_stack.pop()
