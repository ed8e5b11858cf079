"""Cache/registry-discipline rules.

The LRU result cache is shared across sessions, datasets and versions;
its soundness rests on two structural conventions that nothing
previously checked:

* every :class:`~repro.engine.spec.QuerySpec` subclass states its
  ``cacheable`` / ``mutates`` contract **explicitly** (PR 4's update
  family exists precisely because the defaults were wrong for it — a
  cached mutation silently does not run, a worker-fanned mutation is
  silently lost);
* every cache key contains the dataset fingerprint, the component that
  makes stale hits impossible after live updates.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintContext, Rule, dotted_name, subtree_mentions


class SpecContractRule(Rule):
    """RPR201: spec classes declare ``cacheable`` and ``mutates``.

    Inheriting the base defaults silently is how the wrong contract ships:
    a new family with side effects that forgets ``cacheable = False`` will
    serve its second invocation from the cache and never run.  Every
    ``QuerySpec`` subclass must therefore write both flags down, even when
    they match the defaults.
    """

    code = "RPR201"
    name = "spec-contract"
    rationale = (
        "a QuerySpec family that inherits cacheable/mutates implicitly can "
        "ship the wrong caching contract; declare both explicitly"
    )
    node_types = (ast.ClassDef,)

    _REQUIRED = ("cacheable", "mutates")

    def check(self, node: ast.ClassDef, ctx: LintContext) -> None:
        if not any(
            dotted_name(base).split(".")[-1] == "QuerySpec"
            for base in node.bases
        ):
            return
        declared = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                declared.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                declared.update(
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                )
        missing = [f for f in self._REQUIRED if f not in declared]
        if missing:
            ctx.report(
                self,
                node,
                f"QuerySpec subclass {node.name} must declare "
                f"{', '.join(missing)} explicitly (ClassVar[bool]): implicit "
                "caching contracts are how mutations get cache-skipped",
            )


class CacheKeyFingerprintRule(Rule):
    """RPR202: cache keys must carry the dataset fingerprint.

    A key passed to ``*.cache.get_or_compute(...)`` / ``*cache*.put(...)``
    must derive from ``Session._key()`` (which folds in the dataset
    fingerprint) or visibly include a fingerprint/digest.  A key built
    from the spec alone serves stale results after any live update.
    """

    code = "RPR202"
    name = "cache-key-fingerprint"
    rationale = (
        "a cache key without the dataset fingerprint serves stale results "
        "after live updates; build keys via Session._key()"
    )
    node_types = (ast.Call,)
    default_paths = ("src/repro/*",)
    # the cache implementation itself defines these methods
    default_exclude = ("src/repro/engine/cache.py",)

    _KEY_TOKENS = ("_key", "cache_key", "fingerprint", "digest")

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in ("get_or_compute", "put"):
            return
        receiver = dotted_name(func.value)
        if "cache" not in receiver.lower():
            return
        if not node.args:
            return
        key_expr = ctx.resolve_name(node.args[0])
        if isinstance(key_expr, ast.Name):
            # an argument/nonlocal we cannot trace: not provably wrong
            return
        if subtree_mentions(key_expr, self._KEY_TOKENS):
            return
        ctx.report(
            self,
            node,
            f"cache key for {receiver}.{func.attr}() has no fingerprint "
            "component; build it with Session._key(...) so live updates "
            "can never serve stale entries",
        )
