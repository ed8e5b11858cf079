"""Determinism rules: the bit-identical-results contract, statically.

The engine's hardest property is that every query result is bit-identical
across runs, kernels, and worker fan-out.  Three things
have historically threatened it: wall-clock reads leaking into outputs,
unseeded random number generation, and iteration order of unordered
containers flowing into result positions (the PR 3 bug class — a
``set()`` of R-tree hits fed Eq. (2)'s product order and flipped result
bits between runs).
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.analysis.engine import LintContext, Rule, dotted_name

#: Paths where determinism is the contract.  Benchmarks and reporters
#: legitimately timestamp their reports; the obs tracer's *default* clock
#: is the injectable seam itself.
_LIB_PATHS: Tuple[str, ...] = ("src/repro/*",)
_CLOCK_EXEMPT: Tuple[str, ...] = ("src/repro/bench/*",)


class WallClockRule(Rule):
    """RPR001: no wall-clock reads in engine code.

    ``time.time()`` / ``datetime.now()`` values drift between runs and
    hosts; anything derived from them that reaches a result envelope,
    cache key, or trace breaks byte-stable replay.  Durations must use
    ``time.monotonic()`` / ``time.perf_counter()``; timestamps belong in
    benchmarks/reporters or behind the ``Tracer(clock=...)`` seam.
    """

    code = "RPR001"
    name = "wall-clock"
    rationale = (
        "wall-clock reads drift across runs/hosts; use monotonic clocks "
        "or the obs injected-clock seam"
    )
    node_types = (ast.Call,)
    default_paths = _LIB_PATHS
    default_exclude = _CLOCK_EXEMPT

    _WALL_TAILS = {
        ("time", "time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        parts = dotted_name(node.func).split(".")
        if len(parts) >= 2 and tuple(parts[-2:]) in self._WALL_TAILS:
            ctx.report(
                self,
                node,
                f"wall-clock call {'.'.join(parts)}(): use time.monotonic()/"
                "perf_counter() for durations, or confine timestamps to "
                "benchmarks/reporters (obs clocks are injectable)",
            )


class UnseededRngRule(Rule):
    """RPR002: no unseeded or global-state randomness outside the seam.

    All randomness flows through :mod:`repro.datasets.rng` (or an
    explicitly seeded ``default_rng(seed)``): ``default_rng()`` with no
    seed and the global-state ``random.*`` / ``np.random.*`` module
    functions give run-varying streams that break replay and the
    hypothesis bit-parity suites.
    """

    code = "RPR002"
    name = "unseeded-rng"
    rationale = (
        "unseeded default_rng() / global random.* state varies per run; "
        "route randomness through datasets/rng.py or pass a seed"
    )
    node_types = (ast.Call,)
    default_paths = _LIB_PATHS
    default_exclude = _CLOCK_EXEMPT + ("src/repro/datasets/rng.py",)

    #: numpy legacy global-state functions (np.random.<fn>)
    _NP_LEGACY = {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "seed", "uniform", "normal", "beta",
        "binomial", "poisson", "exponential",
    }

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        parts = dotted_name(node.func).split(".")
        if not parts or parts == [""]:
            return
        tail = parts[-1]
        if tail == "default_rng" and not node.args and not node.keywords:
            ctx.report(
                self,
                node,
                "default_rng() without a seed gives a run-varying stream; "
                "pass an explicit seed or accept an rng parameter "
                "(see repro.datasets.rng.make_rng)",
            )
            return
        if len(parts) >= 2 and parts[-2] == "random":
            base = parts[0]
            if base in ("np", "numpy") and tail in self._NP_LEGACY:
                ctx.report(
                    self,
                    node,
                    f"np.random.{tail}() uses hidden global RNG state; "
                    "use a seeded np.random.Generator instead",
                )
            elif base == "random" and len(parts) == 2 and tail != "Random":
                ctx.report(
                    self,
                    node,
                    f"random.{tail}() uses the process-global RNG; use a "
                    "seeded random.Random(seed) or numpy Generator",
                )
        elif tail == "Random" and parts[-2:] == ["random", "Random"] and not (
            node.args or node.keywords
        ):
            ctx.report(
                self,
                node,
                "random.Random() without a seed is run-varying; pass a seed",
            )


class UnorderedIterationRule(Rule):
    """RPR003: no raw set/dict-view iteration in result-ordering code.

    In the ordering-sensitive subsystems (engine, prsq, index, uncertain,
    core) a ``for`` / comprehension directly over ``set(...)``, a set
    literal/comprehension, or ``.values()`` / ``.keys()`` views lets hash
    or insertion order leak into result positions — the exact PR 3 bug
    (Eq. (2) product order came from a hit ``set``).  Canonicalize first:
    ``sorted(...)``, an explicit key, or dataset order.
    """

    code = "RPR003"
    name = "unordered-iteration"
    rationale = (
        "set/dict-view iteration order can leak into result bits "
        "(the PR 3 bug class); sort or canonicalize before iterating"
    )
    node_types = (ast.For, ast.comprehension)
    default_paths = (
        "src/repro/engine/*",
        "src/repro/prsq/*",
        "src/repro/index/*",
        "src/repro/uncertain/*",
        "src/repro/core/*",
    )

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        iter_expr = node.iter
        offender = self._unordered(iter_expr, ctx)
        if offender is not None:
            ctx.report(
                self,
                iter_expr if hasattr(iter_expr, "lineno") else node,
                f"iteration over {offender} has no canonical order and can "
                "leak into result ordering; wrap in sorted(..., key=...) or "
                "iterate a canonically ordered sequence",
            )

    def _unordered(self, expr: ast.AST, ctx: LintContext) -> Optional[str]:
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name == "set":
                return "set(...)"
            if name.endswith((".values", ".keys")) and not expr.args:
                return f"{name}()"
            if name in ("frozenset",):
                return "frozenset(...)"
        return None
