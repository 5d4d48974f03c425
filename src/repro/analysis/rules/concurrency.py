"""Concurrency rule (CONC604): no wall-clock pacing on DES-clocked paths.

The rule is graph-scoped so that a sleep reached through another module
is caught too, which a per-file linter cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import Finding, GraphRule, Severity, rule
from repro.analysis.graph import ProjectGraph

#: the sanctioned wall-clock home (mirrors determinism.CLOCK_HOME)
CLOCK_HOME = ("repro/runtime/core.py",)

#: packages whose code runs on the DES clock when an environment is bound
DES_PACKAGES = frozenset({
    "cluster", "fog", "streaming", "compute", "dfs", "nosql", "data",
    "core", "apps", "runtime",
})


@rule
class WallPacingRule(GraphRule):
    """CONC604: ``time.sleep`` must not be reachable from DES-clocked code.

    Simulated time advances by event, not by waiting; a real sleep on a
    DES-clocked path stalls the wall clock without moving the sim clock,
    desynchronizing spans and starving the event loop.  Direct calls are
    flagged in any library module outside the wall-clock home
    (``repro/runtime/core.py``); on top of that, the call graph is
    walked backwards so a DES-layer function that reaches a sleep hidden
    in an exempt (or unflagged) module is caught at its own def site,
    with the call chain as evidence.
    """

    id = "CONC604"
    name = "wall-pacing"
    severity = Severity.ERROR
    description = ("time.sleep() on a DES-clocked path (directly or via "
                   "the call graph)")

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        direct_modules: Set[str] = set()
        for node in graph.library_modules():
            if any(node.ctx.rel_path.endswith(s) for s in CLOCK_HOME):
                continue
            for ast_node in node.ctx.walk():
                if isinstance(ast_node, ast.Call) and \
                        node.ctx.resolve(ast_node.func) == "time.sleep":
                    direct_modules.add(node.name)
                    yield self.found_in(
                        node.ctx, ast_node.lineno,
                        "`time.sleep()` blocks the wall clock; DES "
                        "pacing belongs to the simulation environment "
                        "(hold/timeout), wall pacing to "
                        "repro.runtime.core")
        chains = graph.callers_reaching("time.sleep")
        for key in sorted(chains):
            module_name, qual = key
            node = graph.modules.get(module_name)
            if node is None or not node.is_library or not qual:
                continue
            if node.package not in DES_PACKAGES:
                continue
            chain = chains[key]
            if len(chain) < 2:
                continue          # the direct call is already flagged above
            sleeper = chain[-1][0]
            if sleeper in direct_modules:
                continue          # evidence already reported at the source
            trail = " -> ".join(f"{m}:{q or '<module>'}" for m, q in chain)
            yield self.found_in(
                node.ctx, graph.def_site(key),
                f"{qual} reaches time.sleep() through {trail}; "
                "DES-clocked code must not wall-pace, even indirectly")
