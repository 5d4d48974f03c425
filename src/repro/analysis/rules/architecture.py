"""Architecture rules (ARCH5xx): the layer map, checked with real edges.

The paper's cyberinfrastructure is layered — ingestion feeds storage,
storage feeds compute, compute feeds fog inference, applications sit on
top — and this reproduction mirrors that shape in its package graph.
:data:`LAYERS` is the declarative map; the rules below enforce it with
*resolved import edges* from the :class:`~repro.analysis.graph.
ProjectGraph` rather than string matching, which is what lets them see
``from repro.fog import pipeline`` and ``import repro.fog.pipeline`` as
the same edge and attribute ``from repro.nn import functional`` to the
submodule instead of the package ``__init__``.

Layer numbers grow upward; a package may import its own layer or below,
never above.  ``repro.analysis`` sits outside the map entirely: it must
stay standard-library-only at import time so the lint can run before the
scientific stack is installed; it imports nothing from ``repro``
outside itself.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, GraphRule, Severity, rule

#: the declarative layer map: bottom (0) may be imported by everything,
#: top imports freely.  Additions to ``src/repro`` must be registered
#: here (ARCH505 flags unplaced packages).
LAYERS: Dict[str, int] = {
    "runtime": 0,
    "nn": 1,
    "viz": 1,
    "streaming": 2,
    "compute": 2,
    "dfs": 2,
    "nosql": 2,
    "data": 2,
    "cluster": 3,
    "fog": 3,
    "apps": 4,
    "core": 4,
    "serving": 4,
}

#: packages deliberately outside the layered stack
UNLAYERED = frozenset({"analysis"})

#: the self-imposed import discipline of the analyzer package
ANALYSIS_PACKAGE = "repro.analysis"


def _target_package(target: str) -> Optional[str]:
    parts = target.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


@rule
class UpwardImportRule(GraphRule):
    """ARCH501: no package imports a layer above its own.

    ``runtime`` -> ``nn``/``viz`` -> {``streaming``, ``compute``,
    ``dfs``, ``nosql``, ``data``} -> {``cluster``, ``fog``} ->
    {``apps``, ``core``}.  An upward import inverts the dependency
    arrow the whole stack is built on — e.g. the runtime reaching into
    the fog layer would make the observability substrate depend on one
    of its own consumers.
    """

    id = "ARCH501"
    name = "upward-import"
    severity = Severity.ERROR
    description = ("import from a higher architecture layer "
                   "(see the LAYERS map)")

    def check(self, graph) -> Iterator[Finding]:
        for node in graph.library_modules():
            layer = LAYERS.get(node.package or "")
            if layer is None:
                continue
            for edge in node.imports:
                package = _target_package(edge.target)
                if package is None or package == node.package:
                    continue
                target_layer = LAYERS.get(package)
                if target_layer is not None and target_layer > layer:
                    yield self.found_in(
                        node.ctx, edge.lineno,
                        f"{node.name} (layer {layer}: {node.package!r}) "
                        f"imports {edge.target} (layer {target_layer}: "
                        f"{package!r}); dependencies must point down "
                        "the stack")


@rule
class ImportCycleRule(GraphRule):
    """ARCH502: no import cycles among project modules.

    Cycles are computed over *top-level* edges (Tarjan SCC): a deferred
    function-level import is the sanctioned way to break a genuine
    back-reference, so it does not count as a cycle edge.
    """

    id = "ARCH502"
    name = "import-cycle"
    severity = Severity.ERROR
    description = "top-level import cycle between project modules"

    def check(self, graph) -> Iterator[Finding]:
        for cycle in graph.import_cycles():
            members = set(cycle)
            anchor = graph.modules[cycle[0]]
            lineno = 1
            for edge in anchor.imports:
                if edge.toplevel and edge.target in members:
                    lineno = edge.lineno
                    break
            chain = " -> ".join(cycle + [cycle[0]])
            yield self.found_in(
                anchor.ctx, lineno,
                f"import cycle: {chain}; break it by inverting the "
                "weaker dependency or deferring one import into the "
                "function that needs it")


@rule
class AnalysisStdlibOnlyRule(GraphRule):
    """ARCH503: ``repro.analysis`` imports only the standard library.

    The linter must be runnable before numpy/scipy are installed (CI
    runs it in a bare interpreter) and must never depend on the code it
    judges.  Only *top-level* imports are checked: a function-level
    import behind an ``ImportError`` gate does not run at import time,
    so it cannot break the cold-start contract.
    """

    id = "ARCH503"
    name = "analysis-stdlib-only"
    severity = Severity.ERROR
    description = ("repro.analysis must only import the stdlib and "
                   "itself at module top level")

    def check(self, graph) -> Iterator[Finding]:
        for node in graph.library_modules():
            name = node.name
            if not (name == ANALYSIS_PACKAGE
                    or name.startswith(ANALYSIS_PACKAGE + ".")):
                continue
            for edge in node.imports:
                if not edge.toplevel:
                    continue
                root = edge.target.split(".")[0]
                if root in sys.stdlib_module_names:
                    continue
                if edge.target == ANALYSIS_PACKAGE or \
                        edge.target.startswith(ANALYSIS_PACKAGE + "."):
                    continue
                yield self.found_in(
                    node.ctx, edge.lineno,
                    f"{name} imports {edge.target} at top level; the "
                    "analyzer stays stdlib-only so it can lint a tree "
                    "whose dependencies are not installed (defer the "
                    "import behind an ImportError gate if it is "
                    "genuinely optional)")


@rule
class PrivateCrossImportRule(GraphRule):
    """ARCH504: no importing another package's underscore symbols.

    ``from repro.streaming.broker import _compact`` couples the importer
    to an implementation detail the owning package is free to change —
    the import-graph generalization of the API303 broker-internals ban.
    Same-package imports are fine (that is what the underscore scopes
    to); tests are exempt (they may probe internals deliberately).
    """

    id = "ARCH504"
    name = "private-cross-import"
    severity = Severity.ERROR
    description = ("underscore-private symbol imported across a package "
                   "boundary")

    def check(self, graph) -> Iterator[Finding]:
        for node in graph.library_modules():
            for edge in node.imports:
                if edge.symbol is None or not edge.symbol.startswith("_") \
                        or edge.symbol.startswith("__"):
                    continue
                package = _target_package(edge.target)
                if package is None or package == node.package:
                    continue
                yield self.found_in(
                    node.ctx, edge.lineno,
                    f"{node.name} imports private symbol "
                    f"{edge.symbol!r} from {edge.target}; use (or add) "
                    "a public API on the owning package")


@rule
class UnplacedPackageRule(GraphRule):
    """ARCH505: every library package declares its layer.

    A new ``src/repro/<pkg>`` that is neither in :data:`LAYERS` nor
    :data:`UNLAYERED` is invisible to ARCH501 — this warning is the
    forcing function to place it before its import habits calcify.
    Bare modules directly under ``repro/`` are not packages and are not
    flagged.
    """

    id = "ARCH505"
    name = "unplaced-package"
    severity = Severity.WARNING
    description = "library package missing from the architecture layer map"

    def check(self, graph) -> Iterator[Finding]:
        flagged = set()
        for node in graph.library_modules():
            package = node.package
            if package is None or package in LAYERS \
                    or package in UNLAYERED or package in flagged:
                continue
            is_dir_package = node.name.count(".") >= 2 or \
                node.ctx.rel_path.endswith("__init__.py")
            if not is_dir_package:
                continue
            flagged.add(package)
            yield self.found_in(
                node.ctx, 1,
                f"package {package!r} is not in the architecture layer "
                "map; add it to repro.analysis.rules.architecture.LAYERS "
                "(or UNLAYERED) so ARCH501 can see it")
