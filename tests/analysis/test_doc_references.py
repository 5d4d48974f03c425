"""Doc-reference check: code the docs name in backticks still exists.

Every backticked ``repro.x.y`` (a module, or a name defined or
re-exported in one, then class members) and every ``path.py::symbol``
(a test or benchmark id, ``::``-separated down to a method) in the
documents below must resolve through
:class:`~repro.analysis.graph.ProjectGraph`.  Call arguments after the
dotted name (``repro.viz.registry_to_json(rt, path=...)``) are ignored.
Standard library only, like the analyzer it builds on.
"""

import ast
import functools
import re
from pathlib import Path
from typing import List, Optional

from repro.analysis.context import ModuleContext
from repro.analysis.engine import collect_files
from repro.analysis.graph import ProjectGraph, module_name_for_path

REPO_ROOT = Path(__file__).resolve().parents[2]

DOCUMENTS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".claude/skills/verify/SKILL.md"]

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")
PATH_ID = re.compile(r"`([\w./-]+\.py)((?:::\w+)+)[^`]*`")


@functools.lru_cache(maxsize=1)
def project_graph() -> ProjectGraph:
    contexts = {}
    for path in collect_files([str(REPO_ROOT / root) for root in
                               ("src", "tests", "benchmarks", "examples")]):
        rel = path.relative_to(REPO_ROOT).as_posix()
        contexts[rel] = ModuleContext(rel, path.read_text(encoding="utf-8"))
    return ProjectGraph(contexts)


def _member(node: ast.AST, name: str) -> Optional[ast.AST]:
    """A def, class or assignment named ``name`` in a class body."""
    for stmt in getattr(node, "body", ()):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and stmt.name == name:
            return stmt
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return stmt
    return None


def resolves(graph: ProjectGraph, module: str, names: List[str]) -> bool:
    """``names`` (a symbol, then members) exist under ``module``."""
    if module not in graph.modules:
        return False
    if not names:
        return True
    symbol = graph.resolve(module, names[0])
    if symbol is None:
        return f"{module}.{names[0]}" in graph.modules and resolves(
            graph, f"{module}.{names[0]}", names[1:])
    node = symbol.node
    for name in names[1:]:
        node = _member(node, name)
        if node is None:
            return False
    return True


def dotted_resolves(graph: ProjectGraph, dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        if module in graph.modules:
            return resolves(graph, module, parts[split:])
    return False


def stale_references(graph: ProjectGraph, text: str) -> List[str]:
    stale = [dotted for dotted in DOTTED.findall(text)
             if not dotted_resolves(graph, dotted)]
    for path, symbols in PATH_ID.findall(text):
        names = symbols.strip(":").split("::")
        if not resolves(graph, module_name_for_path(path), names):
            stale.append(path + symbols)
    return stale


def test_the_checker_tells_live_from_stale():
    graph = project_graph()
    text = ("`repro.nn.functional.CONV_BAND_BYTES` `repro.streaming.Broker` "
            "`repro.viz.registry_to_json(rt, path=...)` "
            "`tests/analysis/test_doc_references.py::"
            "test_the_checker_tells_live_from_stale` "
            "`repro.nn.nothing` `repro.streaming.Broker.no_such_method` "
            "`tests/analysis/test_doc_references.py::test_gone`")
    assert stale_references(graph, text) == [
        "repro.nn.nothing", "repro.streaming.Broker.no_such_method",
        "tests/analysis/test_doc_references.py::test_gone"]


def test_documents_reference_only_live_code():
    graph = project_graph()
    stale = [f"{doc}: {ref}" for doc in DOCUMENTS
             for ref in stale_references(
                 graph, (REPO_ROOT / doc).read_text(encoding="utf-8"))]
    assert stale == [], "stale code references:\n  " + "\n  ".join(stale)
