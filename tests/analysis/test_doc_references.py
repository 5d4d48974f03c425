"""Doc-reference check: code the docs name in backticks still exists.

Every backticked ``repro.x.y`` (a module, or a name defined or
re-exported in one, then class members) and every ``path.py::symbol``
(a test or benchmark id, ``::``-separated down to a method) in the
documents below must resolve through
:class:`~repro.analysis.graph.ProjectGraph`.  Call arguments after the
dotted name (``repro.viz.registry_to_json(rt, path=...)``) are ignored.

Every ``ROADMAP [item] N`` / ``N(x)`` quote (``ROADMAP 4(a) / 13(a)``
quotes two) in those documents, the CI workflow and the Python sources
must name an item ROADMAP.md still numbers, and a sub-item that item's
text still has.

Every backticked ``<layer>.<component>.<name>`` whose layer is a
telemetry layer (``streaming.broker.lag``, ``nn.plan.*``) must be a
metric ``src/`` registers, a span name ``src/`` opens, or a per-layer
metric of ``BENCHMARK.json`` / ``benchmarks/e2e``, unless it names code
(``nn.functional.take_rows`` is ``repro.nn.functional.take_rows``).
Standard library only, like the analyzer it builds on.
"""

import ast
import functools
import json
import re
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.context import ModuleContext
from repro.analysis.engine import collect_files
from repro.analysis.graph import ProjectGraph, module_name_for_path

from tests.analysis.test_metric_census import metric_writes, src_sources

REPO_ROOT = Path(__file__).resolve().parents[2]

DOCUMENTS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".claude/skills/verify/SKILL.md"]

#: files and trees whose ROADMAP item quotes are checked, besides DOCUMENTS
#: (``benchmarks/e2e`` quotes no items)
QUOTE_FILES = [".github/workflows/ci.yml"]
QUOTE_ROOTS = ["src", "tests", "benchmarks"]
QUOTE_SKIP = "benchmarks/e2e/"

ROADMAP_QUOTE = re.compile(
    r"ROADMAP(?:\.md)?(?:'s)?\s+(?:items?\s+)?"
    r"(\d+(?:\([a-z]+\))?(?:\s*(?:/|,|and|or)\s*\d+(?:\([a-z]+\))?)*)")
ITEM_REF = re.compile(r"(\d+)(?:\(([a-z]+)\))?")
#: a numbered item heading (``7. **Census ...``); the work-order list's
#: ``1. **12**:`` entries are not items
ITEM_HEAD = re.compile(r"^(\d+)\. \*\*(?!\d)", re.M)
#: a comment that continues on the next line (``# ... ROADMAP`` / ``# 7``)
COMMENT_BREAK = re.compile(r"\n[ \t]*#[ \t]*")

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")
#: a name of three or more dotted segments, ``*`` allowed, and its quote
TELEMETRY_NAME = r"[a-z]\w*(?:\.[\w*]+){2,}"
TELEMETRY = re.compile(rf"`({TELEMETRY_NAME})[^`]*`")
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


def roadmap_items(roadmap: str) -> Dict[int, str]:
    """Item number -> the item's text, for the items under "## Open items"."""
    section = roadmap.split("\n## Open items", 1)[1]
    section = re.split(r"\n#+ ", section, maxsplit=1)[0]
    heads = list(ITEM_HEAD.finditer(section))
    ends = [head.start() for head in heads[1:]] + [len(section)]
    return {int(head.group(1)): section[head.start():end]
            for head, end in zip(heads, ends)}


def stale_roadmap_quotes(items: Dict[int, str], text: str) -> List[str]:
    """Quoted ``N`` / ``N(x)`` that name no item, or a sub-item it lacks.

    A sub-item is an ``(x)`` that starts a word in the item's text: item
    7 quoting ``15(b)`` has no ``(b)`` of its own.
    """
    stale = []
    for quote in ROADMAP_QUOTE.finditer(COMMENT_BREAK.sub(" ", text)):
        for number, sub in ITEM_REF.findall(quote.group(1)):
            item = items.get(int(number))
            if item is None or (sub and not re.search(
                    rf"(?<![\w(])\({sub}\)", item)):
                stale.append(f"{number}({sub})" if sub else number)
    return stale


def quoting_files() -> List[Path]:
    own = Path(__file__).resolve()
    files = [REPO_ROOT / name for name in DOCUMENTS + QUOTE_FILES]
    for root in QUOTE_ROOTS:
        files.extend(
            path for path in sorted((REPO_ROOT / root).rglob("*.py"))
            if path.resolve() != own and not path.relative_to(
                REPO_ROOT).as_posix().startswith(QUOTE_SKIP))
    return files


def test_the_quote_checker_tells_live_from_stale():
    # this file's own quotes are of the synthetic roadmap below, so the
    # repository-wide scan skips it
    items = roadmap_items(
        "1. **An aim.**\n\n## Open items\n\n1. **12**: next.\n\n"
        "1. **Plans.** (ii) decide; (c) FLOPs.\n\n"
        "7. **Census.** The test is 15(b)'s.\n\n"
        "### Parked\n\n9. **Closed.**\n")
    assert sorted(items) == [1, 7]
    text = ("ROADMAP 1(ii) / 7, ROADMAP item 1(c); ROADMAP's 7\n"
            "    # ... ROADMAP\n    # 7(b), ROADMAP 9 and 1(b)")
    assert stale_roadmap_quotes(items, text) == ["7(b)", "9", "1(b)"]


def test_roadmap_quotes_name_live_items():
    items = roadmap_items(
        (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    stale = [f"{path.relative_to(REPO_ROOT).as_posix()}: ROADMAP {quote}"
             for path in quoting_files()
             for quote in stale_roadmap_quotes(
                 items, path.read_text(encoding="utf-8"))]
    assert stale == [], "stale ROADMAP item quotes:\n  " + \
        "\n  ".join(stale)


@functools.lru_cache(maxsize=1)
def telemetry_names():
    """``(names, prefixes)``: every metric, span and per-layer benchmark
    name the repository defines, and the prefixes of run-time-built
    metric names."""
    literal, dynamic = metric_writes(src_sources())
    names = set(literal)
    for source in src_sources().values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("span", "sampler") and node.args \
                    and isinstance(node.args[0], ast.Constant):
                names.add(node.args[0].value)
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names.update(entry["name"] for entry in benchmark["per_layer"])
    for path in sorted((REPO_ROOT / "benchmarks" / "e2e").glob("*.py")):
        names.update(node.value for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(TELEMETRY_NAME, node.value))
    return frozenset(names), frozenset(filter(None, dynamic.values()))


def stale_telemetry(graph: ProjectGraph, text: str) -> List[str]:
    """Backticked telemetry names in ``text`` that nothing defines."""
    names, prefixes = telemetry_names()
    layers = {name.split(".")[0] for name in names if name.count(".") >= 2}
    return [quote for quote in TELEMETRY.findall(text)
            if quote.split(".")[0] in layers
            and not dotted_resolves(graph, "repro." + quote)
            and not any(fnmatchcase(name, quote) for name in names)
            and not any(quote.startswith(prefix)
                        or fnmatchcase(prefix, quote)
                        for prefix in prefixes)]


def test_the_telemetry_checker_tells_live_from_stale():
    text = ("`streaming.broker.lag` `nn.plan.*` `nn.plan.cache_hits` "
            "`serving.gateway.batch` `streaming.produce_batch.calls` "
            "`nn.functional.take_rows` `np.random.default_rng` "
            "`streaming.broker.depth` `nn.optim.grad_norm`")
    assert stale_telemetry(project_graph(), text) == [
        "streaming.broker.depth", "nn.optim.grad_norm"]


def test_documents_quote_only_live_telemetry():
    graph = project_graph()
    stale = [f"{doc}: {quote}" for doc in DOCUMENTS
             for quote in stale_telemetry(
                 graph, (REPO_ROOT / doc).read_text(encoding="utf-8"))]
    assert stale == [], "quoted telemetry names nothing defines:\n  " + \
        "\n  ".join(stale)
