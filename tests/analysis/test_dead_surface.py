"""Census guard: every public name in ``src/`` has a caller outside tests.

A public top-level function or class, or a public method, must be
referenced from ``src/``, ``benchmarks/`` or ``examples/`` somewhere
other than its own definition.  Top-level names are resolved through
:class:`~repro.analysis.graph.ProjectGraph` (``from m import f`` ... ``f()``,
``m.f()``, package re-exports), so an unrelated local ``app.evaluate``
does not keep ``repro.nn.data.evaluate`` alive.  Methods cannot be
resolved without types, so any attribute of the same name counts, and so
does an identifier-shaped string (``getattr(obj, "poll")``).  A package
``__init__``'s re-export and an ``__all__`` entry are not uses, and
neither is naming a class only to dispatch on it: as the class argument
of ``isinstance`` / ``issubclass``, or as an argument of a decorator
call (``@plan_builder(M.Identity)``).

A class a project decorator registers (the analyzer's ``@rule``) and its
``visit_<Node>`` hooks are reached through the registry, not by name,
and count as used.  ``KEEP`` lists the rest of the exempt names, one
reason each.  It is also the census's nomination list for its next
batch: an entry whose reason stops holding goes together with the name,
and an entry that gains a caller must leave the list.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.analysis.context import ModuleContext
from repro.analysis.engine import collect_files
from repro.analysis.graph import ProjectGraph, SymbolDef

REPO_ROOT = Path(__file__).resolve().parents[2]

#: trees whose references keep a name alive (tests do not)
CALLER_ROOTS = ["src", "benchmarks", "examples"]

SPARK = "paper-named substrate: Spark RDD / Streaming / MLlib / GraphX API"
STORES = "paper-named substrate: HDFS / HBase / MongoDB / YARN API"
INGEST = "paper-named substrate: Flume / Sqoop / RDBMS source"
FEEDS = "paper-named substrate: the PAPER.md data-feed generators"
TF = "paper-named substrate: TensorFlow-role layer / op"
ORACLE = "test oracle or fixture entry point"

#: qualified name -> one-line reason it stays without a non-test caller
KEEP: Dict[str, str] = {
    "repro.analysis.engine.analyze_source": ORACLE,
    "repro.compute.dstream.DStream.foreach_batch": SPARK,
    "repro.compute.dstream.DStream.count_by_window": SPARK,
    "repro.compute.graphx.Graph.neighbors": SPARK,
    "repro.compute.graphx.Graph.mean_degree": SPARK,
    "repro.compute.graphx.Graph.connected_components": SPARK,
    "repro.compute.graphx.Graph.triangle_count": SPARK,
    "repro.compute.graphx.Graph.aggregate_messages": SPARK,
    "repro.compute.mllib.StandardScaler": SPARK,
    "repro.compute.mllib.StandardScaler.fit_transform": SPARK,
    "repro.compute.mllib.TfIdf": SPARK,
    "repro.compute.mllib.TfIdf.fit_transform": SPARK,
    "repro.compute.mllib.cosine_similarity": SPARK,
    "repro.compute.rdd.RDD.cache": SPARK,
    "repro.compute.rdd.RDD.is_cached": SPARK,
    "repro.compute.rdd.RDD.mapPartitions": SPARK,
    "repro.compute.rdd.RDD.mapPartitionsWithIndex": SPARK,
    "repro.compute.rdd.RDD.union": SPARK,
    "repro.compute.rdd.RDD.groupByKey": SPARK,
    "repro.compute.rdd.RDD.sortBy": SPARK,
    "repro.compute.rdd.RDD.reduce": SPARK,
    "repro.compute.rdd.RDD.first": SPARK,
    "repro.compute.rdd.SparkContext.partitions_computed": ORACLE,
    "repro.compute.rdd.SparkContext.text_file": SPARK,
    "repro.compute.yarn.ResourceManager.nodes": STORES,
    "repro.compute.yarn.ResourceManager.running_containers": STORES,
    "repro.compute.yarn.ResourceManager.utilization": STORES,
    "repro.data.city.OpenCityData.traffic_incidents": FEEDS,
    "repro.data.collector.TweetCollector": FEEDS,
    "repro.data.collector.TweetCollector.add_keywords": FEEDS,
    "repro.data.collector.TweetCollector.add_location": FEEDS,
    "repro.data.collector.TweetCollector.subscription_names": FEEDS,
    "repro.data.lawenforcement.SecureStore.upload_ids": ORACLE,
    "repro.dfs.filesystem.BlockReport.lost": STORES,
    "repro.dfs.filesystem.DataNode.block_count": STORES,
    "repro.dfs.filesystem.DistributedFileSystem.recover_datanode": STORES,
    "repro.fog.codec.AutoencoderCodec.fidelity":
        "ROADMAP 2(a) measures the codec with it",
    "repro.fog.policies.ExitPolicy.should_exit": ORACLE,
    "repro.fog.split.materialize_stages": "ROADMAP 3(b) feeds it",
    "repro.nn.functional.softmax": TF,
    "repro.nn.grad_mode.enable_grad": TF,
    "repro.nn.quantize.measure_quantization_drop":
        "ROADMAP 10(b) bounds int8 agreement with it",
    "repro.nosql.hbase.HTable.row_count": STORES,
    "repro.nosql.hbase.HTable.memstore_size": STORES,
    "repro.nosql.mongo.Collection.find_one": STORES,
    "repro.nosql.mongo.DocumentStore.drop_collection": STORES,
    "repro.runtime.core.set_runtime": ORACLE,
    "repro.runtime.parallel.deterministic_dump": ORACLE,
    "repro.runtime.tracing.Tracer.children_of": ORACLE,
    "repro.runtime.tracing.Tracer.total_duration": ORACLE,
    "repro.serving.observability.ObservabilityServer":
        "ROADMAP 11 serves /trace and /budget from it",
    "repro.streaming.broker.Broker.tracked_segments":
        "the shared-memory leak check until ROADMAP 13(a)",
    "repro.streaming.broker.Broker.partition_assignment": ORACLE,
    "repro.streaming.broker.Consumer.position": ORACLE,
    "repro.streaming.flume.dfs_sink": INGEST,
    "repro.streaming.rdbms.RelationalDatabase.table_names": INGEST,
    "repro.streaming.sqoop.SqoopImporter.import_table": INGEST,
    "repro.streaming.sqoop.csv_to_rows": INGEST,
}


def _contexts(repo: Path = REPO_ROOT) -> Dict[str, ModuleContext]:
    """The modules under ``repo``'s caller roots, by repo-relative path."""
    contexts = {}
    for path in collect_files([str(repo / root) for root in CALLER_ROOTS]):
        rel = path.relative_to(repo).as_posix()
        contexts[rel] = ModuleContext(rel, path.read_text(encoding="utf-8"))
    return contexts


def public_surface(graph: ProjectGraph
                   ) -> Iterator[Tuple[str, SymbolDef, ast.AST]]:
    """``(qualified name, owning symbol, def node)`` for each public def."""
    for node in graph.library_modules():
        for name, symbol in sorted(node.symbols.items()):
            if name.startswith("_") or symbol.kind == "assign":
                continue
            yield f"{node.name}.{name}", symbol, symbol.node
            if symbol.kind != "class":
                continue
            for stmt in symbol.node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not stmt.name.startswith("_"):
                    yield f"{node.name}.{name}.{stmt.name}", symbol, stmt


def _is_reexport(node, stmt: ast.AST) -> bool:
    """An ``__all__`` list, or a package ``__init__``'s ``from x import f``."""
    if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in stmt.targets):
        return True
    return isinstance(stmt, ast.ImportFrom) and \
        node.ctx.rel_path.endswith("__init__.py")


def _module_of(graph: ProjectGraph, module: str, expr: ast.AST):
    """Project module an expression names (``np`` no, ``repro.nn`` yes)."""
    if isinstance(expr, ast.Name):
        binding = graph.modules[module].bindings.get(expr.id)
        if binding is not None and binding.kind == "module":
            return binding.module
        return None
    if isinstance(expr, ast.Attribute):
        base = _module_of(graph, module, expr.value)
        if base is not None and f"{base}.{expr.attr}" in graph.modules:
            return f"{base}.{expr.attr}"
    return None


def _uses(graph: ProjectGraph, module: str, expr: ast.AST,
          dispatch_only: bool = False) -> Iterator:
    """Use keys of one expression node.

    ``("symbol", module, name)`` for a Name or ``module.attr`` that
    resolves to a project def; ``("attr", name)`` for every attribute
    read and every identifier-shaped string (``getattr(obj, "poll")``).
    A ``dispatch_only`` node (see :func:`_dispatch_only_args`) yields no
    symbol use of a class.
    """
    target = None
    if isinstance(expr, ast.Name):
        target = graph.resolve(module, expr.id)
    elif isinstance(expr, ast.Attribute):
        yield ("attr", expr.attr)
        base = _module_of(graph, module, expr.value)
        target = graph.resolve(base, expr.attr) if base else None
    elif isinstance(expr, ast.Constant) and isinstance(expr.value, str) \
            and expr.value.isidentifier():
        yield ("attr", expr.value)
    if target is not None and not (dispatch_only and target.kind == "class"):
        yield ("symbol", target.module, target.name)


def _dispatch_only_args(item: ast.AST) -> List[ast.AST]:
    """Expressions under ``item`` that name a class only to dispatch on it.

    The class argument of ``isinstance`` / ``issubclass`` (alone or in a
    tuple), and the arguments of a decorator call
    (``@plan_builder(M.Identity)``): a table or a type test keyed on a
    class no caller builds is not a use of that class.
    """
    if isinstance(item, ast.Call):
        if isinstance(item.func, ast.Name) and len(item.args) == 2 and \
                item.func.id in ("isinstance", "issubclass"):
            classes = item.args[1]
            return list(classes.elts) if isinstance(classes, ast.Tuple) \
                else [classes]
        return []
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [arg for decorator in item.decorator_list
                if isinstance(decorator, ast.Call)
                for arg in decorator.args + [kw.value
                                             for kw in decorator.keywords]]
    return []


def unreferenced(graph: ProjectGraph) -> List[str]:
    """Public ``src/`` names nothing outside their own definition uses."""
    total: Dict[tuple, int] = {}
    inside: Dict[Tuple[tuple, int], int] = {}
    for module, node in graph.modules.items():
        stack: List[Tuple[ast.AST, Tuple[int, ...]]] = [
            (stmt, ()) for stmt in node.ctx.tree.body
            if not _is_reexport(node, stmt)]
        dispatch_only = set()
        while stack:
            item, owners = stack.pop()
            dispatch_only.update(map(id, _dispatch_only_args(item)))
            for use in _uses(graph, module, item,
                             id(item) in dispatch_only):
                total[use] = total.get(use, 0) + 1
                for owner in owners:
                    inside[use, owner] = inside.get((use, owner), 0) + 1
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owners = owners + (id(item),)
            stack.extend((child, owners)
                         for child in ast.iter_child_nodes(item))
    dead = []
    for qualname, symbol, def_node in public_surface(graph):
        if _dispatched(graph, symbol, def_node):
            continue
        use = ("symbol", symbol.module, symbol.name) \
            if def_node is symbol.node else ("attr", def_node.name)
        if total.get(use, 0) <= inside.get((use, id(def_node)), 0):
            dead.append(qualname)
    return dead


def _dispatched(graph: ProjectGraph, symbol: SymbolDef,
                def_node: ast.AST) -> bool:
    """Reached by a registry, not by name: a class a project decorator
    registers (``@rule``), and its ``visit_<Node>`` hooks, which the
    analyzer engine dispatches by prefix."""
    if symbol.kind != "class" or not any(
            graph.resolve(symbol.module, _decorator_name(d)) is not None
            for d in symbol.node.decorator_list):
        return False
    return def_node is symbol.node or def_node.name.startswith("visit_")


def _decorator_name(decorator: ast.AST) -> str:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return decorator.id if isinstance(decorator, ast.Name) else ""


@functools.lru_cache(maxsize=1)
def dead() -> Tuple[str, ...]:
    return tuple(unreferenced(ProjectGraph(_contexts())))


def test_every_public_name_has_a_caller_outside_tests():
    unexplained = [name for name in dead() if name not in KEEP]
    assert unexplained == [], (
        "public names only tests reach (delete them, or keep-list one "
        "with a reason):\n  " + "\n  ".join(unexplained))


def test_keep_list_holds_only_names_still_without_a_caller():
    stale = sorted(set(KEEP) - set(dead()))
    assert stale == [], "keep-list entries that now have a caller or are " \
        "gone:\n  " + "\n  ".join(stale)


#: a synthetic library module: a dispatch table and a type test over
#: ``Layer`` subclasses, and an analyzer-style ``@rule`` class
DISPATCH_DEMO = '''
TABLE = {}


def registry(*types):
    def decorate(fn):
        for cls in types:
            TABLE[cls] = fn
        return fn
    return decorate


def rule(cls):
    return cls


class Layer:
    pass


class Dispatched(Layer):
    pass


class Built(Layer):
    pass


@rule
class Checker:
    def visit_Call(self, node):
        return node


@registry(Dispatched, Built)
def handle(layer):
    return isinstance(layer, (Dispatched, Built)) or \\
        issubclass(type(layer), Dispatched)
'''


def synthetic_census(user: str) -> List[str]:
    """``unreferenced()`` over the demo module and one user module."""
    user_source = ("from repro.demo import Built, Dispatched, handle\n"
                   "handle(Built())\n" + user + "\n")
    return unreferenced(ProjectGraph({
        "src/repro/demo.py": ModuleContext("src/repro/demo.py",
                                           DISPATCH_DEMO),
        "src/repro/user.py": ModuleContext("src/repro/user.py",
                                           user_source)}))


def test_a_class_named_only_by_type_tests_and_decorators_is_unreferenced():
    # ``Layer`` is a base class and ``Checker`` / ``visit_Call`` are
    # registry-reached, so ``Dispatched`` is the only name reported
    assert synthetic_census("") == ["repro.demo.Dispatched"]


@pytest.mark.parametrize("use", ["Dispatched()",
                                 "class _Sub(Dispatched):\n    pass"],
                         ids=["constructed", "subclassed"])
def test_constructing_or_subclassing_a_class_is_a_use(use):
    assert synthetic_census(use) == []
