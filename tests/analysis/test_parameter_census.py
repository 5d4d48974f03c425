"""Parameter census: every defaulted parameter of a public ``src/`` def is
set by a caller outside tests.

A parameter with a default is an option.  It earns its place when some
call in ``src/``, ``benchmarks/`` or ``examples/`` passes it, by keyword
or by position; otherwise its default is the only value the program
uses, and it belongs in the body as a literal or a module constant.

Calls resolve as in :mod:`tests.analysis.test_dead_surface`: a function
or class through :class:`~repro.analysis.graph.ProjectGraph`, a method
by name (``x.drain(batch_size=...)`` sets every ``drain``'s
``batch_size``).  ``functools.partial(f, kw=...)`` calls ``f``,
``cls(...)`` in a class body calls that class, a class without an
``__init__`` calls its first base's,
``super().__init__(...)`` calls the first base's ``__init__``, and a
module-level alias (``alias = f``) calls what it names.  A
``*args`` argument sets every positional parameter from its place on,
and ``**kwargs`` sets them all.

A pass-through, ``g(x=x)`` where ``x`` is a parameter of the enclosing
def, sets ``g``'s ``x`` only when the enclosing ``x`` is itself required
or set: forwarding a parameter nobody passes passes nothing.

A public ``@dataclass`` is a def too: each field is a parameter of its
generated ``__init__``, defaulted when it has a default, so a config
object's fields are options like any def's.  A
``field(default_factory=...)`` container is per-instance state, not an
option, and is not counted.  Besides a call that passes it, a field is
set by an attribute write outside tests, ``report.viz_bytes = ...``,
resolved by name like a method.  A write through ``self`` does not count
(an object filling in its own default chooses nothing), and neither does
an augmented one (``x.n += 1`` starts from the value already there).

``KEEP`` lists the defs whose unset parameters stay, one reason each.
An entry whose parameters all gain a caller, or go, must leave the list.
A def with no caller outside tests at all is judged with its parameters
by :mod:`tests.analysis.test_dead_surface`; its reason is
:data:`NO_CALLER`, and it must be on that census's ``KEEP``.
"""

import ast
import functools
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.analysis.context import ModuleContext
from repro.analysis.graph import ProjectGraph, SymbolDef
from tests.analysis import test_dead_surface
from tests.analysis.test_dead_surface import (
    _contexts,
    _module_of,
    public_surface,
)

NO_CALLER = ("no caller outside tests at all: the def is on "
             "test_dead_surface.KEEP, which judges it with its parameters")

#: def qualified name -> one-line reason its unset parameters stay
KEEP: Dict[str, str] = {
    "repro.analysis.cli.main":
        "the CLI entry point: argv=None reads sys.argv",
    "repro.analysis.engine.analyze_source":
        "the rule-fixture entry point: tests name a snippet's path",
    "repro.compute.mllib.TfIdf": NO_CALLER,
    "repro.compute.rdd.RDD.sortBy": NO_CALLER,
    "repro.data.collector.TweetCollector": NO_CALLER,
    "repro.fog.pipeline.FailureSpec":
        "targets is how a failure schedule crashes a chosen tier, the only "
        "way into failover to a sibling, degradation and tier-wide drops",
    "repro.fog.split.materialize_stages": NO_CALLER,
    "repro.nn.quantize.measure_quantization_drop": NO_CALLER,
    "repro.nosql.hbase.HTable.scan":
        "PAPER.md's HBase row/column scans: the row range is the scan",
    "repro.nosql.mongo.Collection.find_one": NO_CALLER,
    "repro.runtime.parallel.deterministic_dump":
        "the determinism oracle: invariance tests drop volatile families",
    "repro.serving.observability.ObservabilityServer":
        "host is a deployment setting; gateway and port are set only by tests",
    "repro.streaming.broker.Broker":
        "shm_min_bytes is the staging path's only test lever; it goes with "
        "ROADMAP 13(a)",
    "repro.streaming.flume.dfs_sink": NO_CALLER,
    "repro.streaming.sqoop.SqoopImporter.import_table": NO_CALLER,
}

#: (def qualified name, parameter name)
Param = Tuple[str, str]


class _Def:
    """One def the census tracks: its positional and keyword parameters."""

    def __init__(self, positional: List[str], keyword_only: List[str],
                 defaulted: List[str]):
        self.positional = positional
        self.names = set(positional) | set(keyword_only)
        self.defaulted = defaulted

    @classmethod
    def of_function(cls, node: ast.AST, bound: bool) -> "_Def":
        args = node.args
        positional = args.posonlyargs + args.args
        if bound and positional:
            positional = positional[1:]       # self / cls
        first_default = len(positional) - len(args.defaults)
        return cls([a.arg for a in positional],
                   [a.arg for a in args.kwonlyargs],
                   [a.arg for a in positional[first_default:]] + [
                       a.arg for a, default in zip(args.kwonlyargs,
                                                   args.kw_defaults)
                       if default is not None])

    @classmethod
    def of_dataclass(cls, node: ast.ClassDef) -> "_Def":
        """The generated ``__init__``: one parameter per annotated field."""
        fields = [stmt for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)]
        return cls([stmt.target.id for stmt in fields], [],
                   [stmt.target.id for stmt in fields
                    if _has_default(stmt.value)])


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name_of(d) == "dataclass"
               for d in node.decorator_list)


def _name_of(expr: ast.AST) -> str:
    """The name a decorator or call ends in: ``dataclass`` for
    ``@dataclasses.dataclass(frozen=True)``."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return expr.id if isinstance(expr, ast.Name) else ""


def _has_default(value: Optional[ast.AST]) -> bool:
    """A field's default: a plain value or ``field(default=...)``, never a
    ``default_factory`` container."""
    if isinstance(value, ast.Call) and _name_of(value) == "field":
        return any(k.arg == "default" for k in value.keywords)
    return value is not None


def _is_bound(node: ast.AST) -> bool:
    return not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in node.decorator_list)


def _methods(cls: ast.ClassDef) -> Iterator[ast.AST]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


class _Census:
    """Every def under ``src/``, and the parameters its callers set."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        #: def qualname -> _Def (a class stands for its ``__init__``)
        self.defs: Dict[str, _Def] = {}
        #: def node id -> qualname, to name the def enclosing a call
        self.by_node: Dict[int, str] = {}
        #: method name -> qualnames of every method so named
        self.by_method: Dict[str, List[str]] = {}
        #: field name -> qualnames of every dataclass with a defaulted one
        self.by_field: Dict[str, List[str]] = {}
        #: qualnames of the dataclasses among ``defs``
        self.dataclasses: Set[str] = set()
        for node in graph.library_modules():
            for stmt in node.ctx.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add(f"{node.name}.{stmt.name}", stmt, False)
                elif isinstance(stmt, ast.ClassDef):
                    self._add_class(node.name, stmt)
        self.set: Set[Param] = set()
        #: outer parameter -> parameters a pass-through of it sets
        self.forwards: Dict[Param, Set[Param]] = {}

    def _add(self, qualname: str, node: ast.AST, bound: bool) -> None:
        self.defs[qualname] = _Def.of_function(node, bound)
        self.by_node[id(node)] = qualname

    def _add_class(self, module: str, cls: ast.ClassDef) -> None:
        qualname = f"{module}.{cls.name}"
        if _is_dataclass(cls):
            self.defs[qualname] = _Def.of_dataclass(cls)
            self.dataclasses.add(qualname)
            for name in self.defs[qualname].defaulted:
                self.by_field.setdefault(name, []).append(qualname)
        for method in _methods(cls):
            if method.name == "__init__":
                self._add(qualname, method, True)
            else:
                name = f"{qualname}.{method.name}"
                self._add(name, method, _is_bound(method))
                self.by_method.setdefault(method.name, []).append(name)

    # -- call resolution ------------------------------------------------------
    def _class_init(self, module: str, expr: ast.AST) -> List[str]:
        """The ``__init__`` a class expression names, if the census has it."""
        symbol = None
        if isinstance(expr, ast.Name):
            symbol = self.graph.resolve(module, expr.id)
        elif isinstance(expr, ast.Attribute):
            base = _module_of(self.graph, module, expr.value)
            symbol = self.graph.resolve(base, expr.attr) if base else None
        if symbol is None or symbol.kind != "class":
            return []
        return self._init_of(symbol)

    def _init_of(self, cls: SymbolDef) -> List[str]:
        """The class's own ``__init__``, else the one it inherits."""
        qualname = f"{cls.module}.{cls.name}"
        if qualname in self.defs:
            return [qualname]
        bases = cls.node.bases
        return self._class_init(cls.module, bases[0]) if bases else []

    def targets(self, module: str, func: ast.AST,
                cls: Optional[ast.ClassDef]) -> List[str]:
        """Qualnames of the defs a call's ``func`` expression may reach."""
        if isinstance(func, ast.Name) and func.id == "cls" and cls:
            return self._class_init(module, ast.Name(cls.name))
        if isinstance(func, ast.Attribute) and func.attr == "__init__" \
                and isinstance(func.value, ast.Call) \
                and isinstance(func.value.func, ast.Name) \
                and func.value.func.id == "super":
            return self._class_init(module, cls.bases[0]) \
                if cls and cls.bases else []
        symbol = self.graph.resolve_call_target(module, func)
        if symbol is not None and symbol.kind == "assign":
            symbol = _aliased(self.graph, symbol)
        if symbol is not None and symbol.kind == "class":
            return self._init_of(symbol)
        if symbol is not None:
            qualname = f"{symbol.module}.{symbol.name}"
            return [qualname] if qualname in self.defs else []
        if isinstance(func, ast.Attribute):
            return list(self.by_method.get(func.attr, ()))
        return []

    # -- walking the callers --------------------------------------------------
    def visit(self, module: str, tree: ast.AST) -> None:
        stack: List[Tuple[ast.AST, Tuple[ast.AST, ...],
                          Optional[ast.ClassDef]]] = [(tree, (), None)]
        while stack:
            item, scopes, cls = stack.pop()
            if isinstance(item, ast.Call):
                self._call(module, item, scopes, cls)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                self._writes(item)
            if isinstance(item, ast.ClassDef):
                cls = item
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                scopes = scopes + (item,)
            stack.extend((child, scopes, cls)
                         for child in ast.iter_child_nodes(item))

    def _call(self, module: str, call: ast.Call,
              scopes: Tuple[ast.AST, ...],
              cls: Optional[ast.ClassDef]) -> None:
        func, args = call.func, call.args
        if _is_partial(module, self.graph, func) and args:
            func, args = args[0], args[1:]
        for qualname in self.targets(module, func, cls):
            callee = self.defs[qualname]
            for param, value in _bindings(callee, args, call.keywords):
                self._setter((qualname, param), value, scopes)

    def _writes(self, assign: ast.AST) -> None:
        """``record.end = ...`` sets every dataclass field named ``end``."""
        targets = getattr(assign, "targets", None) or [assign.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store) and not \
                        (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
                    self.set.update((qualname, node.attr) for qualname
                                    in self.by_field.get(node.attr, ()))

    def _setter(self, param: Param, value: Optional[ast.AST],
                scopes: Tuple[ast.AST, ...]) -> None:
        outer = _forwarded(value, scopes)
        if outer is None:
            self.set.add(param)
            return
        scope, name = outer
        owner = self.by_node.get(id(scope))
        if owner is None or name not in self.defs[owner].defaulted:
            self.set.add(param)      # required, or a def the census lacks
        else:
            self.forwards.setdefault((owner, name), set()).add(param)

    def settled(self) -> Set[Param]:
        """Directly set parameters plus every pass-through they feed."""
        done = set(self.set)
        frontier = list(done)
        while frontier:
            for param in self.forwards.get(frontier.pop(), ()):
                if param not in done:
                    done.add(param)
                    frontier.append(param)
        return done


def _aliased(graph: ProjectGraph, symbol: SymbolDef) -> Optional[SymbolDef]:
    """The def a module-level ``alias = f`` names."""
    value = symbol.node.value
    return graph.resolve(symbol.module, value.id) \
        if isinstance(value, ast.Name) else None


def _is_partial(module: str, graph: ProjectGraph, func: ast.AST) -> bool:
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return name == "partial" and graph.resolve_call_target(
        module, func) is None


def _bindings(callee: _Def, args: List[ast.AST],
              keywords: List[ast.keyword]
              ) -> Iterator[Tuple[str, Optional[ast.AST]]]:
    """``(parameter, value)`` for each parameter a call passes; ``None``
    as the value when a ``*args`` / ``**kwargs`` spread passes it."""
    for index, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            for param in callee.positional[index:]:
                yield param, None
            break
        if index < len(callee.positional):
            yield callee.positional[index], arg
    for keyword in keywords:
        if keyword.arg is None:
            for param in callee.names:
                yield param, None
        elif keyword.arg in callee.names:
            yield keyword.arg, keyword.value


def _forwarded(value: Optional[ast.AST], scopes: Tuple[ast.AST, ...]
               ) -> Optional[Tuple[ast.AST, str]]:
    """``(def, parameter)`` when ``value`` is a bare parameter of the
    innermost enclosing def that has one by that name."""
    if not isinstance(value, ast.Name):
        return None
    for scope in reversed(scopes):
        params = scope.args
        names = {a.arg for a in params.posonlyargs + params.args
                 + params.kwonlyargs}
        if value.id in names:
            return scope, value.id
    return None


def unset_parameters(graph: ProjectGraph) -> Dict[str, List[str]]:
    """Public def qualname -> its defaulted parameters no caller sets."""
    census = _Census(graph)
    for name, node in graph.modules.items():
        census.visit(name, node.ctx.tree)
    settled = census.settled()
    unset: Dict[str, List[str]] = {}
    for qualname, _, _ in public_surface(graph):
        callee = census.defs.get(qualname)
        if callee is None:
            continue
        params = [p for p in callee.defaulted
                  if (qualname, p) not in settled]
        if params:
            unset[qualname] = params
    return unset


def defaulted_parameters(graph: ProjectGraph) -> int:
    """How many defaulted parameters the public ``src/`` defs declare."""
    census = _Census(graph)
    return sum(len(census.defs[q].defaulted)
               for q, _, _ in public_surface(graph)
               if q in census.defs and q not in census.dataclasses)


def defaulted_fields(graph: ProjectGraph) -> int:
    """How many defaulted fields the public ``src/`` dataclasses declare."""
    census = _Census(graph)
    return sum(len(census.defs[q].defaulted)
               for q, _, _ in public_surface(graph) if q in census.dataclasses)


@functools.lru_cache(maxsize=1)
def project() -> ProjectGraph:
    return ProjectGraph(_contexts())


@functools.lru_cache(maxsize=1)
def unset() -> Dict[str, List[str]]:
    return unset_parameters(project())


def test_every_defaulted_parameter_is_set_by_a_caller_outside_tests():
    unexplained = [f"{name}({', '.join(params)})"
                   for name, params in sorted(unset().items())
                   if name not in KEEP]
    assert unexplained == [], (
        "defaulted parameters nothing outside tests sets (make each "
        "default a constant, or keep-list the def with a reason):\n  "
        + "\n  ".join(unexplained))


def test_keep_list_holds_only_defs_with_an_unset_parameter():
    stale = sorted(set(KEEP) - set(unset()))
    assert stale == [], "keep-list entries whose parameters are all set " \
        "or gone:\n  " + "\n  ".join(stale)


def test_a_no_caller_reason_names_a_dead_surface_entry():
    # NO_CALLER defers the def to the dead-surface census; a def that has
    # since gained a caller outside tests needs a reason of its own
    stale = sorted(name for name, reason in KEEP.items()
                   if reason == NO_CALLER
                   and name not in test_dead_surface.KEEP)
    assert stale == [], "entries that claim no caller outside tests but " \
        "are not on test_dead_surface.KEEP:\n  " + "\n  ".join(stale)


# -- the checker on synthetic modules -----------------------------------------

#: a synthetic library module: a function, a class, a subclass, a
#: forwarding wrapper and a config dataclass, each with defaulted
#: parameters
LIBRARY = '''
from dataclasses import dataclass, field


def score(x, floor=0.0, scale=1.0):
    return x * scale + floor


rescore = score


def wrapper(x, floor=0.0):
    return score(x, floor=floor)


def required(x, floor):
    return score(x, floor=floor)


class Base:
    def __init__(self, size=4):
        self.size = size


class Child(Base):
    def __init__(self, size=4, name="child"):
        super().__init__(size=size)
        self.name = name

    @classmethod
    def named(cls):
        return cls(name="named")

    def drain(self, batch=256):
        return batch


class Grandchild(Child):
    pass


@dataclass
class Config:
    name: str
    size: int = 4
    rate: float = 1.0
    bound: int = 8
    level: int = field(default=2)
    seen: list = field(default_factory=list)

    def __post_init__(self):
        self.bound = max(self.bound, 1)
'''


def synthetic_unset(user: str) -> Dict[str, List[str]]:
    """``unset_parameters()`` over the demo library and one user module."""
    return unset_parameters(ProjectGraph({
        "src/repro/demo.py": ModuleContext("src/repro/demo.py", LIBRARY),
        "examples/user.py": ModuleContext("examples/user.py", user)}))


def test_an_unset_parameter_is_reported():
    assert synthetic_unset("") == {
        "repro.demo.Base": ["size"],
        "repro.demo.Child": ["size"],
        "repro.demo.Child.drain": ["batch"],
        "repro.demo.Config": ["size", "rate", "bound", "level"],
        "repro.demo.score": ["scale"],
        "repro.demo.wrapper": ["floor"]}


def test_keyword_positional_and_method_calls_are_setters():
    found = synthetic_unset(
        "from repro.demo import Child, Config, score, wrapper\n"
        "score(1, 0.5, scale=2.0)\n"
        "wrapper(1, 0.5)\n"
        "Child(2).drain(batch=8)\n"
        "Config('a', 2, 0.5, level=3).bound = 16\n")
    assert found == {}


def test_a_config_field_only_a_test_sets_is_reported(tmp_path):
    # the census reads src/, benchmarks/ and examples/: a test's setters
    # are never seen
    sources = {
        "src/repro/demo.py": LIBRARY,
        "tests/test_demo.py": ("from repro.demo import Config\n"
                               "config = Config('a', 2, rate=0.5)\n"
                               "config.bound = 16\n"
                               "Config('b', level=3)\n"),
        "benchmarks/__init__.py": "",
        "examples/user.py": "from repro.demo import Config\nConfig('a')\n"}
    for rel, source in sources.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(source)
    found = unset_parameters(ProjectGraph(_contexts(tmp_path)))
    assert found["repro.demo.Config"] == ["size", "rate", "bound", "level"]


@pytest.mark.parametrize("user, still_unset", [
    ("Config('a', size=2)", ["rate", "bound", "level"]),
    ("Config('a', 2, 0.5)", ["bound", "level"]),
    ("config = Config('a')\nconfig.rate = 2.0", ["size", "bound", "level"]),
    ("config = Config('a')\nconfig.bound += 1", ["size", "rate", "bound",
                                                "level"]),
], ids=["keyword", "position", "attribute-write", "augmented-write"])
def test_a_config_field_is_set_by_keyword_position_or_attribute_write(
        user, still_unset):
    # __post_init__'s ``self.bound = ...`` never counts; an augmented
    # write starts from the value already there
    found = synthetic_unset("from repro.demo import Config\n" + user + "\n")
    assert found["repro.demo.Config"] == still_unset


def test_a_default_factory_field_is_state_not_an_option():
    # ``seen`` has a default_factory: never reported, never counted
    assert "seen" not in synthetic_unset("")["repro.demo.Config"]
    graph = ProjectGraph({"src/repro/demo.py": ModuleContext(
        "src/repro/demo.py", LIBRARY)})
    assert defaulted_fields(graph) == 4


def test_partial_counts_as_a_setter():
    found = synthetic_unset(
        "import functools\n"
        "from repro.demo import score\n"
        "scaled = functools.partial(score, scale=2.0)\n")
    assert "repro.demo.score" not in found


def test_a_class_without_an_init_calls_its_bases():
    found = synthetic_unset("from repro.demo import Grandchild\n"
                            "Grandchild(size=2)\n")
    assert "repro.demo.Child" not in found
    assert "repro.demo.Base" not in found


def test_a_call_through_a_module_alias_is_a_setter():
    found = synthetic_unset("from repro.demo import rescore\n"
                            "rescore(1, scale=2.0)\n")
    assert "repro.demo.score" not in found


def test_a_pass_through_counts_only_when_its_outer_parameter_is_set():
    # ``wrapper(floor=floor)`` forwards into ``score``: unset until a
    # caller sets ``wrapper``'s floor; ``required``'s floor always is
    assert synthetic_unset("")["repro.demo.wrapper"] == ["floor"]
    assert "floor" not in synthetic_unset("")["repro.demo.score"]
    # ``super().__init__(size=size)`` forwards ``Child``'s size to
    # ``Base``: set once a caller sets ``Child``'s
    assert "repro.demo.Base" in synthetic_unset("")
    found = synthetic_unset("from repro.demo import Child\nChild(size=2)\n")
    assert "repro.demo.Base" not in found


def test_a_stale_keep_entry_fails(monkeypatch):
    monkeypatch.setitem(KEEP, "repro.runtime.core.Runtime.gone",
                        "a def that no longer exists")
    with pytest.raises(AssertionError, match="Runtime.gone"):
        test_keep_list_holds_only_defs_with_an_unset_parameter()


def test_a_stale_no_caller_reason_fails(monkeypatch):
    monkeypatch.delitem(test_dead_surface.KEEP,
                        "repro.fog.split.materialize_stages")
    with pytest.raises(AssertionError, match="materialize_stages"):
        test_a_no_caller_reason_names_a_dead_surface_entry()
