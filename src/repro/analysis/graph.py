"""Whole-program symbol/import graph for cross-module analysis.

The per-file rules in :mod:`repro.analysis.rules` judge one
:class:`~repro.analysis.context.ModuleContext` at a time; layer
boundaries, import cycles and DES pacing are *cross-module* contracts.
:class:`ProjectGraph` is the substrate for checking them statically:
built once per analysis run from every parsed module, it provides

- **module identity** — a dotted module name derived from the file path
  (``src/repro/fog/pipeline.py`` -> ``repro.fog.pipeline``), plus the
  top-level package (``fog``) the layer map keys on;
- **symbol tables** — every top-level function, class, and assignment,
  with its def-site AST node;
- **import edges** — one edge per ``import``/``from-import``, tagged
  with the target module, the imported symbol (for from-imports), the
  line, and whether the import executes at module top level (deferred
  function-level imports legitimately break cycles);
- **cross-module name resolution** — ``resolve(module, name)`` follows
  import bindings (including re-exports) to the defining module's
  symbol table, so the call graph can follow ``load(...)`` in module B
  to the ``FunctionDef`` of ``load`` in module A;
- **cycle detection** — Tarjan SCCs over top-level import edges;
- a **call graph** — coarse edges from each function/method to the
  project symbols and external dotted names it calls, with reverse
  reachability (``callers_reaching``) for "wall pacing reachable from
  DES-clocked code"-style rules.

Everything here is standard library only, like the rest of the package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import ModuleContext


def module_name_for_path(rel_path: str) -> str:
    """Dotted module name for a source path.

    Paths under a ``src`` directory are rooted there
    (``tmp/src/repro/nn/tensor.py`` -> ``repro.nn.tensor``); other paths
    dot their full relative shape (``tests/fog/test_x.py`` ->
    ``tests.fog.test_x``).  ``__init__.py`` names the package itself.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts[:-1]:
        # root at the *last* "src" so nested checkouts still resolve
        root = max(i for i, part in enumerate(parts[:-1]) if part == "src")
        parts = parts[root + 1:]
    else:
        parts = [p for p in parts if p not in (".", "..", "/")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class SymbolDef:
    """A top-level definition: where a name is born."""

    module: str
    name: str
    kind: str            # "function" | "class" | "assign"
    node: ast.AST
    lineno: int


@dataclass(frozen=True)
class ImportEdge:
    """One import statement's effect on the module graph."""

    src: str                       # importing module
    target: str                    # imported module (dotted)
    symbol: Optional[str]          # from-imported symbol, None for modules
    lineno: int
    toplevel: bool                 # executes at import time (module body)


@dataclass(frozen=True)
class _Binding:
    """What a local name refers to: a module or another module's symbol."""

    kind: str                      # "module" | "symbol"
    module: str
    symbol: Optional[str] = None


@dataclass
class ModuleNode:
    """One module's slice of the project graph."""

    name: str
    ctx: ModuleContext
    package: Optional[str]         # top-level package under "repro", else None
    symbols: Dict[str, SymbolDef] = field(default_factory=dict)
    imports: List[ImportEdge] = field(default_factory=list)
    bindings: Dict[str, _Binding] = field(default_factory=dict)

    @property
    def is_library(self) -> bool:
        return self.ctx.is_library


#: call-graph node: (module name, function qualname)
FuncKey = Tuple[str, str]


class ProjectGraph:
    """Symbol tables, import edges, and a call graph over parsed modules."""

    def __init__(self, contexts: Dict[str, ModuleContext]):
        self.modules: Dict[str, ModuleNode] = {}
        for rel_path, ctx in sorted(contexts.items()):
            name = module_name_for_path(rel_path)
            if not name:
                continue
            package = None
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                package = parts[1]
            self.modules[name] = ModuleNode(name=name, ctx=ctx,
                                            package=package)
        for node in self.modules.values():
            self._collect_symbols(node)
        for node in self.modules.values():
            self._collect_imports(node)
        # call graph: built lazily, most runs never need it
        self._calls: Optional[Dict[FuncKey, Set]] = None
        self._func_sites: Dict[FuncKey, int] = {}

    # -- construction ----------------------------------------------------------
    def _collect_symbols(self, node: ModuleNode) -> None:
        for stmt in node.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node.symbols[stmt.name] = SymbolDef(
                    node.name, stmt.name, "function", stmt, stmt.lineno)
            elif isinstance(stmt, ast.ClassDef):
                node.symbols[stmt.name] = SymbolDef(
                    node.name, stmt.name, "class", stmt, stmt.lineno)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name in _target_names(target):
                        node.symbols[name] = SymbolDef(
                            node.name, name, "assign", stmt, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                node.symbols[stmt.target.id] = SymbolDef(
                    node.name, stmt.target.id, "assign", stmt, stmt.lineno)

    def _collect_imports(self, node: ModuleNode) -> None:
        toplevel_stmts = set(map(id, node.ctx.tree.body))
        for ast_node in node.ctx.walk():
            if isinstance(ast_node, ast.Import):
                toplevel = id(ast_node) in toplevel_stmts
                for alias in ast_node.names:
                    node.imports.append(ImportEdge(
                        node.name, alias.name, None, ast_node.lineno,
                        toplevel))
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    node.bindings.setdefault(
                        bound, _Binding("module", target))
            elif isinstance(ast_node, ast.ImportFrom):
                toplevel = id(ast_node) in toplevel_stmts
                base = self._from_import_base(node, ast_node)
                if base is None:
                    continue
                for alias in ast_node.names:
                    if alias.name == "*":
                        node.imports.append(ImportEdge(
                            node.name, base, None, ast_node.lineno, toplevel))
                        continue
                    candidate = f"{base}.{alias.name}" if base else alias.name
                    bound = alias.asname or alias.name
                    if candidate in self.modules:
                        # ``from package import submodule``
                        node.imports.append(ImportEdge(
                            node.name, candidate, None, ast_node.lineno,
                            toplevel))
                        node.bindings.setdefault(
                            bound, _Binding("module", candidate))
                    else:
                        node.imports.append(ImportEdge(
                            node.name, base, alias.name, ast_node.lineno,
                            toplevel))
                        node.bindings.setdefault(
                            bound, _Binding("symbol", base, alias.name))

    def _from_import_base(self, node: ModuleNode,
                          stmt: ast.ImportFrom) -> Optional[str]:
        """Absolute module a from-import pulls from (resolving relativity)."""
        if not stmt.level:
            return stmt.module or None
        parts = node.name.split(".")
        # level 1 strips the module segment, each further level one package
        anchor = parts[:-stmt.level]
        if not anchor:
            return stmt.module or None
        if stmt.module:
            anchor.append(stmt.module)
        return ".".join(anchor)

    # -- lookups ---------------------------------------------------------------
    def library_modules(self) -> Iterator[ModuleNode]:
        for name in sorted(self.modules):
            node = self.modules[name]
            if node.is_library:
                yield node

    def resolve(self, module: str, name: str,
                _seen: Optional[FrozenSet] = None) -> Optional[SymbolDef]:
        """Def site of ``name`` as visible in ``module``, following imports.

        Walks re-export chains (``from a import f`` in b, ``from b import
        f`` in c) with a visited set, so import cycles cannot loop the
        resolver.  Returns None for builtins, externals, and locals.
        """
        node = self.modules.get(module)
        if node is None:
            return None
        seen = _seen or frozenset()
        if (module, name) in seen:
            return None
        if name in node.symbols:
            return node.symbols[name]
        binding = node.bindings.get(name)
        if binding is not None and binding.kind == "symbol":
            return self.resolve(binding.module, binding.symbol,
                                seen | {(module, name)})
        return None

    def resolve_call_target(self, module: str,
                            func: ast.AST) -> Optional[SymbolDef]:
        """Def site of a call expression's target, cross-module.

        Handles ``worker(...)`` (local or from-imported) and
        ``mod.worker(...)`` where ``mod`` is an imported project module.
        """
        if isinstance(func, ast.Name):
            return self.resolve(module, func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            node = self.modules.get(module)
            if node is None:
                return None
            binding = node.bindings.get(func.value.id)
            if binding is not None and binding.kind == "module":
                return self.resolve(binding.module, func.attr)
        return None

    # -- cycles ----------------------------------------------------------------
    def import_cycles(self) -> List[List[str]]:
        """Cycles among project modules, via Tarjan SCC on top-level edges."""
        edges: Dict[str, List[str]] = {name: [] for name in self.modules}
        for node in self.modules.values():
            targets = {e.target for e in node.imports
                       if e.toplevel and e.target in self.modules
                       and e.target != node.name}
            edges[node.name] = sorted(targets)

        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # iterative Tarjan: (node, child-iterator) frames
            work = [(root, iter(edges[root]))]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index_of:
                        index_of[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(edges[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1:
                        sccs.append(sorted(scc))

        for name in sorted(self.modules):
            if name not in index_of:
                strongconnect(name)
        return sorted(sccs)

    # -- call graph -------------------------------------------------------------
    def call_graph(self) -> Dict[FuncKey, Set]:
        """``(module, qualname) -> {callee}`` where a callee is either a
        :data:`FuncKey` (resolved project function) or a dotted external
        name string (``"time.sleep"``)."""
        if self._calls is None:
            self._calls = {}
            for node in self.modules.values():
                self._collect_calls(node)
        return self._calls

    def _collect_calls(self, node: ModuleNode) -> None:
        graph = self._calls
        assert graph is not None

        def walk_scope(body: Sequence[ast.stmt], qual: str,
                       is_class: bool) -> None:
            """One lexical scope: record its calls, recurse into nested defs.

            A nested function gets its own call-graph node, and — unless
            the scope is a class body, where defining a method does not
            run it — the enclosing scope gets an edge to it: closures
            handed to executors/schedulers generally do run, and the
            over-approximation only ever widens reachability.
            """
            callees = graph.setdefault((node.name, qual), set())
            stack: List[ast.AST] = list(body)
            nested: List[ast.stmt] = []
            while stack:
                item = stack.pop()
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    nested.append(item)
                    continue
                if isinstance(item, ast.Call):
                    self._record_call(node, qual, item)
                stack.extend(ast.iter_child_nodes(item))
            for item in nested:
                child_qual = f"{qual}.{item.name}" if qual else item.name
                self._func_sites[(node.name, child_qual)] = item.lineno
                if not is_class and not isinstance(item, ast.ClassDef):
                    callees.add((node.name, child_qual))
                walk_scope(item.body, child_qual,
                           isinstance(item, ast.ClassDef))

        # the module body is the pseudo-function ""
        walk_scope(node.ctx.tree.body, "", is_class=True)

    def _record_call(self, node: ModuleNode, qual: str,
                     call: ast.Call) -> None:
        graph = self._calls
        assert graph is not None
        callees = graph.setdefault((node.name, qual), set())
        resolved = node.ctx.resolve(call.func)
        if resolved is not None:
            target = self._project_symbol(resolved)
            callees.add(target if target is not None else resolved)
            return
        symbol = self.resolve_call_target(node.name, call.func)
        if symbol is not None and symbol.kind == "function":
            callees.add((symbol.module, symbol.name))
        elif isinstance(call.func, ast.Name):
            local = node.symbols.get(call.func.id)
            if local is not None and local.kind == "function":
                callees.add((node.name, local.name))

    def _project_symbol(self, dotted: str) -> Optional[FuncKey]:
        """Map a resolved dotted name onto a project function, if any."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                symbol = self.modules[module].symbols.get(parts[split])
                if symbol is not None and symbol.kind == "function":
                    return (module, symbol.name)
                return None
        return None

    def def_site(self, key: FuncKey) -> int:
        """Def-site line of a call-graph function (1 for module scope)."""
        self.call_graph()
        return self._func_sites.get(key, 1)

    def callers_reaching(self, external: str
                         ) -> Dict[FuncKey, List[FuncKey]]:
        """Functions that (transitively) call dotted name ``external``.

        Returns ``{function -> call chain}`` where the chain lists the
        functions stepped through, ending at the one containing the
        direct call — the evidence trail a finding message can print.
        """
        graph = self.call_graph()
        direct = [key for key, callees in graph.items()
                  if external in callees]
        reverse: Dict[FuncKey, List[FuncKey]] = {}
        for key, callees in graph.items():
            for callee in callees:
                if isinstance(callee, tuple):
                    reverse.setdefault(callee, []).append(key)
        chains: Dict[FuncKey, List[FuncKey]] = {}
        frontier = [(key, [key]) for key in sorted(direct)]
        while frontier:
            key, chain = frontier.pop(0)
            if key in chains:
                continue
            chains[key] = chain
            for caller in sorted(reverse.get(key, [])):
                if caller not in chains:
                    frontier.append((caller, [caller] + chain))
        return chains


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def build_graph(contexts: Dict[str, ModuleContext]) -> ProjectGraph:
    """Construct the project graph the engine hands to graph-scoped rules."""
    return ProjectGraph(contexts)
