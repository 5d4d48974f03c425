"""The analysis engine: collect, parse, dispatch — per-module and whole-program.

``analyze_paths`` is the programmatic entry the CLI and tests share.  It
runs serially, in one process, in two phases:

1. **Per-module**: every file parses into a
   :class:`~repro.analysis.context.ModuleContext` and runs the module
   rules over one document-order walk.  Unparseable files surface as
   ``PARSE`` findings instead of crashing the run, so one bad file
   cannot hide findings in the others.
2. **Whole-program**: the parsed contexts are assembled into a
   :class:`~repro.analysis.graph.ProjectGraph` (symbol tables, import
   edges, call graph) and every :class:`~repro.analysis.core.GraphRule`
   checks it once.  Graph findings honor ``# repro: noqa`` like any
   other finding.

A named path that is neither a directory nor an existing ``.py`` file
is an error (:class:`UnlintablePathError`), never an empty pass: a typo
in a lint command must not switch the gate off.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.core import Finding, GraphRule, Rule, Severity, all_rules
from repro.analysis.graph import ProjectGraph, build_graph

#: directory names never descended into during file collection
SKIP_DIRS = {"__pycache__", ".git", ".hg", ".tox", ".venv", "venv",
             "node_modules", ".mypy_cache", ".pytest_cache"}

#: pseudo-rule id for files that fail to parse
PARSE_RULE = "PARSE"


class UnlintablePathError(ValueError):
    """A named path is neither a directory nor an existing ``.py`` file."""

    def __init__(self, paths: Sequence[str]):
        self.paths = list(paths)
        super().__init__("not a directory or an existing .py file: "
                         + ", ".join(self.paths))


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files and directories into a list of unique ``.py`` files.

    Deduplication is by *resolved* path, so ``repro-lint src ./src`` (or
    a file named both directly and via its directory) analyzes — and
    counts — every file exactly once.  The paths as given are preserved
    in the result; only the identity check resolves.  Raises
    :class:`UnlintablePathError` naming every path that is neither a
    directory nor an existing ``.py`` file.
    """
    files: List[Path] = []
    unlintable: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
        elif path.suffix == ".py" and path.is_file():
            files.append(path)
        else:
            unlintable.append(str(raw))
    if unlintable:
        raise UnlintablePathError(unlintable)
    seen = set()
    unique = []
    for path in files:
        key = str(path.resolve())
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def registered_rule_ids() -> List[str]:
    """Every selectable rule id (the registry plus the PARSE pseudo-rule)."""
    return sorted({r.id for r in all_rules()} | {PARSE_RULE})


class UnknownRuleError(ValueError):
    """``--select``/``--ignore`` named a rule id that is not registered."""

    def __init__(self, codes: Sequence[str]):
        self.codes = sorted(codes)
        super().__init__("unknown rule id(s): " + ", ".join(self.codes))


def _validate_codes(codes: Optional[Iterable[str]]) -> None:
    if not codes:
        return
    known = set(registered_rule_ids())
    unknown = [code for code in codes if code.upper() not in known]
    if unknown:
        raise UnknownRuleError(unknown)


def _select_rules(select: Optional[Iterable[str]],
                  ignore: Optional[Iterable[str]]) -> List[Rule]:
    _validate_codes(select)
    _validate_codes(ignore)
    chosen = all_rules()
    if select:
        wanted = {code.upper() for code in select}
        chosen = [r for r in chosen if r.id in wanted]
    if ignore:
        unwanted = {code.upper() for code in ignore}
        chosen = [r for r in chosen if r.id not in unwanted]
    return chosen


def _split_rules(rules: Sequence[Rule]) -> Tuple[List[Rule], List[GraphRule]]:
    module_rules = [r for r in rules if not isinstance(r, GraphRule)]
    graph_rules = [r for r in rules if isinstance(r, GraphRule)]
    return module_rules, graph_rules


def analyze_module(ctx: ModuleContext,
                   rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """All unsuppressed module-rule findings for one parsed module."""
    supplied = rules if rules is not None else all_rules()
    module_rules, _ = _split_rules(supplied)
    active = [r for r in module_rules if r.applies(ctx)]
    # node-type name -> [(rule, bound hook)], built once per module
    dispatch: Dict[str, List] = {}
    for rule_obj in active:
        for attr in dir(rule_obj):
            if attr.startswith("visit_"):
                dispatch.setdefault(attr[len("visit_"):], []).append(
                    getattr(rule_obj, attr))
    findings: List[Finding] = []
    if dispatch:
        for node in ctx.walk():
            for hook in dispatch.get(type(node).__name__, ()):
                findings.extend(hook(node, ctx))
    return [f for f in findings if not ctx.suppressed(f.rule, f.line)]


def analyze_graph(graph: ProjectGraph,
                  contexts: Dict[str, ModuleContext],
                  rules: Optional[Sequence[GraphRule]] = None
                  ) -> List[Finding]:
    """All unsuppressed graph-rule findings for a built project graph."""
    if rules is None:
        _, rules = _split_rules(all_rules())
    findings: List[Finding] = []
    for rule_obj in rules:
        for finding in rule_obj.check(graph):
            ctx = contexts.get(finding.path)
            if ctx is not None and ctx.suppressed(finding.rule,
                                                  finding.line):
                continue
            findings.append(finding)
    return findings


def analyze_source(source: str, path: str = "src/repro/example.py"
                   ) -> List[Finding]:
    """Analyze a source string with the module rules (fixture entry point).

    Graph rules need a multi-file project; exercise them through
    :func:`analyze_paths` on a fixture tree instead.
    """
    ctx = ModuleContext(path, source)
    return sorted(analyze_module(ctx), key=lambda f: f.sort_key())


def analyze_paths(paths: Sequence[str],
                  select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None,
                  ) -> Tuple[List[Finding], Dict[str, ModuleContext]]:
    """Analyze files/directories; returns (findings, contexts-by-path).

    Parse every file, run the module rules over each parsed module, then
    the graph rules over the project graph once.
    """
    chosen = _select_rules(select, ignore)
    module_rules, graph_rules = _split_rules(chosen)

    findings: List[Finding] = []
    contexts: Dict[str, ModuleContext] = {}
    for path in collect_files(paths):
        try:
            ctx = ModuleContext(str(path), path.read_text(encoding="utf-8"))
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            lineno = getattr(exc, "lineno", 1) or 1
            findings.append(Finding(
                rule=PARSE_RULE, severity=Severity.ERROR, path=str(path),
                line=lineno, col=0, message=f"failed to parse: {exc}"))
            continue
        contexts[ctx.rel_path] = ctx

    for rel_path in sorted(contexts):
        findings.extend(analyze_module(contexts[rel_path], rules=module_rules))
    if graph_rules and contexts:
        findings.extend(analyze_graph(build_graph(contexts), contexts,
                                      rules=graph_rules))
    return sorted(findings, key=lambda f: f.sort_key()), contexts
