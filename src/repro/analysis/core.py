"""Rule model and registry for the repro static analyzer.

A :class:`Rule` subclass declares an id, severity, and scope, and
implements ``visit_<NodeType>`` hooks; the engine walks each module's AST
once in document order and dispatches every node to every applicable
rule's hook (:mod:`repro.analysis.engine`).  Rules register themselves
with the :func:`rule` class decorator, which is what makes the pack
pluggable: importing a module full of decorated classes is all it takes
to extend the analyzer.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Type

from repro.analysis.context import ModuleContext


class Severity(enum.Enum):
    """How a finding affects the exit status: errors fail, warnings report."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)


class Rule:
    """Base class for all lint rules.

    Subclasses set the class attributes below and implement any number of
    ``visit_<NodeType>(node, ctx)`` methods, each yielding
    :class:`Finding` objects (use :meth:`found` to build them).

    ``library_only`` scopes a rule to library source (files under a
    ``src`` directory); test/benchmark code is exempt.  ``exempt_suffixes``
    lists path suffixes (POSIX-style) the rule never applies to — the
    sanctioned homes of an otherwise-banned construct.
    """

    id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    library_only: bool = True
    exempt_suffixes: tuple = ()

    def applies(self, ctx: ModuleContext) -> bool:
        if self.library_only and not ctx.is_library:
            return False
        return not any(ctx.rel_path.endswith(suffix)
                       for suffix in self.exempt_suffixes)

    def found(self, node: ast.AST, ctx: ModuleContext,
              message: str) -> Finding:
        return Finding(rule=self.id, severity=self.severity,
                       path=ctx.rel_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


class GraphRule(Rule):
    """Base class for whole-program rules.

    A graph rule sees the :class:`~repro.analysis.graph.ProjectGraph`
    built once per run — symbol tables, import edges, call graph — and
    judges cross-module contracts a single-file rule cannot: layering,
    import cycles, a sleep reached through another module's function.
    Subclasses implement :meth:`check` instead of ``visit_*`` hooks;
    per-module scoping (library vs. test code) is the rule's own
    responsibility because there is no single context.

    ``# repro: noqa[RULE]`` suppression still applies: the engine drops
    graph findings whose (path, line) is suppressed in that module.
    """

    def check(self, graph) -> Iterator[Finding]:
        raise NotImplementedError

    def applies(self, ctx: ModuleContext) -> bool:
        # never dispatched per-module; the engine routes by isinstance
        return False

    def found_in(self, ctx: ModuleContext, lineno: int,
                 message: str, col: int = 0) -> Finding:
        return Finding(rule=self.id, severity=self.severity,
                       path=ctx.rel_path, line=lineno, col=col,
                       message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    _load_builtin_packs()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


_packs_loaded = False


def _load_builtin_packs() -> None:
    """Import the built-in rule packs (idempotent)."""
    global _packs_loaded
    if _packs_loaded:
        return
    _packs_loaded = True
    from repro.analysis.rules import (  # noqa: F401
        architecture,
        concurrency,
        determinism,
        hygiene,
        observability,
        perf,
    )
