"""Intraprocedural taint tracking for determinism rules.

A tiny forward dataflow pass over one lexical scope (a function body or
the module top level): *sources* are expressions a predicate marks as
tainted (e.g. wall-clock calls), taint propagates through assignments,
augmented assignments, walrus bindings and tuple unpacking, and rules
then ask whether a *sink* expression carries taint.

Design choices, deliberately simple:

- **Monotone, no kills.**  Reassigning a tainted name with a clean value
  does not clear it.  That over-approximates (``t = time.time(); t = 0``
  stays tainted) but makes the two-pass fixpoint below exact for loops,
  and a rare false positive is one ``# repro: noqa`` away.
- **Scope-local.**  Nested function and lambda bodies are separate
  scopes: their assignments neither read nor write the enclosing
  scope's taint set.  Calls are not followed — taint does not cross a
  call boundary (that is what keeps the pass linear and predictable).
- **Two passes.**  A loop can carry taint backwards (``x = y`` before
  ``y = time.time()`` in the same ``while`` body); with a monotone
  transfer function, re-running the scan once reaches the fixpoint.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Sequence, Set, Tuple

#: predicate deciding whether an AST node (typically a Call) is a source
SourcePredicate = Callable[[ast.AST], bool]

_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)


def scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes of one scope, *excluding* nested function/class bodies."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_BARRIERS):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def iter_scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Every lexical scope of a module: ``(owner, body)`` pairs.

    The module itself comes first (owner is the ``ast.Module``); then
    every function/method at any nesting depth (owner is its def node).
    Class bodies are folded into their enclosing scope's statement list
    only for discovery — their statements belong to the class scope,
    which for taint purposes behaves like the module level of the class.
    """
    yield tree, list(tree.body)
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, list(node.body)
        stack.extend(ast.iter_child_nodes(node))


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def expression_tainted(node: ast.AST, tainted: Set[str],
                       is_source: SourcePredicate) -> bool:
    """Does this expression read a tainted name or contain a source?

    Nested lambda bodies are skipped — a lambda mentioning a tainted
    name does not evaluate it at definition time.
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Lambda):
            continue
        if is_source(current):
            return True
        if isinstance(current, ast.Name) and \
                isinstance(current.ctx, ast.Load) and current.id in tainted:
            return True
        stack.extend(ast.iter_child_nodes(current))
    return False


def tainted_names(body: Sequence[ast.stmt],
                  is_source: SourcePredicate) -> Set[str]:
    """Names carrying taint anywhere in the scope (two-pass fixpoint)."""
    tainted: Set[str] = set()
    for _ in range(2):
        before = len(tainted)
        for node in scope_nodes(body):
            value = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.AugAssign):
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                value, targets = node.iter, [node.target]
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                value, targets = node.context_expr, [node.optional_vars]
            if value is None:
                continue
            if expression_tainted(value, tainted, is_source):
                for target in targets:
                    tainted.update(_target_names(target))
        if len(tainted) == before:
            break
    return tainted
