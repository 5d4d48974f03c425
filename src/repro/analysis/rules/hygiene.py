"""API-hygiene rules (API3xx): signatures that don't lie.

Applied to tests and benchmarks too — hygiene hazards bite everywhere,
not just in library code.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.context import ModuleContext
from repro.analysis.core import Finding, Rule, Severity, rule

MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "deque",
                     "defaultdict", "Counter", "OrderedDict"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_FACTORIES
    return False


def _annotation_allows_none(annotation: ast.AST) -> bool:
    """True if the annotation already admits ``None``."""
    if annotation is None:
        return True                      # unannotated: nothing to contradict
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return True
        if isinstance(annotation.value, str):   # string annotation
            text = annotation.value
            return "Optional" in text or "None" in text or "Any" in text
    if isinstance(annotation, ast.Name):
        return annotation.id in {"Any", "object", "None"}
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in {"Any", "object"}
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return (_annotation_allows_none(annotation.left)
                or _annotation_allows_none(annotation.right))
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else "")
        if head_name == "Optional":
            return True
        if head_name == "Union":
            elements = annotation.slice
            if isinstance(elements, ast.Tuple):
                return any(_annotation_allows_none(e) for e in elements.elts)
            return _annotation_allows_none(elements)
    return False


def _args_with_defaults(node) -> List:
    """(arg, default) pairs for positional and keyword-only parameters."""
    pairs = []
    positional = node.args.posonlyargs + node.args.args
    defaults = node.args.defaults
    for arg, default in zip(positional[len(positional) - len(defaults):],
                            defaults):
        pairs.append((arg, default))
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            pairs.append((arg, default))
    return pairs


@rule
class MutableDefaultRule(Rule):
    """API301: mutable default arguments are shared across calls."""

    id = "API301"
    name = "mutable-default"
    severity = Severity.ERROR
    description = "mutable default argument (shared across calls)"
    library_only = False

    def _check(self, node, ctx: ModuleContext) -> Iterator[Finding]:
        for arg, default in _args_with_defaults(node):
            if _is_mutable_default(default):
                yield self.found(default, ctx,
                                 f"parameter {arg.arg!r} of {node.name!r} "
                                 "has a mutable default evaluated once at "
                                 "def time; default to None and build "
                                 "inside the function")

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check


@rule
class ImplicitOptionalRule(Rule):
    """API302: ``param: T = None`` must be annotated ``Optional[T]``.

    A non-Optional annotation with a ``None`` default misleads callers and
    type checkers alike (e.g. the old ``rng: np.random.Generator = None``
    in ``repro.nn.init``).
    """

    id = "API302"
    name = "implicit-optional"
    severity = Severity.ERROR
    description = "None default with non-Optional annotation"
    library_only = False

    def _check(self, node, ctx: ModuleContext) -> Iterator[Finding]:
        for arg, default in _args_with_defaults(node):
            is_none = isinstance(default, ast.Constant) \
                and default.value is None
            if not is_none or arg.annotation is None:
                continue
            if not _annotation_allows_none(arg.annotation):
                rendered = ast.unparse(arg.annotation)
                yield self.found(arg, ctx,
                                 f"parameter {arg.arg!r} of {node.name!r} "
                                 f"defaults to None but is annotated "
                                 f"{rendered!r}; use Optional[{rendered}]")

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check


@rule
class BrokerInternalsRule(Rule):
    """API303: broker internals stay inside ``repro/streaming/``.

    The broker's log, group, and offset tables (``_topics``, ``_groups``,
    ``_group_offsets``, ``_positions``, ``_segments``) encode invariants —
    committed <= position <= end, assignment consistent with membership —
    that outside writers silently break.  Everything external goes through
    the public surface (``produce``/``consumer``/``lag``/
    ``committed_offset``/``partition_assignment``/...).
    """

    id = "API303"
    name = "broker-internals"
    severity = Severity.ERROR
    description = "direct access to streaming-broker internals"
    library_only = False

    BANNED = frozenset({"_topics", "_groups", "_group_offsets",
                        "_positions", "_segments"})

    def applies(self, ctx: ModuleContext) -> bool:
        # the broker package itself is the one sanctioned home
        return "repro/streaming/" not in ctx.rel_path

    def visit_Attribute(self, node: ast.Attribute,
                        ctx: ModuleContext) -> Iterator[Finding]:
        if node.attr in self.BANNED:
            yield self.found(node, ctx,
                             f"attribute {node.attr!r} is a streaming-broker "
                             "internal; use the public broker API "
                             "(committed_offset/position/lag/"
                             "partition_assignment/topic_names) instead")


@rule
class ServingPathRule(Rule):
    """API304: raw deployment serving calls stay behind ``repro.serving``.

    ``TwoTierDeployment.serve_batched`` is the bare inference surface:
    no coalescing, no queue bound, no shedding.
    Library code outside ``repro/serving/`` and ``repro/fog/`` that calls
    it directly silently opts the request path out of all of that, so it
    must route through the gateway
    (:class:`repro.serving.ServingGateway` /
    :func:`repro.serving.serve_camera_topic`) instead.  Tests and
    benchmarks may still drive deployments directly — equivalence checks
    against the raw path are exactly their job.
    """

    id = "API304"
    name = "serving-path"
    severity = Severity.ERROR
    description = ("direct TwoTierDeployment.serve_batched call outside "
                   "repro/serving/ and repro/fog/")
    library_only = True

    BANNED = frozenset({"serve_batched"})

    def applies(self, ctx: ModuleContext) -> bool:
        # the serving plane and the fog tier are the sanctioned homes;
        # super() keeps the library_only scoping (tests/benchmarks exempt)
        return (super().applies(ctx)
                and "repro/serving/" not in ctx.rel_path
                and "repro/fog/" not in ctx.rel_path)

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.BANNED:
            yield self.found(node, ctx,
                             f"`.{func.attr}()` is the raw deployment "
                             "serving surface; route through repro.serving "
                             "(ServingGateway.submit / serve_camera_topic) "
                             "so admission control and shedding apply")
