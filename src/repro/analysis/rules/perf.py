"""Performance rules (PERF4xx): keep the inference fast path dtype-clean.

The dtype policy lives in :mod:`repro.nn.dtypes`: float64 is the training
default (byte-stable registry dumps), float32 the inference dtype, and ops
must preserve whatever dtype their inputs carry.  A hard-coded
``np.float64`` cast anywhere else silently upcasts float32 activations and
doubles the fast path's memory traffic — these rules ban the construct
outside its sanctioned homes.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from repro.analysis.context import ModuleContext
from repro.analysis.core import Finding, Rule, Severity, rule

#: modules allowed to name float64 explicitly: the tensor core (default
#: policy enforcement), the optimizer state (always float64 for stable
#: moment accumulation), and the dtype policy itself.
DTYPE_HOMES = (
    "repro/nn/tensor.py",
    "repro/nn/optim.py",
    "repro/nn/dtypes.py",
)

#: numpy constructors whose ``dtype=`` argument the rule inspects.
_CAST_CONSTRUCTORS = {
    "numpy.asarray", "numpy.array", "numpy.zeros", "numpy.ones",
    "numpy.full", "numpy.empty", "numpy.zeros_like", "numpy.ones_like",
    "numpy.full_like", "numpy.empty_like", "numpy.arange", "numpy.linspace",
}


def _resolves_to_float64(node: Optional[ast.AST],
                         ctx: ModuleContext) -> bool:
    if node is None:
        return False
    resolved = ctx.resolve(node)
    if resolved == "numpy.float64":
        return True
    return isinstance(node, ast.Constant) and node.value == "float64"


@rule
class HardcodedFloat64Rule(Rule):
    """PERF401: no hard-coded float64 casts outside the dtype policy homes.

    ``np.asarray(x, dtype=np.float64)`` and ``x.astype(np.float64)``
    override the configured dtype and upcast float32 inference data back
    to float64.  Use :func:`repro.nn.dtypes.ensure_float` (respects the
    default-dtype policy and preserves float32/float64 inputs) or cast to
    the companion array's ``.dtype`` instead.
    """

    id = "PERF401"
    name = "hardcoded-float64"
    severity = Severity.ERROR
    description = ("hard-coded float64 cast outside repro.nn dtype-policy "
                   "homes; use repro.nn.dtypes.ensure_float(...) or the "
                   "input's own dtype")
    exempt_suffixes = DTYPE_HOMES

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in _CAST_CONSTRUCTORS:
            dtype_arg = next((kw.value for kw in node.keywords
                              if kw.arg == "dtype"), None)
            if dtype_arg is None and len(node.args) >= 2 \
                    and resolved in {"numpy.asarray", "numpy.array"}:
                dtype_arg = node.args[1]
            if _resolves_to_float64(dtype_arg, ctx):
                short = resolved.replace("numpy.", "np.")
                yield self.found(node, ctx,
                                 f"`{short}(..., dtype=np.float64)` "
                                 "overrides the dtype policy; use "
                                 "ensure_float(...) or the input's dtype")
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            dtype_arg = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "dtype"), None)
            if _resolves_to_float64(dtype_arg, ctx):
                yield self.found(node, ctx,
                                 "`.astype(np.float64)` upcasts float32 "
                                 "inference data; use ensure_float(...) or "
                                 "the companion array's dtype")


#: the one sanctioned home for process/thread pool construction
POOL_HOME = ("repro/runtime/parallel.py",)

#: pool/worker constructors that may only appear in :data:`POOL_HOME`
_POOL_CONSTRUCTORS = {
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.pool.ThreadPool",
    "multiprocessing.dummy.Pool",
    "multiprocessing.Process",
    "multiprocessing.get_context",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
}


@rule
class DirectPoolConstructionRule(Rule):
    """PERF402: no ad-hoc worker pools outside :mod:`repro.runtime.parallel`.

    The library runs serially in one process: telemetry, span ids and
    seeded RNG streams all assume one writer, so a pool started anywhere
    else silently splits a run's dump across processes or threads.  The
    one sanctioned home for pool code is :data:`POOL_HOME`, where it has
    to come with its own answer for merging telemetry back.
    """

    id = "PERF402"
    name = "direct-pool-construction"
    severity = Severity.ERROR
    description = ("process/thread pool constructed outside "
                   "repro.runtime.parallel")
    exempt_suffixes = POOL_HOME

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in _POOL_CONSTRUCTORS:
            short = resolved.split(".")[-1]
            yield self.found(node, ctx,
                             f"`{short}(...)` builds workers outside "
                             "repro.runtime.parallel; run the work serially "
                             "or put the pool there, with its telemetry "
                             "merge")


#: numpy calls that allocate a fresh array: the constructors, ``where``
#: (no ``out=``), and ``ascontiguousarray`` — which copies whenever the
#: layout is not already the one asked for: in a hot path, a transposing
#: copy nobody sees
_ALLOC_CALLS = {
    "numpy.empty", "numpy.zeros", "numpy.ones", "numpy.full",
    "numpy.empty_like", "numpy.zeros_like", "numpy.ones_like",
    "numpy.full_like", "numpy.where", "numpy.ascontiguousarray",
}

#: numpy functions that return a fresh array unless handed ``out=``
_ALLOC_WITHOUT_OUT = {"numpy.take", "numpy.compress"}

#: array methods that return a fresh copy
_COPYING_METHODS = ("astype", "copy")

#: hot-path method names whose bodies must not allocate (``set_input``
#: binds a plan op to the caller's array before every run)
_HOT_METHODS = ("run", "execute", "set_input")

#: class-name suffixes marking plan-executor hot paths
_HOT_CLASS_SUFFIXES = ("Op", "Plan")


@rule
class PlanHotPathAllocationRule(Rule):
    """PERF403: no fresh array allocation in plan-executor hot paths.

    The whole point of a captured plan (:mod:`repro.nn.plan`) is that
    executing it touches only arena-owned buffers: every ``run`` is a
    straight line of ``out=``-style NumPy calls.  An ``np.empty`` /
    ``np.zeros`` inside an op's ``run`` silently reintroduces the per-call
    allocation churn the plan was built to remove — and it compounds,
    because plans execute per micro-batch on the serving fast path.
    Allocate at capture/bind time instead, and keep ``run`` allocation-
    free — and ``set_input``, which the executor calls before every run
    on the ops that read the caller's array in place.  Capture-time probes
    that genuinely need a scratch array carry ``# repro: noqa[PERF403]``.

    Array *temporaries* are the same churn with no constructor in sight,
    so the rule also flags, in those bodies: a comparison used as an
    operand (``np.multiply(x, x > 0, out=y)`` builds a full-size bool
    mask per run — write it with ``np.greater(..., out=mask)`` into a
    bound buffer, or use a ufunc that needs no mask), ``np.where(...)``
    (no ``out=``; always a fresh array), ``.astype(...)`` /
    ``.copy(...)`` calls, ``np.take(...)`` / ``np.compress(...)`` without
    ``out=``, and ``np.ascontiguousarray(...)`` — with feature maps stored
    batch-innermost that one is a full transposing copy whenever a caller
    hands over another layout.
    """

    id = "PERF403"
    name = "plan-hot-path-allocation"
    severity = Severity.ERROR
    description = ("fresh numpy array allocated inside a plan-executor "
                   "run/execute/set_input method; allocate at bind time "
                   "into the arena instead")

    def _enclosing_hot_path(self, node: ast.AST,
                            ctx: ModuleContext) -> Optional[str]:
        """'Class.method' when ``node`` sits in an Op/Plan run body.

        Closures defined inside ``run`` count as the run body — they
        execute per run just the same — so any enclosing function named
        ``run``/``execute``/``set_input`` under a matching class qualifies.
        """
        methods = []
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(current.name)
            elif isinstance(current, ast.ClassDef):
                if not current.name.endswith(_HOT_CLASS_SUFFIXES):
                    return None
                for name in methods:
                    if name in _HOT_METHODS:
                        return f"{current.name}.{name}"
                return None
            current = ctx.parent(current)
        return None

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in _ALLOC_CALLS or (
                resolved in _ALLOC_WITHOUT_OUT and not any(
                    keyword.arg == "out" for keyword in node.keywords)):
            what = f"`{resolved.replace('numpy.', 'np.')}(...)`"
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr in _COPYING_METHODS:
            what = f"`.{node.func.attr}(...)`"
        else:
            return
        hot_path = self._enclosing_hot_path(node, ctx)
        if hot_path is None:
            return
        yield self.found(node, ctx,
                         f"{what} allocates inside `{hot_path}` — a "
                         "plan-executor hot path; bind an arena buffer once "
                         "and reuse it (`out=`/in-place ops) instead")

    def visit_Compare(self, node: ast.Compare,
                      ctx: ModuleContext) -> Iterator[Finding]:
        # A comparison that feeds a call or an arithmetic expression is an
        # array mask; one that decides an `if`/`while`/`assert` is a scalar
        # test and allocates nothing worth flagging.
        if not isinstance(ctx.parent(node), (ast.Call, ast.keyword,
                                             ast.BinOp)):
            return
        hot_path = self._enclosing_hot_path(node, ctx)
        if hot_path is None:
            return
        yield self.found(node, ctx,
                         "comparison used as an operand builds a full-size "
                         f"bool mask on every `{hot_path}` — compare into a "
                         "bound buffer (`np.greater(..., out=mask)`) or use "
                         "a ufunc that needs no mask (`np.maximum`)")


#: metric-write methods whose labeled form re-resolves the series key
_METRIC_WRITE_METHODS = {"inc", "observe", "set", "dec"}

#: loop target/iterable names that mark a per-record/per-frame hot loop
_RECORD_LOOP_NAME = re.compile(
    r"record|frame|event|row|item|batch|sample|value|msg|message",
    re.IGNORECASE)

#: data-plane packages where per-record labeled metric calls are banned
_DATA_PLANE_PACKAGES = ("repro/streaming/", "repro/serving/", "repro/fog/")


def _loop_names(node: ast.AST) -> Set[str]:
    """Every bare name and attribute suffix mentioned in a loop header."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


@rule
class LabeledMetricInRecordLoopRule(Rule):
    """PERF404: no labeled metric writes inside per-record data-plane loops.

    ``counter.inc(..., topic=name)`` validates labels, sorts them, and
    rebuilds the series key string on *every* call — fine once per batch,
    ruinous once per record.  Inside a ``for`` loop over records, frames
    or events in the streaming/serving/fog data plane, the fix is a bound
    handle hoisted out of the loop::

        produced = counter.bind(topic=name)
        for record in batch:
            produced.inc()            # one dict write, no key rebuild

    Labels that *vary with the loop variable* (``tenant=pending.tenant``)
    cannot be hoisted, so those calls are exempt; so is anything outside
    ``repro/streaming/``, ``repro/serving/`` and ``repro/fog/``.
    """

    id = "PERF404"
    name = "labeled-metric-in-record-loop"
    severity = Severity.ERROR
    description = ("labeled metric call inside a per-record loop on the "
                   "data plane; bind(...) a handle outside the loop and "
                   "write through it")

    def _enclosing_record_loop(self, node: ast.AST,
                               ctx: ModuleContext) -> Optional[ast.AST]:
        """The nearest enclosing for-loop iterating records/frames/events.

        The walk stops at the enclosing function boundary: a loop in an
        outer function does not make a nested helper's body hot.
        """
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                return None
            if isinstance(current, (ast.For, ast.AsyncFor)):
                header_names = (_loop_names(current.target)
                                | _loop_names(current.iter))
                if any(_RECORD_LOOP_NAME.search(name)
                       for name in header_names):
                    return current
            current = ctx.parent(current)
        return None

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        rel_path = ctx.rel_path.replace("\\", "/")
        if not any(package in rel_path for package in _DATA_PLANE_PACKAGES):
            return
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in _METRIC_WRITE_METHODS:
            return
        labels = [kw for kw in node.keywords if kw.arg is not None]
        if not labels:
            return
        loop = self._enclosing_record_loop(node, ctx)
        if loop is None:
            return
        targets = _loop_names(loop.target)
        for keyword in labels:
            if any(isinstance(child, ast.Name) and child.id in targets
                   for child in ast.walk(keyword.value)):
                # per-iteration labels cannot be pre-bound
                return
        label_names = ", ".join(kw.arg for kw in labels)
        yield self.found(node, ctx,
                         f"`.{func.attr}(..., {label_names}=...)` re-resolves "
                         "its series key on every loop iteration; hoist "
                         "`metric.bind(...)` out of the record loop and call "
                         "the handle instead")
