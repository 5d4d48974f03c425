"""Determinism rules (DET1xx): randomness and clocks stay in the runtime.

Identically-seeded runs are byte-identical only while every random draw
derives from :class:`repro.runtime.rng.RngContext` and every timestamp
comes from the runtime clock.  These rules ban the escape hatches:
module-level ``random``, ad-hoc ``np.random.default_rng(...)`` streams,
direct wall-clock reads, boolean-``or`` RNG fallbacks, and set-iteration
order leaking into results (string hashes — hence set order — vary per
process unless ``PYTHONHASHSEED`` is pinned).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.context import ModuleContext
from repro.analysis.core import Finding, Rule, Severity, rule
from repro.analysis.dataflow import (expression_tainted, iter_scopes,
                                     scope_nodes, tainted_names)

#: the one module allowed to construct raw generators
RNG_HOME = ("repro/runtime/rng.py",)
#: the one module allowed to read the wall clock
CLOCK_HOME = ("repro/runtime/core.py",)

WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}


@rule
class BareRandomRule(Rule):
    """DET101: the stdlib ``random`` module is off limits outside the runtime.

    ``runtime.rng.child("<layer>.<component>")`` gives the same API
    (a ``random.Random``) with a seed derived from the run's root seed.
    """

    id = "DET101"
    name = "bare-random"
    severity = Severity.ERROR
    description = ("stdlib `random` used outside repro.runtime.rng; draw from "
                   "runtime.rng.child(...) instead")
    exempt_suffixes = RNG_HOME

    def visit_Import(self, node: ast.Import,
                     ctx: ModuleContext) -> Iterator[Finding]:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                yield self.found(node, ctx,
                                 "import of stdlib `random`; use "
                                 "runtime.rng.child(...) streams instead")

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: ModuleContext) -> Iterator[Finding]:
        if node.level == 0 and node.module == "random":
            yield self.found(node, ctx,
                             "import from stdlib `random`; use "
                             "runtime.rng.child(...) streams instead")

    def visit_Attribute(self, node: ast.Attribute,
                        ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node)
        if resolved and resolved.startswith("random."):
            yield self.found(node, ctx,
                             f"`{resolved}` bypasses the runtime RNG; use "
                             "runtime.rng.child(...) instead")


@rule
class NumpyGlobalRngRule(Rule):
    """DET102: no ad-hoc numpy generators outside ``repro.runtime.rng``.

    ``np.random.default_rng(seed)`` creates a stream whose identity is
    invisible to the runtime; ``runtime.rng.np_child(scope, seed)`` gives
    a collision-resistant stream derived from the run's root seed.
    """

    id = "DET102"
    name = "numpy-global-rng"
    severity = Severity.ERROR
    description = ("numpy.random constructor/global used outside "
                   "repro.runtime.rng; use runtime.rng.np_child(...) or "
                   "resolve_rng(...)")
    exempt_suffixes = RNG_HOME

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved and resolved.startswith("numpy.random."):
            yield self.found(node, ctx,
                             f"call to `{resolved}` outside repro.runtime.rng;"
                             " use runtime.rng.np_child(...) / resolve_rng(...)"
                             " so the stream derives from the run seed")


@rule
class RngOrFallbackRule(Rule):
    """DET103: no boolean-``or`` fallbacks on RNG parameters.

    ``rng or <default>`` silently replaces a falsy-but-valid argument and
    hides the default stream from the runtime; use
    ``repro.runtime.rng.resolve_rng(rng, "<layer>.<component>")``, which
    tests ``is None`` and derives the fallback from the run seed.
    """

    id = "DET103"
    name = "rng-or-fallback"
    severity = Severity.ERROR
    description = ("implicit `rng or <default>` fallback; use "
                   "repro.runtime.rng.resolve_rng(rng, scope)")

    def visit_BoolOp(self, node: ast.BoolOp,
                     ctx: ModuleContext) -> Iterator[Finding]:
        if not isinstance(node.op, ast.Or) or not node.values:
            return
        first = node.values[0]
        if isinstance(first, ast.Name) and (
                first.id == "rng" or first.id.endswith("_rng")
                or first.id == "random_state"):
            yield self.found(node, ctx,
                             f"`{first.id} or ...` hides the fallback stream; "
                             "use resolve_rng(rng, \"<layer>.<component>\")")


@rule
class WallClockRule(Rule):
    """DET104: wall-clock reads live in ``repro.runtime.core`` only.

    Everything else asks the runtime (``runtime.now()``), which reports
    virtual time while a DES environment is bound — the wall/sim clock
    split that makes simulated runs replayable.
    """

    id = "DET104"
    name = "wall-clock"
    severity = Severity.ERROR
    description = ("direct wall-clock read outside repro.runtime.core; use "
                   "runtime.now()")
    exempt_suffixes = CLOCK_HOME

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in WALL_CLOCK_CALLS:
            yield self.found(node, ctx,
                             f"`{resolved}()` reads the wall clock directly; "
                             "use runtime.now() so DES runs stay replayable")


def _is_set_like(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


@rule
class SetIterationOrderRule(Rule):
    """DET105: don't let set iteration order reach ordered results.

    String hashing is randomized per process, so iterating a set of
    strings yields a different order in every run unless
    ``PYTHONHASHSEED`` is pinned.  Materializing that order (``list(set)``)
    or looping over a set expression leaks it into results and dumps;
    wrap the set in ``sorted(...)`` first.
    """

    id = "DET105"
    name = "set-iteration-order"
    severity = Severity.ERROR
    description = ("iteration over a set expression leaks hash order; wrap "
                   "in sorted(...)")

    def visit_For(self, node: ast.For,
                  ctx: ModuleContext) -> Iterator[Finding]:
        if _is_set_like(node.iter):
            yield self.found(node, ctx,
                             "for-loop over a set expression has "
                             "process-dependent order; iterate "
                             "sorted(...) instead")

    def _comprehension_findings(self, node, ctx) -> Iterator[Finding]:
        for gen in node.generators:
            if _is_set_like(gen.iter):
                yield self.found(node, ctx,
                                 "comprehension over a set expression has "
                                 "process-dependent order; iterate "
                                 "sorted(...) instead")

    visit_ListComp = _comprehension_findings
    visit_DictComp = _comprehension_findings
    visit_GeneratorExp = _comprehension_findings

    def visit_Call(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        if (isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"}
                and len(node.args) == 1 and _is_set_like(node.args[0])):
            yield self.found(node, ctx,
                             f"{node.func.id}(<set>) materializes "
                             "process-dependent order; use sorted(...) "
                             "instead")


#: rng-parameter spellings the taint rules treat as "caller provided a stream"
def _is_rng_param_name(name: str) -> bool:
    return name == "rng" or name.endswith("_rng") or name == "random_state"


#: constructors that mint a fresh, runtime-invisible random stream
FRESH_RNG_CALLS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "random.Random",
}


@rule
class ShadowedRngRule(Rule):
    """DET106: a function handed an ``rng`` must not mint its own.

    Accepting an ``rng`` parameter is a contract: *this* stream is the
    function's randomness.  Constructing a fresh ``default_rng`` inside
    (usually a leftover fallback) silently forks determinism — the
    caller's stream advances differently than the code actually draws,
    and two call sites passing the same stream stop being reproducible.
    Applies to tests too: a test that seeds ``rng`` but draws from a
    fresh generator is not testing what it says it tests.
    """

    id = "DET106"
    name = "shadowed-rng"
    severity = Severity.ERROR
    description = ("fresh random generator constructed inside a function "
                   "that already receives an rng parameter")
    library_only = False
    exempt_suffixes = RNG_HOME

    def _check(self, node, ctx: ModuleContext) -> Iterator[Finding]:
        args = node.args
        params = [a.arg for a in
                  (args.posonlyargs + args.args + args.kwonlyargs)]
        rng_params = [p for p in params if _is_rng_param_name(p)]
        if not rng_params:
            return
        for child in scope_nodes(node.body):
            if not isinstance(child, ast.Call):
                continue
            resolved = ctx.resolve(child.func)
            if resolved in FRESH_RNG_CALLS:
                yield self.found(child, ctx,
                                 f"{node.name!r} receives "
                                 f"{rng_params[0]!r} but constructs "
                                 f"`{resolved}`; draw from the parameter "
                                 "(resolve_rng(...) for the None case)")

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check


#: keyword arguments that stamp a record with a time value
_TIMESTAMP_KEYWORDS = {"timestamp"}

#: constructor names treated as serialized-record sinks
_RECORD_CTORS = ("Record",)


@rule
class WallClockTaintRule(Rule):
    """DET107: wall-clock values must not flow into serialized records.

    DET104 flags the wall-clock *call*; this rule follows the *value*.
    A ``time.time()`` read parked in a local and later passed as
    ``Record(timestamp=...)``, assigned to ``something.timestamp``, or
    emitted in an event payload poisons ``deterministic_dump`` output
    two statements away from the offending call.  The taint pass is
    intraprocedural and monotone (see :mod:`repro.analysis.dataflow`);
    stamp from the runtime clock (``runtime.now()``) or the broker's
    logical tick instead.  Applies to tests and benchmarks too — a
    wall-stamped record breaks byte-identical dump assertions no matter
    who constructs it.
    """

    id = "DET107"
    name = "wall-clock-taint"
    severity = Severity.ERROR
    description = ("wall-clock value flows into Record timestamps / "
                   "event payloads (poisons deterministic dumps)")
    library_only = False
    exempt_suffixes = CLOCK_HOME

    def _is_source(self, ctx: ModuleContext):
        def check(node: ast.AST) -> bool:
            return (isinstance(node, ast.Call)
                    and ctx.resolve(node.func) in WALL_CLOCK_CALLS)
        return check

    def visit_Module(self, node: ast.Module,
                     ctx: ModuleContext) -> Iterator[Finding]:
        is_source = self._is_source(ctx)
        for owner, body in iter_scopes(node):
            tainted = tainted_names(body, is_source)
            yield from self._check_sinks(body, tainted, is_source, ctx)

    def _check_sinks(self, body, tainted: Set[str], is_source,
                     ctx: ModuleContext) -> Iterator[Finding]:
        def carries(expr: Optional[ast.AST]) -> bool:
            return expr is not None and \
                expression_tainted(expr, tainted, is_source)

        for node in scope_nodes(body):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, carries, ctx)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            target.attr in _TIMESTAMP_KEYWORDS and \
                            carries(node.value):
                        yield self.found(
                            node, ctx,
                            f"wall-clock value assigned to "
                            f"`.{target.attr}`; serialized timestamps "
                            "must come from runtime.now() or a logical "
                            "tick")

    def _check_call(self, node: ast.Call, carries,
                    ctx: ModuleContext) -> Iterator[Finding]:
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if callee.endswith(_RECORD_CTORS):
            for keyword in node.keywords:
                if keyword.arg in _TIMESTAMP_KEYWORDS and \
                        carries(keyword.value):
                    yield self.found(
                        keyword.value, ctx,
                        f"wall-clock value flows into "
                        f"{callee}(timestamp=...); deterministic dumps "
                        "require runtime.now() or a logical tick")
        if callee == "emit" and isinstance(func, ast.Attribute):
            chain = []
            value = func.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                chain.append(value.id)
            if "events" in chain:
                for keyword in node.keywords:
                    if carries(keyword.value):
                        label = keyword.arg or "**payload"
                        yield self.found(
                            keyword.value, ctx,
                            f"wall-clock value flows into event payload "
                            f"{label!r}; dumps serialize payloads "
                            "byte-for-byte — use runtime.now()")


def _is_str_expression(node: ast.AST, str_params: Set[str]) -> bool:
    """A str literal, an f-string, ``str(...)`` / ``repr(...)``, or a
    parameter annotated ``str``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"str", "repr"}
    return isinstance(node, ast.Name) and node.id in str_params


@rule
class StrHashRule(Rule):
    """DET108: no bare ``hash()`` of a string.

    ``str`` hashes are salted per process (``PYTHONHASHSEED``), so a
    bucket, placement or partition computed as ``hash(name) % n`` moves
    between identically-seeded runs.  Use a keyed digest of the bytes
    (``zlib.crc32(name.encode())``).  Numeric hashes are unsalted, so a
    ``hash()`` whose argument is not visibly a string is left alone.
    """

    id = "DET108"
    name = "str-hash"
    severity = Severity.ERROR
    description = ("hash() of a str is salted per process; use "
                   "zlib.crc32(value.encode())")

    def visit_Module(self, node: ast.Module,
                     ctx: ModuleContext) -> Iterator[Finding]:
        for owner, body in iter_scopes(node):
            args = getattr(owner, "args", None)
            str_params = set() if args is None else {
                arg.arg for arg in (args.posonlyargs + args.args
                                    + args.kwonlyargs)
                if isinstance(arg.annotation, ast.Name)
                and arg.annotation.id == "str"}
            for child in scope_nodes(body):
                if isinstance(child, ast.Call) and \
                        isinstance(child.func, ast.Name) and \
                        child.func.id == "hash" and len(child.args) == 1 \
                        and _is_str_expression(child.args[0], str_params):
                    yield self.found(child, ctx,
                                     "hash() of a str differs per process "
                                     "(PYTHONHASHSEED); use "
                                     "zlib.crc32(value.encode())")
