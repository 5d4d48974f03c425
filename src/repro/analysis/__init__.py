"""Static analysis for the repro codebase: determinism & observability lints.

PR 1 made identically-seeded runs byte-identical by routing every draw of
randomness through :mod:`repro.runtime.rng` and every clock read through the
runtime's DES/wall-clock split.  Those are conventions; this package turns
them into machine-checked invariants.  It is a from-scratch framework on
:mod:`ast` — no third-party linter — with:

- a pluggable rule registry (:mod:`repro.analysis.core`) with per-rule
  severity and path scoping;
- ``# repro: noqa[RULE]`` line suppressions, the only escape hatch;
- text and JSON reporters (:mod:`repro.analysis.report`);
- a CLI: ``python -m repro.analysis src tests benchmarks`` (also installed
  as the ``repro-lint`` console script).

Since PR 7 the analyzer is *whole-program*: every parsed module feeds a
project graph (:mod:`repro.analysis.graph` — symbol tables, import
edges, re-export-following name resolution, Tarjan cycle detection, a
coarse call graph with reverse reachability) that graph-scoped rules
(:class:`~repro.analysis.core.GraphRule`) check once per run.  A run is
one serial pass: parse, module rules, graph rules.

Rule packs live under :mod:`repro.analysis.rules`:

- **determinism** (DET1xx): no bare ``random`` / ``np.random.default_rng``
  outside ``repro.runtime.rng``; no wall-clock reads outside
  ``repro.runtime.core``; no ``rng or <fallback>`` defaults; no set
  iteration order leaking into results; no fresh generators inside
  functions that receive an ``rng`` (DET106); no wall-clock values
  flowing into record timestamps or event payloads, tracked by the
  intraprocedural taint pass in :mod:`repro.analysis.dataflow` (DET107).
- **observability** (OBS2xx): metric/span names must be
  ``<layer>.<component>.<metric>``; ``tracer.span(...)`` must be a context
  manager; event payloads must be serializable.
- **API hygiene** (API3xx): no mutable default arguments; ``= None``
  defaults must be annotated ``Optional``.
- **architecture** (ARCH5xx): the declarative package layer map, checked
  with resolved import edges — no upward imports, no top-level import
  cycles, ``repro.analysis`` stays stdlib-only, no cross-package
  ``_private`` imports, every package placed in the map.
- **concurrency** (CONC604): DES-clocked code must not reach
  ``time.sleep``, directly or through the call graph.

The package deliberately depends only on the standard library — and on
nothing in ``repro`` outside itself — so the lint can run before the
scientific stack is importable.
"""

from repro.analysis.core import (Finding, GraphRule, Rule, Severity,
                                 all_rules, rule)
from repro.analysis.engine import (UnknownRuleError, UnlintablePathError,
                                   analyze_paths, analyze_source,
                                   registered_rule_ids)
from repro.analysis.graph import ProjectGraph, build_graph
from repro.analysis.report import render_json, render_text

__all__ = [
    "Finding", "GraphRule", "Rule", "Severity", "all_rules", "rule",
    "ProjectGraph", "build_graph",
    "UnknownRuleError", "UnlintablePathError", "analyze_paths",
    "analyze_source", "registered_rule_ids",
    "render_json", "render_text",
]
