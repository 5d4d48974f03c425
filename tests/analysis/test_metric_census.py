"""Metric census: every metric name ``src/`` writes has a reader.

A name passed as a literal to ``.counter`` / ``.gauge`` / ``.histogram``
under ``src/`` must be read by name: it must appear as a string literal
in ``tests/``, ``benchmarks/`` or ``examples/``.  ``tests/analysis/`` is
not a reader: its rule fixtures hold metric calls inside source strings,
and this file names every ``KEEP`` entry.  A bulk reader (a registry
dump, ``/metrics``, the Fig. 3 family table) does not count either.

``KEEP`` lists the names that stay without such a reader, one reason
each; a call whose name is built at run time must start with a prefix
on ``KEEP_PREFIXES``.  An entry that gains a reader, or whose name
``src/`` no longer writes, must leave the list.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.runtime.parallel import PLAN_METRIC_PREFIX, WALL_CLOCK_METRICS
from repro.serving import VOLATILE_METRIC_PREFIXES
from repro.streaming.broker import (
    VOLATILE_METRIC_PREFIXES as BROKER_VOLATILE_METRIC_PREFIXES,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: trees whose string literals read a metric by name
READER_ROOTS = ["tests", "benchmarks", "examples"]
NOT_READERS = REPO_ROOT / "tests" / "analysis"

INSTRUMENTS = ("counter", "gauge", "histogram")

DES_REPORT = "read back by fog.pipeline._stream_stats (the DES report)"
SPARK_VIEW = "read back by a SparkContext property"
GATEWAY_STATS = "read back by ServingGateway.stats()"

#: metric name -> one-line reason it stays without a named reader
KEEP: Dict[str, str] = {
    "compute.spark.partitions_computed": SPARK_VIEW,
    "fog.pipeline.bytes_shipped": DES_REPORT,
    "fog.pipeline.degraded": DES_REPORT,
    "fog.pipeline.dropped": DES_REPORT,
    "fog.pipeline.failovers": DES_REPORT,
    "fog.pipeline.item_latency_s": DES_REPORT,
    "fog.pipeline.machine_busy_s": DES_REPORT,
    "fog.pipeline.resolved": DES_REPORT,
    "fog.pipeline.retries": DES_REPORT,
    "serving.gateway.admitted": GATEWAY_STATS,
    "serving.gateway.failed": GATEWAY_STATS,
    "serving.gateway.shed": GATEWAY_STATS,
    "streaming.broker.produce_to_consume_s":
        "end-to-end delay, with consumer lag the streaming signal "
        "the Kafka smart-city guidelines name",
}

#: name prefix of a run-time-built metric name -> reason
KEEP_PREFIXES: Dict[str, str] = {
    PLAN_METRIC_PREFIX: "plan-cache counters, read through plan_stats()",
    "fog.pipeline.": "the DES outcome series pre-created per run",
}


def _constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    return {target.id: stmt.value.value for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
            for target in stmt.targets if isinstance(target, ast.Name)}


def _prefix(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """The literal text a name expression starts with, if any."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.JoinedStr) and node.values:
        return _prefix(node.values[0], constants)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _prefix(node.left, constants)
    return None


def metric_writes(sources: Dict[str, str]
                  ) -> Tuple[Dict[str, List[str]], Dict[str, Optional[str]]]:
    """``({literal name: [site]}, {dynamic site: its literal prefix})``."""
    literal: Dict[str, List[str]] = {}
    dynamic: Dict[str, Optional[str]] = {}
    for path, source in sorted(sources.items()):
        tree = ast.parse(source)
        constants = _constants(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in INSTRUMENTS and node.args):
                continue
            site = f"{path}:{node.lineno}"
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                literal.setdefault(name.value, []).append(site)
            else:
                dynamic[site] = _prefix(name, constants)
    return literal, dynamic


def unread(sources: Dict[str, str], readers: Set[str]) -> List[str]:
    """Written names and dynamic sites with neither a reader nor a KEEP."""
    literal, dynamic = metric_writes(sources)
    found = [f"{name} ({literal[name][0]})" for name in sorted(literal)
             if name not in readers and name not in KEEP]
    found += [f"{site} (prefix {prefix!r})"
              for site, prefix in sorted(dynamic.items())
              if prefix not in KEEP_PREFIXES]
    return found


def _sources(root: str) -> Dict[str, str]:
    return {path.relative_to(REPO_ROOT).as_posix():
            path.read_text(encoding="utf-8")
            for path in sorted((REPO_ROOT / root).rglob("*.py"))}


@functools.lru_cache(maxsize=1)
def src_sources() -> Dict[str, str]:
    return _sources("src")


@functools.lru_cache(maxsize=1)
def reader_literals() -> Set[str]:
    literals = set()
    for root in READER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if NOT_READERS in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    literals.add(node.value)
    return literals


def test_every_metric_src_writes_has_a_reader():
    found = unread(src_sources(), reader_literals())
    assert found == [], (
        "metrics nothing reads by name (delete the write, or keep-list "
        "the name with a reason):\n  " + "\n  ".join(found))


def test_keep_lists_hold_only_written_names_still_without_a_reader():
    literal, dynamic = metric_writes(src_sources())
    stale = sorted(name for name in KEEP
                   if name not in literal or name in reader_literals())
    stale += sorted(set(KEEP_PREFIXES) - set(dynamic.values()))
    assert stale == [], "keep-list entries that are read or no longer " \
        "written:\n  " + "\n  ".join(stale)


@pytest.mark.parametrize("entry", sorted(
    {*WALL_CLOCK_METRICS, *VOLATILE_METRIC_PREFIXES,
     *BROKER_VOLATILE_METRIC_PREFIXES, PLAN_METRIC_PREFIX}))
def test_exclusion_lists_name_a_registered_family(entry):
    # a stale entry of a deterministic_dump exclusion list excludes
    # nothing, silently
    literal, dynamic = metric_writes(src_sources())
    families = [*literal, *filter(None, dynamic.values())]
    assert any(family.startswith(entry) for family in families), entry


def test_an_unread_write_is_reported():
    broker = "src/repro/streaming/broker.py"
    sources = {broker: src_sources()[broker]
               + '\n\ndef _probe(registry):\n'
                 '    registry.counter("streaming.broker.x").inc()\n'}
    assert [entry.split(" ")[0]
            for entry in unread(sources, reader_literals())] == \
        ["streaming.broker.x"]
