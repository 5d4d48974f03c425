"""One seeded violation per rule, in a copy of the real module it guards.

The per-pack rule suites pin *how* each rule matches, on synthetic
snippets.  This file pins that every rule still matches the code it was
written for: each case copies a real module of this repository, inserts
one violation above a named anchor line, and asserts that exactly that
rule fires, at exactly the seeded line (the one marked ``# seeded``),
while the unmutated copy is clean for it.

Module rules run through :func:`analyze_source` under the module's real
path; graph rules run through :func:`analyze_paths` on a temporary tree
holding only the real modules the rule needs.  When a guarded module is
refactored so its anchor disappears, the case fails by name: re-aim it
at the code that now carries the contract, or retire the rule.
"""

import re
import textwrap
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

import pytest

from repro.analysis import GraphRule, all_rules, analyze_paths, analyze_source

REPO_ROOT = Path(__file__).resolve().parents[2]

SEEDED = "# seeded"


@dataclass(frozen=True)
class Mutation:
    """Seed ``seed`` above the one line of ``path`` containing ``anchor``.

    ``anchor=None`` makes ``path`` a new file whose content is ``seed``.
    ``tree`` lists further real modules a graph rule's tree holds.
    """

    rule: str
    path: str
    anchor: Optional[str]
    seed: str
    tree: Tuple[str, ...] = ()


CASES = [
    # -- determinism ------------------------------------------------------------
    Mutation("DET101", "src/repro/data/video.py", "import numpy as np",
             "import random  # seeded"),
    Mutation("DET102", "src/repro/data/video.py",
             'self._rng = get_runtime().rng.np_child("data.video.scenes", seed)',
             "self._rng = np.random.default_rng(seed)  # seeded"),
    Mutation("DET103", "src/repro/nn/init.py",
             "bound = np.sqrt(6.0 / max(fan_in, 1))",
             "rng = rng or _FALLBACK_RNG  # seeded"),
    Mutation("DET104", "src/repro/runtime/tracing.py",
             "now, kind = self._clock()", """
             import time
             started = time.perf_counter()  # seeded
             """),
    Mutation("DET105", "src/repro/compute/rdd.py",
             "deduped = self.map(lambda x: (x, None))",
             "return self.context.parallelize(list(set(self.collect())))"
             "  # seeded"),
    Mutation("DET106", "tests/nn/gradcheck.py",
             "value = rng.normal(0, 1, shape)",
             "rng = np.random.default_rng(0)  # seeded"),
    Mutation("DET107", "src/repro/streaming/broker.py",
             "stage = (t.config.share_ndarrays", """
             import time
             stamp = time.time()
             probe = Record(topic=topic, partition=0, offset=0, key=None,
                            value=None, timestamp=stamp)  # seeded
             """),
    Mutation("DET108", "src/repro/streaming/broker.py",
             "digest = hashlib.md5(key.encode()).digest()",
             "partition = hash(key) % len(self.partitions)  # seeded"),
    # -- observability ----------------------------------------------------------
    Mutation("OBS201", "src/repro/serving/gateway.py",
             "self._m_submitted = registry.counter(",
             'self._m_probes = registry.counter("gateway_probes")  # seeded'),
    Mutation("OBS202", "src/repro/serving/gateway.py",
             'with tracer.span("serving.gateway.batch", batch=seq,',
             'tracer.span("serving.gateway.batch", batch=seq)  # seeded'),
    Mutation("OBS203", "src/repro/cluster/failures.py",
             "if self.on_fail is not None:",
             'self.runtime.events.emit("cluster.failure",'
             " targets={_target_name(victim)})  # seeded"),
    # -- API hygiene ------------------------------------------------------------
    Mutation("API301", "src/repro/nosql/mongo.py",
             "def find_one(self, query: Optional[Dict] = None)", """
             def find_many(self, queries=[]):  # seeded
                 return [self.find(query) for query in queries]
             """),
    Mutation("API302", "src/repro/nosql/mongo.py",
             "def count(self, query: Optional[Dict] = None)", """
             def exists(self, query: Dict = None) -> bool:  # seeded
                 return self.count(query) > 0
             """),
    Mutation("API303", "src/repro/core/infrastructure.py",
             "if name not in self.bus.topic_names():",
             "backlog = len(self.bus._topics)  # seeded"),
    Mutation("API304", "src/repro/apps/vehicle/app.py",
             "decisions = run_policy_batched(self.model, frames, policy)",
             "decisions = self.deployment.serve_batched(frames, policy)"
             "  # seeded"),
    # -- performance ------------------------------------------------------------
    Mutation("PERF401", "src/repro/nn/functional.py",
             "dtype = np.result_type(x.dtype, weight.dtype)",
             "x = np.asarray(x, dtype=np.float64)  # seeded"),
    Mutation("PERF402", "src/repro/compute/rdd.py",
             "bucket_of: Dict[Any, List[Tuple]] = {}", """
             from concurrent.futures import ThreadPoolExecutor
             pool = ThreadPoolExecutor(max_workers=2)  # seeded
             """),
    Mutation("PERF403", "src/repro/nn/plan.py",
             "conv_k_major(self._bands, self._w_flat, self._bias_col,",
             "scratch = np.empty(self._gemm.shape, self._gemm.dtype)"
             "  # seeded"),
    Mutation("PERF404", "src/repro/streaming/broker.py",
             "part.end_offset = lane_offsets.stop",
             "self._produced.inc(len(rows), topic=topic)  # seeded"),
    # -- architecture (graph) ---------------------------------------------------
    Mutation("ARCH501", "src/repro/runtime/events.py",
             "from collections import deque",
             "from repro.fog.pipeline import FogPipeline  # seeded"),
    Mutation("ARCH502", "src/repro/runtime/core.py",
             "from repro.runtime.events import EventLog",
             "from repro.runtime.parallel import deterministic_dump  # seeded",
             tree=("src/repro/runtime/parallel.py",)),
    Mutation("ARCH503", "src/repro/analysis/engine.py",
             "from pathlib import Path", "import numpy  # seeded"),
    Mutation("ARCH504", "src/repro/fog/deployment.py",
             "from repro.nn.fuse import fuse_for_inference",
             "from repro.nn.plan import _ConvOp  # seeded"),
    Mutation("ARCH505", "src/repro/edgecache/__init__.py", None,
             '"""Edge-side frame cache."""  # seeded',
             tree=("src/repro/serving/__init__.py",)),
    # -- concurrency (graph) ----------------------------------------------------
    Mutation("CONC604", "src/repro/fog/pipeline.py",
             "data_at = chosen", """
             import time
             time.sleep(0.001)  # seeded
             """),
]

GRAPH_RULES = {r.id for r in all_rules() if isinstance(r, GraphRule)}


@lru_cache(maxsize=None)
def real_source(path: str) -> str:
    return (REPO_ROOT / path).read_text(encoding="utf-8")


def mutate(case: Mutation) -> Tuple[str, int]:
    """The seeded source and the 1-based line marked ``# seeded``."""
    seed = textwrap.dedent(case.seed).strip("\n").splitlines()
    marked = [i for i, line in enumerate(seed) if line.endswith(SEEDED)]
    assert len(marked) == 1, f"{case.rule}: mark exactly one seeded line"
    if case.anchor is None:
        return "\n".join(seed) + "\n", marked[0] + 1
    lines = real_source(case.path).splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if case.anchor in line]
    assert len(hits) == 1, (f"{case.rule}: anchor {case.anchor!r} is on "
                            f"{len(hits)} lines of {case.path}, not one")
    at = hits[0]
    indent = re.match(r"\s*", lines[at]).group()
    seeded = [f"{indent}{line}\n" if line else "\n" for line in seed]
    return "".join(lines[:at] + seeded + lines[at:]), at + marked[0] + 1


@lru_cache(maxsize=None)
def module_findings(path: str, source: str):
    return analyze_source(source, path=path)


def tree_findings(root: Path, case: Mutation, source: Optional[str]):
    """Findings on ``case.tree`` plus ``source`` at ``case.path``.

    ``source=None`` leaves ``case.path`` out of the tree.
    """
    files = {rel: real_source(rel) for rel in case.tree}
    if source is not None:
        files[case.path] = source
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    findings, _ = analyze_paths([str(root)])
    return [(f.rule, Path(f.path).relative_to(root).as_posix(), f.line)
            for f in findings]


def test_every_registered_rule_has_one_case():
    assert sorted(case.rule for case in CASES) == \
        sorted(r.id for r in all_rules())


@pytest.mark.parametrize("case", CASES, ids=[case.rule for case in CASES])
def test_seeded_violation_fires_exactly_its_rule(case, tmp_path):
    mutated, line = mutate(case)
    if case.rule in GRAPH_RULES:
        original = None if case.anchor is None else real_source(case.path)
        before = tree_findings(tmp_path / "before", case, original)
        after = tree_findings(tmp_path / "after", case, mutated)
    else:
        before = [(f.rule, case.path, f.line) for f in
                  module_findings(case.path, real_source(case.path))]
        after = [(f.rule, case.path, f.line) for f in
                 module_findings(case.path, mutated)]
    assert [f for f in before if f[0] == case.rule] == []
    assert [f for f in after if f[0] == case.rule
            or f[1:] == (case.path, line)] == [(case.rule, case.path, line)]
