"""Fixture-snippet tests for the API-hygiene rule pack (API3xx)."""

import textwrap

from repro.analysis import analyze_source

LIB = "src/repro/fog/example.py"


def check(source, path=LIB):
    return analyze_source(textwrap.dedent(source), path=path)


def rule_ids(findings):
    return [f.rule for f in findings]


class TestMutableDefault:
    def test_list_literal_flagged(self):
        findings = check("""
            def push(item, queue=[]):
                queue.append(item)
                return queue
        """)
        assert rule_ids(findings) == ["API301"]

    def test_dict_and_set_literals_flagged(self):
        findings = check("""
            def merge(extra={}, seen=set()):
                return extra, seen
        """)
        assert rule_ids(findings) == ["API301", "API301"]

    def test_kwonly_default_flagged(self):
        findings = check("""
            def push(item, *, queue=[]):
                return queue
        """)
        assert rule_ids(findings) == ["API301"]

    def test_none_default_clean(self):
        findings = check("""
            def push(item, queue=None):
                queue = queue if queue is not None else []
                return queue
        """)
        assert findings == []

    def test_applies_to_test_code(self):
        findings = check("def helper(acc=[]):\n    return acc\n",
                         path="tests/fog/test_example.py")
        assert rule_ids(findings) == ["API301"]


class TestImplicitOptional:
    def test_plain_annotation_flagged(self):
        findings = check("""
            def load(path: str = None):
                return path
        """)
        assert rule_ids(findings) == ["API302"]

    def test_np_generator_annotation_flagged(self):
        findings = check("""
            import numpy as np

            def init(shape, rng: np.random.Generator = None):
                return shape
        """)
        assert rule_ids(findings) == ["API302"]

    def test_optional_annotation_clean(self):
        findings = check("""
            from typing import Optional

            def load(path: Optional[str] = None):
                return path
        """)
        assert findings == []

    def test_union_none_clean(self):
        findings = check("""
            from typing import Union

            def load(path: Union[str, None] = None):
                return path
        """)
        assert findings == []

    def test_pipe_none_clean(self):
        findings = check("""
            def load(path: "str | None" = None):
                return path
        """)
        assert findings == []

    def test_unannotated_clean(self):
        findings = check("""
            def load(path=None):
                return path
        """)
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check(
            "def load(path: str = None):  # repro: noqa[API302]\n"
            "    return path\n")
        assert findings == []


class TestBrokerInternals:
    def test_reading_topics_table_flagged(self):
        findings = check("""
            def depth(bus):
                return len(bus._topics)
        """)
        assert rule_ids(findings) == ["API303"]

    def test_mutating_group_offsets_flagged(self):
        findings = check("""
            def rewind(bus, group, topic):
                bus._group_offsets[(group, topic, 0)] = 0
        """)
        assert rule_ids(findings) == ["API303"]

    def test_positions_and_segments_flagged(self):
        findings = check("""
            def peek(bus):
                return bus._positions, bus._segments
        """)
        assert rule_ids(findings) == ["API303", "API303"]

    def test_flagged_in_test_code_too(self):
        findings = check("def probe(bus):\n    return bus._topics\n",
                         path="tests/streaming/test_example.py")
        assert rule_ids(findings) == ["API303"]

    def test_public_api_clean(self):
        findings = check("""
            def healthy(bus, group, topic):
                return (bus.lag(group, topic),
                        bus.committed_offset(group, topic, 0),
                        bus.partition_assignment(group, topic),
                        bus.topic_names())
        """)
        assert findings == []

    def test_streaming_package_exempt(self):
        findings = check("def inside(self):\n    return self._topics\n",
                         path="src/repro/streaming/broker.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check(
            "def probe(bus):\n"
            "    return bus._topics  # repro: noqa[API303]\n")
        assert findings == []


class TestServingPath:
    def test_serve_batched_outside_serving_flagged(self):
        findings = check("""
            def handle(deployment, frames, policy):
                return deployment.serve_batched(frames, policy)
        """, path="src/repro/core/example.py")
        assert rule_ids(findings) == ["API304"]

    def test_serving_package_exempt(self):
        findings = check("""
            def serve(self, stacked, policy):
                return self.deployment.serve_batched(stacked, policy)
        """, path="src/repro/serving/gateway.py")
        assert findings == []

    def test_fog_package_exempt(self):
        findings = check("""
            def serve(deployment, frames, policy):
                return deployment.serve_batched(frames, policy)
        """, path="src/repro/fog/example.py")
        assert findings == []

    def test_tests_and_benchmarks_exempt(self):
        snippet = ("def probe(deployment, frames, policy):\n"
                   "    return deployment.serve_batched(frames, policy)\n")
        assert check(snippet, path="tests/fog/test_example.py") == []
        assert check(snippet, path="benchmarks/perf/bench_example.py") == []

    def test_gateway_surface_clean(self):
        findings = check("""
            async def handle(gateway, frames):
                return await gateway.submit(frames, tenant="cam")
        """, path="src/repro/core/example.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check(
            "def probe(deployment, frames, policy):\n"
            "    return deployment.serve_batched(frames, policy)"
            "  # repro: noqa[API304]\n",
            path="src/repro/core/example.py")
        assert findings == []
