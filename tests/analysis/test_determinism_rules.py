"""Fixture-snippet tests for the determinism rule pack (DET1xx).

Each rule gets a positive case (violation found), a suppressed case
(``# repro: noqa[RULE]`` silences it), and a scope case (sanctioned
module or non-library path is exempt).
"""

import textwrap

from repro.analysis import analyze_source

LIB = "src/repro/fog/example.py"         # library path: determinism applies
TEST = "tests/fog/test_example.py"       # test path: determinism exempt


def check(source, path=LIB):
    return analyze_source(textwrap.dedent(source), path=path)


def rule_ids(findings):
    return [f.rule for f in findings]


class TestBareRandom:
    def test_import_and_use_flagged(self):
        findings = check("""
            import random

            def roll():
                return random.random()
        """)
        assert rule_ids(findings) == ["DET101", "DET101"]
        assert findings[0].line == 2

    def test_from_import_flagged(self):
        findings = check("from random import Random\n")
        assert rule_ids(findings) == ["DET101"]

    def test_aliased_import_resolved(self):
        findings = check("""
            import random as rnd

            def roll():
                return rnd.random()
        """)
        assert rule_ids(findings) == ["DET101", "DET101"]

    def test_rng_home_exempt(self):
        findings = check("import random\n", path="src/repro/runtime/rng.py")
        assert findings == []

    def test_test_code_exempt(self):
        findings = check("import random\n", path=TEST)
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check("import random  # repro: noqa[DET101]\n")
        assert findings == []


class TestNumpyGlobalRng:
    def test_default_rng_flagged(self):
        findings = check("""
            import numpy as np

            def make():
                return np.random.default_rng(0)
        """)
        assert rule_ids(findings) == ["DET102"]

    def test_legacy_globals_flagged(self):
        findings = check("""
            import numpy as np

            def legacy():
                np.random.seed(0)
                return np.random.rand(3)
        """)
        assert rule_ids(findings) == ["DET102", "DET102"]

    def test_from_import_resolved(self):
        findings = check("""
            from numpy.random import default_rng

            def make():
                return default_rng(7)
        """)
        assert rule_ids(findings) == ["DET102"]

    def test_generator_annotation_not_flagged(self):
        findings = check("""
            from typing import Optional

            import numpy as np

            def use(rng: Optional[np.random.Generator] = None):
                return rng
        """)
        assert findings == []

    def test_rng_home_exempt(self):
        findings = check("import numpy as np\nr = np.random.default_rng(0)\n",
                         path="src/repro/runtime/rng.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check(
            "import numpy as np\n"
            "r = np.random.default_rng(0)  # repro: noqa[DET102]\n")
        assert findings == []


class TestRngOrFallback:
    def test_or_fallback_flagged(self):
        findings = check("""
            def build(rng=None):
                rng = rng or make_generator()
                return rng
        """)
        assert rule_ids(findings) == ["DET103"]

    def test_suffixed_name_flagged(self):
        findings = check("""
            def build(audio_rng=None):
                return audio_rng or make_generator()
        """)
        assert rule_ids(findings) == ["DET103"]

    def test_unrelated_or_untouched(self):
        findings = check("""
            def pick(options=None):
                return options or []
        """)
        assert findings == []

    def test_resolve_rng_pattern_clean(self):
        findings = check("""
            from repro.runtime.rng import resolve_rng

            def build(rng=None):
                return resolve_rng(rng, "fog.example.stream")
        """)
        assert findings == []


class TestWallClock:
    def test_time_calls_flagged(self):
        findings = check("""
            import time

            def stamp():
                return time.time(), time.perf_counter()
        """)
        assert rule_ids(findings) == ["DET104", "DET104"]

    def test_datetime_now_flagged(self):
        findings = check("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)
        assert rule_ids(findings) == ["DET104"]

    def test_clock_home_exempt(self):
        findings = check("import time\nt = time.perf_counter()\n",
                         path="src/repro/runtime/core.py")
        assert findings == []

    def test_sleep_not_flagged(self):
        findings = check("import time\n\n\ndef nap():\n    time.sleep(1)\n")
        assert findings == []


class TestSetIterationOrder:
    def test_for_over_set_flagged(self):
        findings = check("""
            def names(machines):
                out = []
                for name in set(machines):
                    out.append(name)
                return out
        """)
        assert rule_ids(findings) == ["DET105"]

    def test_comprehension_over_set_flagged(self):
        findings = check("""
            def table(machines):
                return {name: 0 for name in set(machines)}
        """)
        assert rule_ids(findings) == ["DET105"]

    def test_list_of_set_flagged(self):
        findings = check("""
            def names(machines):
                return list(set(machines))
        """)
        assert rule_ids(findings) == ["DET105"]

    def test_sorted_set_clean(self):
        findings = check("""
            def names(machines):
                return sorted(set(machines))
        """)
        assert findings == []

    def test_sorted_iteration_clean(self):
        findings = check("""
            def names(machines):
                return [n for n in sorted(set(machines))]
        """)
        assert findings == []


class TestShadowedRng:
    def test_fresh_rng_in_rng_function_flagged(self):
        findings = check("""
            import numpy as np

            def sample(shape, rng):
                fresh = np.random.default_rng(0)
                return fresh.normal(0, 1, shape)
        """, path=TEST)
        assert rule_ids(findings) == ["DET106"]

    def test_applies_to_test_code(self):
        # library_only=False: a test seeding `rng` but drawing from a
        # fresh generator is not testing what it says it tests
        findings = check("""
            import numpy as np

            def _build(rng=None):
                rng = np.random.default_rng(3)
                return rng
        """, path=TEST)
        assert rule_ids(findings) == ["DET106"]

    def test_resolve_rng_fallback_clean(self):
        findings = check("""
            from repro.runtime.rng import resolve_rng

            def sample(shape, rng=None):
                rng = resolve_rng(rng, "tests.sample")
                return rng.normal(0, 1, shape)
        """, path=TEST)
        assert findings == []

    def test_function_without_rng_param_not_det106(self):
        # near miss: fresh generator, but no rng contract to betray
        findings = check("""
            import numpy as np

            def sample(shape):
                return np.random.default_rng(0).normal(0, 1, shape)
        """, path=TEST)
        assert "DET106" not in rule_ids(findings)

    def test_nested_function_scope_is_separate(self):
        # the nested def takes no rng; the outer scope never constructs
        findings = check("""
            import numpy as np

            def outer(rng):
                def inner(seed):
                    return np.random.default_rng(seed)
                return inner
        """, path=TEST)
        assert "DET106" not in rule_ids(findings)

    def test_noqa_suppresses(self):
        findings = check("""
            import numpy as np

            def sample(rng):
                return np.random.default_rng(0)  # repro: noqa[DET106]
        """, path=TEST)
        assert findings == []


class TestWallClockTaint:
    def test_direct_timestamp_keyword_flagged(self):
        findings = check("""
            import time

            def stamp(Record):
                return Record(topic="t", timestamp=time.time(), value=1)
        """, path=TEST)
        assert rule_ids(findings) == ["DET107"]

    def test_taint_flows_through_assignments(self):
        # the poisoned value travels two hops before reaching the sink
        findings = check("""
            import time

            def stamp(Record):
                started = time.time()
                when = started
                return Record(topic="t", timestamp=when, value=1)
        """, path=TEST)
        assert rule_ids(findings) == ["DET107"]

    def test_attribute_assignment_flagged(self):
        findings = check("""
            import time

            def backdate(record):
                record.timestamp = time.time() - 60.0
        """, path=TEST)
        assert rule_ids(findings) == ["DET107"]

    def test_event_payload_flagged(self):
        findings = check("""
            import time

            def tick(runtime):
                runtime.events.emit("tick", at=time.time())
        """, path=TEST)
        assert rule_ids(findings) == ["DET107"]

    def test_loop_carried_taint_found(self):
        # the read happens textually *after* the propagation; the
        # two-pass fixpoint still catches the loop-carried flow
        findings = check("""
            import time

            def poll(Record, n):
                last = 0.0
                records = []
                for _ in range(n):
                    records.append(Record(topic="t", timestamp=last))
                    last = time.time()
                return records
        """, path=TEST)
        assert rule_ids(findings) == ["DET107"]

    def test_runtime_clock_clean(self):
        # near miss: same shape, but the value comes from the runtime
        findings = check("""
            def stamp(Record, runtime):
                return Record(topic="t", timestamp=runtime.now(), value=1)
        """, path=TEST)
        assert findings == []

    def test_wall_value_in_non_sink_clean(self):
        # measuring a duration into a local is DET104's business (and
        # only in library code), not a taint sink
        findings = check("""
            import time

            def measure(fn):
                start = time.time()
                fn()
                return time.time() - start
        """, path=TEST)
        assert "DET107" not in rule_ids(findings)

    def test_noqa_suppresses(self):
        findings = check("""
            import time

            def stamp(Record):
                return Record(timestamp=time.time())  # repro: noqa[DET107]
        """, path=TEST)
        assert findings == []


class TestStrHash:
    def test_str_annotated_parameter_flagged(self):
        # the shape of a placement bug: a per-process bucket for a name
        findings = check("""
            def bucket(name: str, n: int) -> int:
                return hash(name) % n
        """)
        assert rule_ids(findings) == ["DET108"]
        assert findings[0].line == 3

    def test_literal_fstring_str_and_repr_flagged(self):
        findings = check("""
            def keys(x):
                return [hash("a"), hash(f"{x}"), hash(str(x)),
                        hash(repr(x))]
        """)
        assert rule_ids(findings) == ["DET108"] * 4

    def test_number_guarded_hash_clean(self):
        # the compute layer's shuffle bucket: numbers keep hash(), whose
        # numeric form is unsalted
        findings = check("""
            import numbers

            def partition_of(key, n: int) -> int:
                if isinstance(key, numbers.Number):
                    return hash(key) % n
                return 0
        """)
        assert findings == []

    def test_parameter_of_another_scope_clean(self):
        findings = check("""
            def outer(name: str):
                def inner(name):
                    return hash(name)
                return inner
        """)
        assert findings == []

    def test_test_code_exempt_and_noqa_suppresses(self):
        assert check("hash('a')\n", path=TEST) == []
        assert check("hash('a')  # repro: noqa[DET108]\n") == []
