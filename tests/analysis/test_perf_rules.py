"""Fixture-snippet tests for the performance rule pack (PERF4xx)."""

import textwrap

from repro.analysis import analyze_source

LIB = "src/repro/fog/example.py"


def check(source, path=LIB):
    return analyze_source(textwrap.dedent(source), path=path)


def rule_ids(findings):
    return [f.rule for f in findings]


class TestHardcodedFloat64:
    def test_asarray_dtype_keyword_flagged(self):
        findings = check("""
            import numpy as np

            def load(x):
                return np.asarray(x, dtype=np.float64)
        """)
        assert rule_ids(findings) == ["PERF401"]

    def test_asarray_dtype_positional_flagged(self):
        findings = check("""
            import numpy as np

            def load(x):
                return np.array(x, np.float64)
        """)
        assert rule_ids(findings) == ["PERF401"]

    def test_astype_flagged(self):
        findings = check("""
            import numpy as np

            def upcast(x):
                return x.astype(np.float64)
        """)
        assert rule_ids(findings) == ["PERF401"]

    def test_astype_string_dtype_flagged(self):
        findings = check("""
            def upcast(x):
                return x.astype("float64")
        """)
        assert rule_ids(findings) == ["PERF401"]

    def test_zeros_dtype_flagged(self):
        findings = check("""
            import numpy as np

            def buffer(n):
                return np.zeros(n, dtype=np.float64)
        """)
        assert rule_ids(findings) == ["PERF401"]

    def test_ensure_float_clean(self):
        findings = check("""
            from repro.nn.dtypes import ensure_float

            def load(x):
                return ensure_float(x)
        """)
        assert findings == []

    def test_input_dtype_clean(self):
        findings = check("""
            import numpy as np

            def match(x, like):
                return np.asarray(x, dtype=like.dtype)
        """)
        assert findings == []

    def test_float32_clean(self):
        findings = check("""
            import numpy as np

            def downcast(x):
                return x.astype(np.float32)
        """)
        assert findings == []

    def test_tensor_core_exempt(self):
        findings = check("""
            import numpy as np

            def canonical(x):
                return np.asarray(x, dtype=np.float64)
        """, path="src/repro/nn/tensor.py")
        assert findings == []

    def test_optimizer_exempt(self):
        findings = check("""
            import numpy as np

            def moments(x):
                return x.astype(np.float64)
        """, path="src/repro/nn/optim.py")
        assert findings == []

    def test_test_code_exempt(self):
        findings = check("""
            import numpy as np

            def fixture(x):
                return np.asarray(x, dtype=np.float64)
        """, path="tests/fog/test_example.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check("""
            import numpy as np

            def load(x):
                return np.asarray(x, dtype=np.float64)  # repro: noqa[PERF401]
        """)
        assert findings == []


class TestDirectPoolConstruction:
    def test_multiprocessing_pool_flagged(self):
        findings = check("""
            import multiprocessing

            def fan_out(fn, items):
                with multiprocessing.Pool(4) as pool:
                    return pool.map(fn, items)
        """)
        assert rule_ids(findings) == ["PERF402"]

    def test_get_context_flagged(self):
        findings = check("""
            import multiprocessing as mp

            def make_pool():
                return mp.get_context("fork").Pool(2)
        """)
        assert rule_ids(findings) == ["PERF402"]

    def test_process_pool_executor_flagged(self):
        findings = check("""
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(fn, items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(fn, items))
        """)
        assert rule_ids(findings) == ["PERF402"]

    def test_thread_pool_executor_flagged(self):
        findings = check("""
            import concurrent.futures

            def fan_out(fn, items):
                pool = concurrent.futures.ThreadPoolExecutor(4)
                return list(pool.map(fn, items))
        """)
        assert rule_ids(findings) == ["PERF402"]

    def test_process_flagged(self):
        findings = check("""
            import multiprocessing

            def spawn(fn):
                multiprocessing.Process(target=fn).start()
        """)
        assert rule_ids(findings) == ["PERF402"]

    def test_parallel_engine_exempt(self):
        findings = check("""
            import multiprocessing

            def make_pool(n):
                return multiprocessing.get_context("fork").Pool(n)
        """, path="src/repro/runtime/parallel.py")
        assert findings == []

    def test_executor_use_clean(self):
        findings = check("""
            def fan_out(fn, items):
                return [fn(item) for item in items]
        """)
        assert findings == []

    def test_shared_memory_clean(self):
        findings = check("""
            from multiprocessing import shared_memory

            def attach(name):
                return shared_memory.SharedMemory(name=name)
        """)
        assert findings == []

    def test_test_code_exempt(self):
        findings = check("""
            import multiprocessing

            def helper(fn, items):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(fn, items)
        """, path="tests/runtime/test_example.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check("""
            import multiprocessing

            def fan_out(fn, items):
                pool = multiprocessing.Pool(2)  # repro: noqa[PERF402]
                return pool.map(fn, items)
        """)
        assert findings == []


class TestPlanHotPathAllocation:
    def test_empty_in_op_run_flagged(self):
        findings = check("""
            import numpy as np

            class GemmOp:
                def run(self):
                    scratch = np.empty((4, 4), dtype=np.float32)
                    np.matmul(self._a, self._b, out=scratch)
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_zeros_like_in_plan_execute_flagged(self):
        findings = check("""
            import numpy as np

            class InferencePlan:
                def execute(self, x):
                    out = np.zeros_like(x)
                    return out
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_closure_inside_run_flagged(self):
        findings = check("""
            import numpy as np

            class ReluOp:
                def run(self):
                    def kernel():
                        return np.zeros(8, dtype=np.float32)
                    return kernel()
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_comparison_operand_flagged(self):
        findings = check("""
            import numpy as np

            class ReluOp:
                def run(self):
                    np.multiply(self._x, self._x > 0, out=self._out)
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_comparison_in_arithmetic_flagged(self):
        findings = check("""
            class ReluOp:
                def run(self):
                    self._out[...] = self._x * (self._x > 0)
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_where_and_astype_flagged(self):
        findings = check("""
            import numpy as np

            class LeakyReluOp:
                def run(self):
                    scale = np.where(self._mask, 1.0, self._slope).astype(
                        self._dtype, copy=False)
                    np.multiply(self._x, scale, out=self._out)
        """)
        assert rule_ids(findings) == ["PERF403", "PERF403"]

    def test_copy_flagged(self):
        findings = check("""
            class StageOp:
                def run(self):
                    self._held = self._x.copy()
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_ascontiguousarray_flagged(self):
        findings = check("""
            import numpy as np

            class GlobalAvgPoolOp:
                def run(self):
                    np.sum(np.ascontiguousarray(self._x), axis=(2, 3),
                           out=self._out)
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_set_input_is_a_hot_path_too(self):
        # Called before every run on the ops that read the plan's input.
        findings = check("""
            import numpy as np

            class GlobalAvgPoolOp:
                def set_input(self, x):
                    self._x_t = np.ascontiguousarray(x.transpose(1, 2, 3, 0))

                def rebind(self, views):
                    self._mask = np.empty(views[1].shape, dtype=bool)
        """)
        assert rule_ids(findings) == ["PERF403"]

    def test_take_and_compress_without_out_flagged(self):
        findings = check("""
            import numpy as np

            class GatherOp:
                def run(self):
                    self._rows = np.take(self._x, self._index, axis=-1)
                    self._kept = np.compress(self._mask, self._x, axis=0)
        """)
        assert rule_ids(findings) == ["PERF403", "PERF403"]

    def test_take_into_bound_buffer_clean(self):
        findings = check("""
            import numpy as np

            class GatherOp:
                def run(self):
                    np.take(self._x, self._index, axis=-1, out=self._rows)
                    np.compress(self._mask, self._x, axis=0, out=self._kept)
        """)
        assert findings == []

    def test_scalar_test_and_bound_mask_clean(self):
        findings = check("""
            import numpy as np

            class InferencePlan:
                def run(self, data):
                    if data.shape[0] != self._bound_rows:
                        self._rebind(data.shape[0])
                    assert data.ndim > 1
                    np.greater(self._x, 0, out=self._mask)
                    np.copyto(self._out, self._x, where=self._mask)
                    np.maximum(self._x, 0, out=self._out)
        """)
        assert findings == []

    def test_temporaries_outside_run_clean(self):
        findings = check("""
            import numpy as np

            class ReluOp:
                def bind(self, x):
                    self._mask = (x > 0).astype(np.float32)
                    self._scale = np.where(x > 0, 1.0, 0.1)
        """)
        assert findings == []

    def test_bind_time_allocation_clean(self):
        findings = check("""
            import numpy as np

            class GemmOp:
                def bind(self, arena):
                    self._scratch = np.empty((4, 4), dtype=np.float32)

                def run(self):
                    np.matmul(self._a, self._b, out=self._scratch)
        """)
        assert findings == []

    def test_non_plan_class_clean(self):
        findings = check("""
            import numpy as np

            class FrameDecoder:
                def run(self):
                    return np.zeros((2, 2), dtype=np.float32)
        """)
        assert findings == []

    def test_out_parameter_kernels_clean(self):
        findings = check("""
            import numpy as np

            class BiasOp:
                def run(self):
                    np.add(self._gemm, self._bias, out=self._out)
        """)
        assert findings == []

    def test_test_code_exempt(self):
        findings = check("""
            import numpy as np

            class FakeOp:
                def run(self):
                    return np.empty(3, dtype=np.float32)
        """, path="tests/nn/test_example.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check("""
            import numpy as np

            class ProbeOp:
                def run(self):
                    probe = np.empty(3, dtype=np.float32)  # repro: noqa[PERF403]
                    return probe
        """)
        assert findings == []


class TestLabeledMetricInRecordLoop:
    def test_labeled_inc_in_record_loop_flagged(self):
        findings = check("""
            def pump(records, counter):
                for record in records:
                    counter.inc(1, topic="events")
        """, path="src/repro/streaming/example.py")
        assert rule_ids(findings) == ["PERF404"]

    def test_labeled_observe_in_frame_loop_flagged(self):
        findings = check("""
            def drain(frames, latency, now):
                for frame in frames:
                    latency.observe(now - frame, group="fog")
        """, path="src/repro/serving/example.py")
        assert rule_ids(findings) == ["PERF404"]

    def test_async_for_over_messages_flagged(self):
        findings = check("""
            async def relay(messages, gauge):
                async for msg in messages:
                    gauge.set(len(msg), stage="relay")
        """, path="src/repro/fog/example.py")
        assert rule_ids(findings) == ["PERF404"]

    def test_bound_handle_in_loop_clean(self):
        findings = check("""
            def pump(records, counter):
                produced = counter.bind(topic="events")
                for record in records:
                    produced.inc()
        """, path="src/repro/streaming/example.py")
        assert findings == []

    def test_per_iteration_label_clean(self):
        findings = check("""
            def settle(batch, counter):
                for pending in batch:
                    counter.inc(tenant=pending.tenant)
        """, path="src/repro/serving/example.py")
        assert findings == []

    def test_non_record_loop_clean(self):
        findings = check("""
            def sweep(counter, n):
                for index in range(n):
                    counter.inc(1, topic="events")
        """, path="src/repro/streaming/example.py")
        assert findings == []

    def test_outside_data_plane_clean(self):
        findings = check("""
            def train(records, counter):
                for record in records:
                    counter.inc(1, epoch="warmup")
        """, path="src/repro/nn/example.py")
        assert findings == []

    def test_nested_function_boundary_clean(self):
        findings = check("""
            def pump(records, counter):
                for record in records:
                    def flush():
                        counter.inc(1, topic="events")
                    flush()
        """, path="src/repro/streaming/example.py")
        assert rule_ids(findings) == []

    def test_test_code_exempt(self):
        findings = check("""
            def pump(records, counter):
                for record in records:
                    counter.inc(1, topic="events")
        """, path="tests/streaming/test_example.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check("""
            def pump(records, counter):
                for record in records:
                    counter.inc(1, topic="events")  # repro: noqa[PERF404]
        """, path="src/repro/streaming/example.py")
        assert findings == []
