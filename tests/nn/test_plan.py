"""Captured inference plans: parity, arena reuse, cache policy, transport.

The contract under test (DESIGN.md §15): a captured plan executes the
same NumPy ufunc sequence as the eager fast path over arena-owned
buffers, so its float32 outputs are *bit-identical* to eager under
``no_grad()`` — including ragged row-prefix runs through a larger plan —
while allocating nothing per call.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.fuse import fuse_for_inference
from repro.nn.inference import batched_forward
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.nn.models.resnet import ResNetBlock, SmallResNet
from repro.nn.plan import (
    MAX_GEOMETRIES,
    InferencePlan,
    PlanCache,
    PlanError,
    capture_plan,
)
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime


def rng_for(seed=0):
    return np.random.default_rng(seed)


def conv_stack(rng):
    return nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.Conv2d(4, 8, 3, stride=2, padding=1, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 3, rng=rng),
    )


def build_early_exit(rng):
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 8, 3, padding=1, rng=rng),
            nn.BatchNorm2d(8), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 4, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(8, 16, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(16), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(16, 4, rng=rng)),
    )


def eager(module, x):
    with nn.eval_mode(module), nn.no_grad():
        return module(Tensor(x)).data


class TestCaptureAndParity:
    def test_float64_eval_close_to_eager(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(6, 1, 12, 12))
        plan = capture_plan(model, x)
        assert np.allclose(plan.run(x), eager(model, x), atol=1e-12)

    def test_fused_float32_bit_identical(self):
        model = fuse_for_inference(conv_stack(rng_for()), dtype=np.float32)
        x = rng_for(1).normal(size=(8, 1, 12, 12)).astype(np.float32)
        plan = capture_plan(model, x)
        assert np.array_equal(plan.run(x), eager(model, x))

    @pytest.mark.parametrize("shortcut", ["conv", "maxpool"])
    def test_resnet_shortcuts_bit_identical(self, shortcut):
        model = SmallResNet(1, num_classes=4, widths=(4, 8),
                            shortcut=shortcut, rng=rng_for())
        fused = fuse_for_inference(model, dtype=np.float32)
        x = rng_for(2).normal(size=(5, 1, 16, 16)).astype(np.float32)
        plan = capture_plan(fused, x)
        assert np.array_equal(plan.run(x), eager(fused, x))

    def test_row_prefix_rebind_bit_identical(self):
        # Smaller batches ride the captured plan through row-prefix
        # views; every kernel sees exactly the eager shapes, so even a
        # 1-row run through an 8-row plan matches eager bit for bit.
        model = fuse_for_inference(conv_stack(rng_for()), dtype=np.float32)
        x = rng_for(3).normal(size=(8, 1, 12, 12)).astype(np.float32)
        plan = capture_plan(model, x)
        for rows in (8, 1, 3, 7, 8):
            out = plan.run(x[:rows])
            assert out.shape[0] == rows
            assert np.array_equal(out, eager(model, x[:rows]))

    def test_validation_rejects_divergence_and_records_exactness(self):
        # Parity is by construction, but capture still checks it: a
        # lowering that computes something else must not become a plan.
        from repro.nn import plan as plan_mod

        class Doubler(nn.Module):
            def forward(self, x):
                return x * 2.0

        x = rng_for(1).normal(size=(4, 1, 12, 12)).astype(np.float32)
        plan_mod.plan_builder(Doubler)(lambda builder, module, slot: slot)
        try:
            with pytest.raises(PlanError, match="numerically diverges"):
                capture_plan(nn.Sequential(Doubler()), x)
        finally:
            del plan_mod._PLAN_BUILDERS[Doubler]
        model = fuse_for_inference(conv_stack(rng_for()), dtype=np.float32)
        plan = capture_plan(model, x)
        assert plan.bit_exact is True and plan.max_validation_error == 0.0

    def test_more_rows_than_captured_rejected(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        with pytest.raises(PlanError, match="captured for 4 rows"):
            plan.run(np.concatenate([x, x]))

    def test_geometry_and_dtype_mismatch_rejected(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        with pytest.raises(PlanError, match="expects"):
            plan.run(x[:, :, :10, :10])
        with pytest.raises(PlanError, match="expects"):
            plan.run(x.astype(np.float32))

    def test_non_float_capture_rejected(self):
        with pytest.raises(PlanError, match="float"):
            capture_plan(conv_stack(rng_for()),
                         np.zeros((2, 1, 12, 12), dtype=np.int64))

    def test_flops_match_static_estimate(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        static, shape = nn.estimate_flops(model, (1, 12, 12))
        assert plan.flops_per_item == static
        assert tuple(plan.output_shape[1:]) == shape
        # and the plan itself is accepted by estimate_flops
        flops, out_shape = nn.estimate_flops(plan, (1, 12, 12))
        assert flops == static and out_shape == shape
        with pytest.raises(ValueError, match="captured for"):
            nn.estimate_flops(plan, (1, 10, 10))


class TestArena:
    def test_run_returns_view_into_arena(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        first = plan.run(x)
        second = plan.run(x * 0.5)
        # same storage: the second run overwrote the first result
        assert first.base is second.base or first is second
        assert not np.array_equal(first, eager(model, x))

    def test_arena_bytes_reported_and_stable(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        assert plan.arena.total_bytes > 0
        before = plan.arena.total_bytes
        for _ in range(3):
            plan.run(x)
        assert plan.arena.total_bytes == before

    def test_liveness_reuse_beats_sum_of_slots(self):
        # The arena shares storage between slots whose lifetimes do not
        # overlap; a deep stack must not cost the sum of all activations.
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        slot_sum = sum(int(np.prod(s.shape)) * s.dtype.itemsize
                       for s in plan.arena.slots[1:])  # [0]: input, unstored
        assert plan.arena.total_bytes < slot_sum


def held_arrays(value):
    """Every ndarray reachable from an op attribute (views sit in lists too)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from held_arrays(item)


class TestArenaContract:
    """What the batch-innermost layout rests on (DESIGN.md §15).

    A working view that does not share memory with the arena is a silent
    copy — ``reshape`` of a view that cannot be reshaped in place returns
    one — and the op then computes on detached storage: the right answer
    on the capture batch, garbage afterwards.
    """

    #: row counts no capture-time constant (a batch-norm denominator, the
    #: GAP ones row) has an axis of, so "not a parameter view and has an
    #: axis of this length" picks out exactly the per-run working views
    ROWS = (11, 7, 13, 9)

    def models(self):
        pooled = SmallResNet(1, num_classes=4, widths=(4, 8),
                             shortcut="maxpool", rng=rng_for(30))
        flat = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng_for(31)), nn.LeakyReLU(0.1),
            nn.MaxPool2d(3), nn.Conv2d(4, 6, 3, rng=rng_for(32)),
            nn.LeakyReLU(), nn.Flatten(), nn.Linear(6 * 9, 5, rng=rng_for(33)))
        return [fuse_for_inference(pooled, dtype=np.float32),
                fuse_for_inference(flat, dtype=np.float32),
                fuse_for_inference(conv_stack(rng_for(34)), dtype=np.float32)]

    def test_every_working_view_lives_in_the_arena(self):
        x = rng_for(35).normal(size=(13, 1, 16, 16)).astype(np.float32)
        for model in self.models():
            plan = capture_plan(model, x)
            assert plan.fallback_ops == 0
            buffers = list(plan.arena.buffers.values())
            params = [p.data for p in model.parameters()]
            for rows in self.ROWS:
                batch = x[:rows]
                out = plan.run(batch)
                assert np.array_equal(out, eager(model, batch))
                held = [(type(op).__name__, name, array)
                        for op in plan._ops
                        for name, value in vars(op).items()
                        for array in held_arrays(value)
                        if rows in array.shape and not any(
                            np.shares_memory(array, p) for p in params)]
                assert len(held) >= 2 * len(plan._ops)
                for op_name, name, array in held:
                    assert (np.shares_memory(array, batch)
                            or any(np.shares_memory(array, buf)
                                   for buf in buffers)), (op_name, name, rows)

    def test_feature_maps_are_contiguous_batch_innermost_heads(self):
        x = rng_for(36).normal(size=(13, 1, 16, 16)).astype(np.float32)
        for model in self.models():
            plan = capture_plan(model, x)
            for rows in self.ROWS:
                out = plan.run(x[:rows])
                views = list(plan.arena.views(rows).items()) + [(None, out)]
                assert any(view.ndim == 4 for _, view in views)
                for slot, view in views:
                    assert view.shape[0] == rows
                    stored = (view.transpose(1, 2, 3, 0) if view.ndim == 4
                              else view)
                    assert stored.flags["C_CONTIGUOUS"], (slot, rows)
                    if slot is not None:
                        # the head of the buffer, not a prefix slice of it
                        buf = plan.arena.buffers[slot]
                        assert stored.ctypes.data == buf.ctypes.data

    def test_input_is_read_in_place(self):
        model = fuse_for_inference(conv_stack(rng_for()), dtype=np.float32)
        x = rng_for(1).normal(size=(8, 1, 12, 12)).astype(np.float32)
        plan = capture_plan(model, x)
        assert 0 not in plan.arena.buffers  # slot 0 is the input: unstored
        assert not any(np.shares_memory(x, buf)
                       for buf in plan.arena.buffers.values())
        before = x.copy()
        plan.run(x)
        assert np.array_equal(x, before)

    def test_own_output_as_input_is_not_overwritten_mid_run(self):
        # The identity block reads its input twice (first conv, residual
        # join) and its output slot recycles the first conv's buffer: read
        # in place, the second run would clobber its input in between.
        block = nn.Sequential(ResNetBlock(4, 4, shortcut="identity",
                                          rng=rng_for(37)))
        model = fuse_for_inference(block, dtype=np.float32)
        x = rng_for(38).normal(size=(6, 4, 8, 8)).astype(np.float32)
        plan = capture_plan(model, x)
        once = eager(model, x)
        assert np.array_equal(plan.run(plan.run(x)), eager(model, once))
        assert np.array_equal(plan.run(plan.run(x)[:3]),
                              eager(model, once[:3]))


def traced_peak_bytes(fn):
    """Peak bytes ``fn`` holds above what was live when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestReplayAllocation:
    """Replay touches arena buffers only (what lint rule PERF403 is for).

    The budget is far below the smallest array temporary a stage could
    make at these sizes: one bool mask of the 256-row local stage output
    is 512 KiB.
    """

    BUDGET = 64 * 1024

    def fig5_stage_plans(self):
        model = build_early_exit(rng_for(20))
        # the served Fig. 5 remote stage has a second conv block
        model.remote_stage = nn.Sequential(
            *model.remote_stage.layers,
            nn.Conv2d(16, 16, 3, padding=1, rng=rng_for(21)),
            nn.BatchNorm2d(16), nn.ReLU())
        model = fuse_for_inference(model, dtype=np.float32)
        x = rng_for(22).normal(size=(256, 1, 16, 16)).astype(np.float32)
        feats = eager(model.local_stage, x)
        inputs = {"local_stage": x, "local_head": feats,
                  "remote_stage": feats,
                  "remote_head": eager(model.remote_stage, feats)}
        return [(capture_plan(getattr(model, name), data), data)
                for name, data in inputs.items()]

    @pytest.mark.parametrize("rows", [256, 90])
    def test_fig5_stage_replay_stays_under_budget(self, rows):
        # Row-major batches: the two head plans open with a global pooling,
        # whose kernel wants the map batch-innermost — staged into a bound
        # arena slot, not into a fresh array.
        for plan, data in self.fig5_stage_plans():
            assert plan.fallback_ops == 0
            batch = np.ascontiguousarray(data[:rows])
            plan.run(batch)  # bind the views for this row count
            peak = traced_peak_bytes(lambda: plan.run(batch))
            assert peak < self.BUDGET, (plan.label, rows, peak)

    @pytest.mark.parametrize("rows", [256, 90])
    def test_fig5_stage_replay_in_serving_layout_stays_under_budget(self, rows):
        # What serving hands a stage: rows gathered batch-innermost.
        for plan, data in self.fig5_stage_plans():
            batch = F.take_rows(data, np.arange(rows))
            plan.run(batch)
            peak = traced_peak_bytes(lambda: plan.run(batch))
            assert peak < self.BUDGET, (plan.label, rows, peak)

    def test_rebinding_between_row_counts_stays_under_budget(self):
        for plan, data in self.fig5_stage_plans():
            plan.run(data[:90])  # a strided prefix: a third layout
            peak = traced_peak_bytes(lambda: plan.run(data))
            assert peak < self.BUDGET, plan.label

    def test_input_layout_changes_neither_bits_nor_budget(self):
        # One plan, one row count, three storages of the same rows in turn
        # (set_input re-decides per run whether the pooling stages).
        for plan, data in self.fig5_stage_plans():
            assert plan.bit_exact  # against eager, on the capture batch
            expected = plan.run(F.take_rows(data, np.arange(90))).copy()
            for batch in (np.ascontiguousarray(data[:90]), data[:90],
                          F.take_rows(data, np.arange(90))):
                before = batch.copy()
                peak = traced_peak_bytes(lambda: plan.run(batch))
                assert peak < self.BUDGET, plan.label
                assert np.array_equal(plan.run(batch), expected), plan.label
                assert np.array_equal(batch, before)

    @pytest.mark.parametrize("rows", [64, 23])
    def test_pooled_gap_residual_replay_stays_under_budget(self, rows):
        # max-pool shortcut + channel padding + residual join + GAP: the
        # ops no Fig. 5 stage has (one bool mask of the stem output at
        # 64 rows is 128 KiB; the old pool op's gather was 259 KiB).
        model = fuse_for_inference(
            SmallResNet(1, num_classes=4, widths=(8, 16), shortcut="maxpool",
                        rng=rng_for(23)), dtype=np.float32)
        x = rng_for(24).normal(size=(64, 1, 16, 16)).astype(np.float32)
        plan = capture_plan(model, x)
        assert plan.fallback_ops == 0
        labels = {op.label for op in plan._ops}
        assert {"max_pool", "pad_channels", "add_relu",
                "global_avg_pool"} <= labels
        batch = x[:rows]
        plan.run(x[:rows + 1])
        rebind = traced_peak_bytes(lambda: plan.run(batch))
        replay = traced_peak_bytes(lambda: plan.run(batch))
        assert rebind < self.BUDGET and replay < self.BUDGET, (rebind, replay)

    @pytest.mark.parametrize("rows", [64, 40])
    def test_unpadded_multi_band_conv_stays_under_budget(self, rows):
        # An unpadded conv unfolds the plan's input itself, so set_input
        # rebuilds its band views on every run (5 bands at 64 rows, 3 at 40).
        model = fuse_for_inference(nn.Sequential(
            nn.Conv2d(8, 16, 3, rng=rng_for(25)), nn.ReLU()), dtype=np.float32)
        x = rng_for(26).normal(size=(64, 8, 16, 16)).astype(np.float32)
        plan = capture_plan(model, x)
        batch = x[:rows]
        plan.run(batch)
        (conv,) = plan._ops  # the op bound to ``rows``
        assert len(conv._bands) > 2
        peak = traced_peak_bytes(lambda: plan.run(batch))
        assert peak < self.BUDGET, peak
        assert np.array_equal(plan.run(batch), eager(model, batch))

    @pytest.mark.parametrize("slope", [0.1, 1.5, -0.3])
    def test_leaky_relu_bit_identical_without_scale_array(self, slope):
        model = fuse_for_inference(nn.Sequential(
            nn.Conv2d(1, 8, 3, padding=1, rng=rng_for()),
            nn.LeakyReLU(slope)), dtype=np.float32)
        x = rng_for(1).normal(size=(64, 1, 16, 16)).astype(np.float32)
        plan = capture_plan(model, x)
        for rows in (5, 64):
            assert np.array_equal(plan.run(x[:rows]), eager(model, x[:rows]))
        assert traced_peak_bytes(lambda: plan.run(x)) < self.BUDGET


class TestStaleness:
    def test_replaced_weight_detected(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        conv = model.layers[0]
        conv.weight = nn.Parameter(conv.weight.data.copy())
        with pytest.raises(PlanError, match="stale"):
            plan.run(x)

    def test_cache_survives_in_place_updates(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        model.layers[0].weight.data *= 1.5  # in-place: same array object
        assert np.array_equal(plan.run(x), eager(model, x))


class TestPlanCache:
    def test_hit_miss_and_padded_hit_counters(self):
        with using_runtime(Runtime(seed=0)):
            cache = PlanCache(label="t")
            model = conv_stack(rng_for())
            x = rng_for(1).normal(size=(8, 1, 12, 12))
            cache.run(model, x)
            cache.run(model, x)
            cache.run(model, x[:3])  # ragged tail: prefix run, no recapture
            stats = cache.stats()
            assert stats["plans"] == 1
            assert stats["misses"] == 1
            assert stats["hits"] == 2
            assert cache.plan_for(model, x[:3]).rows == 8
            # more rows than the held plan: it is replaced, not joined
            grown = rng_for(2).normal(size=(12, 1, 12, 12))
            assert np.array_equal(cache.run(model, grown), eager(model, grown))
            stats = cache.stats()
            assert stats["plans"] == 1
            assert stats["misses"] == 2
            assert cache.plan_for(model, x).rows == 12

    def test_metrics_counters_emitted(self):
        with using_runtime(Runtime(seed=0)) as rt:
            cache = PlanCache(label="t")
            model = conv_stack(rng_for())
            x = rng_for(1).normal(size=(4, 1, 12, 12))
            cache.run(model, x)
            cache.run(model, x)
            names = set(rt.registry.names())
            assert "nn.plan.cache_misses" in names
            assert "nn.plan.cache_hits" in names

    def test_lru_eviction(self):
        with using_runtime(Runtime(seed=0)):
            cache = PlanCache(label="t")
            model = conv_stack(rng_for())
            geometries = [(2, 1, 8 + side, 8 + side)
                          for side in range(MAX_GEOMETRIES + 1)]
            for shape in geometries:
                cache.run(model, rng_for(1).normal(size=shape))
            stats = cache.stats()
            assert stats["plans"] == MAX_GEOMETRIES
            assert stats["evictions"] == 1
            # oldest geometry evicted: running it again is a miss
            cache.run(model, rng_for(1).normal(size=geometries[0]))
            assert cache.stats()["misses"] == MAX_GEOMETRIES + 2

    def test_distinct_dtypes_get_distinct_plans(self):
        with using_runtime(Runtime(seed=0)):
            cache = PlanCache(label="t")
            model = conv_stack(rng_for())
            x = rng_for(1).normal(size=(4, 1, 12, 12))
            cache.run(model, x)
            cache.run(model, x.astype(np.float32))
            assert cache.stats()["plans"] == 2

    def test_cache_pickles_empty(self):
        with using_runtime(Runtime(seed=0)):
            cache = PlanCache(label="t")
            model = conv_stack(rng_for())
            x = rng_for(1).normal(size=(4, 1, 12, 12))
            cache.run(model, x)
            back = pickle.loads(pickle.dumps(cache))
            assert back.stats()["plans"] == 0
            assert back.label == "t"

    def test_plan_itself_refuses_pickle(self):
        model = conv_stack(rng_for())
        x = rng_for(1).normal(size=(4, 1, 12, 12))
        plan = capture_plan(model, x)
        assert isinstance(plan, InferencePlan)
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(plan)


def chunked_plan_forward(cache, model, x, rows):
    """``x`` in consecutive ``rows``-row slices (one slice when None),
    each replayed through ``cache`` and copied out of its arena."""
    rows = rows or len(x)
    return [cache.run(model, x[start:start + rows]).copy(order="K")
            for start in range(0, len(x), rows)]


class TestBatchedForwardIntegration:
    def test_plan_true_matches_eager_chunks(self):
        model = fuse_for_inference(conv_stack(rng_for()), dtype=np.float32)
        x = rng_for(4).normal(size=(10, 1, 12, 12)).astype(np.float32)
        cache = PlanCache(label="t")
        planned = chunked_plan_forward(cache, model, x, 4)  # 4 + 4 + ragged 2
        for start, chunk in zip((0, 4, 8), planned):
            rows = x[start:start + len(chunk)]
            assert np.array_equal(chunk, batched_forward(model, rows))
        assert cache.stats()["plans"] == 1

    def test_successive_chunks_not_aliased(self):
        # Same-geometry chunks share one arena; outputs must be copied
        # out (in memory order) before the next chunk overwrites the buffer.
        model = fuse_for_inference(conv_stack(rng_for()), dtype=np.float32)
        x = rng_for(5).normal(size=(8, 1, 12, 12)).astype(np.float32)
        out = chunked_plan_forward(PlanCache(label="t"), model, x, 2)
        assert np.array_equal(out[0], eager(model, x[:2]))
        assert np.array_equal(out[-1], eager(model, x[-2:]))

    def test_cache_instance_reused_across_calls(self):
        with using_runtime(Runtime(seed=0)):
            model = fuse_for_inference(conv_stack(rng_for()),
                                       dtype=np.float32)
            x = rng_for(6).normal(size=(6, 1, 12, 12)).astype(np.float32)
            cache = PlanCache(label="t")
            chunked_plan_forward(cache, model, x, None)
            chunked_plan_forward(cache, model, x, None)
            assert cache.stats()["misses"] == 1
            assert cache.stats()["hits"] == 1


class TestEarlyExitPlans:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.95])
    def test_decisions_bit_identical(self, threshold):
        rng = rng_for(7)
        base = build_early_exit(rng)
        planned = fuse_for_inference(base, dtype=np.float32).enable_plans()
        plain = fuse_for_inference(base, dtype=np.float32)
        x = rng.normal(size=(12, 1, 16, 16)).astype(np.float32)
        a = planned.infer_batch(x, threshold)
        b = plain.infer_batch(x, threshold)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.exit_index, b.exit_index)
        assert np.array_equal(a.confidence, b.confidence)
        assert np.array_equal(a.local_logits, b.local_logits)
        assert np.array_equal(a.remote_rows, b.remote_rows)
        if b.remote_logits is not None:
            assert np.array_equal(a.remote_logits, b.remote_logits)

    def test_plan_stats_cover_stages(self):
        with using_runtime(Runtime(seed=0)):
            model = fuse_for_inference(build_early_exit(rng_for(8)),
                                       dtype=np.float32).enable_plans()
            x = rng_for(9).normal(size=(6, 1, 16, 16)).astype(np.float32)
            model.infer_batch(x, 0.5)
            stats = model.plan_stats()
            assert set(stats) == set(model.PLAN_STAGES)
            assert stats["local_stage"]["plans"] == 1


class TestWorkerTransport:
    def test_planned_module_pickles_and_recaptures_in_workers(self):
        # Plans are per-process state: the module pickles with an *empty*
        # cache and the copy recaptures on first use.
        with using_runtime(Runtime(seed=0)):
            model = fuse_for_inference(build_early_exit(rng_for(10)),
                                       dtype=np.float32).enable_plans()
            x = rng_for(11).normal(size=(8, 1, 16, 16)).astype(np.float32)
            before = model.infer_batch(x, 0.6)
            assert model.plan_stats()["local_stage"]["plans"] == 1
            back = pickle.loads(pickle.dumps(model))
            assert all(stats["plans"] == stats["misses"] == 0
                       for stats in back.plan_stats().values())
            after = back.infer_batch(x, 0.6)
            stats = back.plan_stats()["local_stage"]
            assert (stats["plans"], stats["misses"]) == (1, 1)
            assert np.array_equal(before.predictions, after.predictions)
            assert np.array_equal(before.confidence, after.confidence)

    def test_quantized_planned_module_survives_roundtrip(self):
        from repro.nn.quantize import quantize_for_inference
        with using_runtime(Runtime(seed=0)):
            model = fuse_for_inference(build_early_exit(rng_for(12)),
                                       dtype=np.float32)
            x = rng_for(13).normal(size=(8, 1, 16, 16)).astype(np.float32)
            model.local_stage = quantize_for_inference(model.local_stage, x)
            model.enable_plans()
            before = model.infer_batch(x, 0.6)
            back = pickle.loads(pickle.dumps(model))
            after = back.infer_batch(x, 0.6)
            assert np.array_equal(before.predictions, after.predictions)
            assert np.array_equal(before.local_logits, after.local_logits)
