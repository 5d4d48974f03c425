"""Tests for the Runtime bundle and the default-runtime plumbing."""

import pytest

from repro.cluster.sim import Environment
from repro.runtime import Runtime, get_runtime, set_runtime, using_runtime


class TestClock:
    def test_wall_clock_by_default(self):
        runtime = Runtime()
        assert runtime.clock_kind == "wall"
        assert runtime.now() >= 0

    @staticmethod
    def environment_at(now):
        """An environment whose clock has run to ``now``."""
        env = Environment()
        env.timeout(now)
        env.run()
        return env

    def test_sim_clock_binding(self):
        runtime = Runtime()
        env = self.environment_at(10.0)
        with runtime.sim_clock(env):
            assert runtime.clock_kind == "sim"
            assert runtime.now() == 10.0
        assert runtime.clock_kind == "wall"

    def test_nested_bindings_innermost_wins(self):
        runtime = Runtime()
        outer = self.environment_at(1.0)
        inner = self.environment_at(2.0)
        with runtime.sim_clock(outer):
            with runtime.sim_clock(inner):
                assert runtime.now() == 2.0
            assert runtime.now() == 1.0

    def test_environment_run_autobinds(self):
        runtime = Runtime()
        env = Environment(runtime=runtime)

        def process(env):
            yield env.timeout(3.0)

        env.process(process(env))
        env.run()
        assert runtime.registry.gauge("cluster.sim.now").value() == 3.0
        assert runtime.registry.counter(
            "cluster.sim.events_dispatched").total() > 0


class TestGensym:
    def test_sequential_per_prefix(self):
        runtime = Runtime()
        assert runtime.gensym("a") == "a-0"
        assert runtime.gensym("a") == "a-1"
        assert runtime.gensym("b") == "b-0"

    def test_fresh_runtime_restarts(self):
        assert Runtime().gensym("x") == Runtime().gensym("x")


class TestDefaultRuntime:
    def test_get_creates_singleton(self):
        assert get_runtime() is get_runtime()

    def test_set_installs(self):
        previous = get_runtime()
        try:
            runtime = Runtime(seed=42)
            assert set_runtime(runtime) is runtime
            assert get_runtime() is runtime
        finally:
            set_runtime(previous)

    def test_using_restores_previous(self):
        outer = get_runtime()
        with using_runtime(Runtime(seed=1)) as runtime:
            assert get_runtime() is runtime
        assert get_runtime() is outer

    def test_using_restores_on_error(self):
        outer = get_runtime()
        with pytest.raises(RuntimeError):
            with using_runtime(Runtime()):
                raise RuntimeError("boom")
        assert get_runtime() is outer


class TestLifecycle:
    def test_dump_shape(self):
        runtime = Runtime(seed=11)
        runtime.registry.counter("c").inc()
        dump = runtime.dump()
        assert set(dump) == {"seed", "metrics", "spans", "events"}
        assert dump["seed"] == 11
