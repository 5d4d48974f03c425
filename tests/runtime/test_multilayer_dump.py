"""One run, one dump: metrics from every layer land in a single registry.

Mirrors the acceptance criterion pinned by the fig3 benchmark: a single
experiment touching streaming, compute, cluster, fog, and nn leaves one
registry whose dump carries all their metric families, exported through
``repro.viz.registry_to_json``.
"""

import json

import numpy as np

from repro import nn
from repro.cluster import NetworkTopology, Tier
from repro.compute import SparkContext
from repro.fog import FogPipeline, model_split_from_early_exit, place_bottom_up
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime
from repro.streaming import Broker, FlumeAgent, FunctionSource, broker_sink
from repro.viz import registry_to_json


def run_multilayer_experiment():
    """Every layer writes to the installed runtime."""
    # streaming: flume agent feeding a bus topic, then consumed
    bus = Broker()
    bus.create_topic("frames", partitions=2)
    agent = FlumeAgent(FunctionSource(range(16)), broker_sink(bus, "frames"),
                       batch_size=4)
    agent.run()
    bus.consumer("analytics", ["frames"]).drain()

    # compute: a shuffle through the Spark-style layer
    context = SparkContext(default_parallelism=2)
    context.parallelize([("a", 1), ("b", 2), ("a", 3)]) \
        .reduceByKey(lambda x, y: x + y).collect()

    # fog + cluster: a simulated stream (binds the DES virtual clock)
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=2, servers=1)
    stages = model_split_from_early_exit(
        local_flops=1e8, remote_flops=5e9,
        feature_bytes=8_192, input_bytes=3 * 32 * 32,
        local_exit_flops=1e6)
    edge = topology.machines(Tier.EDGE)[0].name
    pipeline = FogPipeline(place_bottom_up(topology, stages, edge))
    pipeline.simulate_stream(num_items=8, arrival_interval_s=0.005,
                             exit_probabilities={1: 0.5})

    # nn: an optimizer step
    param = Tensor(np.ones(4))
    optimizer = nn.SGD([param], lr=0.1)
    param.grad = np.ones(4)
    optimizer.step()


class TestMultiLayerDump:
    def test_one_registry_covers_every_layer(self, tmp_path):
        with using_runtime(Runtime(seed=0)) as runtime:
            run_multilayer_experiment()
            path = tmp_path / "registry.json"
            text = registry_to_json(runtime, path=str(path))

        payload = json.loads(text)
        names = set()
        for kind in ("counters", "gauges", "histograms"):
            names.update(payload["metrics"][kind])
        layers = {name.split(".")[0] for name in names}
        assert {"streaming", "compute", "cluster", "fog", "nn"} <= layers
        assert path.read_text() == text

    def test_sim_spans_carry_virtual_timestamps(self):
        with using_runtime(Runtime(seed=0)) as runtime:
            run_multilayer_experiment()
            stage_spans = runtime.tracer.spans("fog.pipeline.stage")
            assert stage_spans
            assert all(s.clock == "sim" for s in stage_spans)
            # virtual timestamps: tiny simulated quantities, consistent
            # with Environment.now, not wall-clock epoch values
            assert all(0 <= s.start <= s.end < 60 for s in stage_spans)
            flume_spans = runtime.tracer.spans("streaming.flume.deliver")
            assert flume_spans
            assert all(s.clock == "wall" for s in flume_spans)
