"""The binding contract: a component writes to the runtime it was built in.

``using_runtime`` is the one way to choose a runtime.  A component binds
the installed runtime when it is built, and keeps writing there after the
block ends, even while another runtime is installed; a function writes to
the runtime installed when it is called.  One case per def that used to
take a ``runtime=`` argument (``SGD`` and ``Adam`` stand for their
``Optimizer`` base): each builds (or calls) inside ``BUILT``, uses the
result inside ``OTHER``, and names the telemetry it wrote.
"""

import asyncio
import json
import operator

import numpy as np
import pytest

from repro import nn
from repro.apps.action.app import ActionRecognitionApp
from repro.apps.vehicle.app import VehicleDetectionApp
from repro.cluster import NetworkTopology
from repro.cluster.failures import FailureProcess
from repro.cluster.sim import Environment
from repro.compute import SparkContext
from repro.dfs.filesystem import DistributedFileSystem
from repro.fog import (
    FogPipeline,
    TwoTierDeployment,
    model_split_from_early_exit,
    place_bottom_up,
    simulate_shared_streams,
)
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.inference import batched_forward, observe_inference
from repro.nn.tensor import Tensor
from repro.nosql.hbase import HTable
from repro.runtime import Runtime, using_runtime
from repro.serving import (
    GatewayConfig,
    ServingGateway,
    serve_camera_topic,
)
from repro.serving.observability import ObservabilityServer
from repro.streaming import Broker, FlumeAgent, FunctionSource
from repro.streaming.rdbms import RelationalDatabase
from repro.streaming.sqoop import SqoopImporter

from tests.fog.test_codec import IMG, build_early_exit, make_codec
from tests.serving.conftest import build_model, camera_frames

BUILT_SEED, OTHER_SEED = 5, 6


def written(runtime):
    """Metric families with a series, span names and event kinds."""
    dump = runtime.dump()
    names = {name for family in dump["metrics"].values()
             for name, series in family.items() if series}
    names.update(span["name"] for span in dump["spans"])
    names.update(event["kind"] for event in dump["events"])
    return names


def pipeline():
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=1, fogs_per_server=1, servers=1)
    stages = model_split_from_early_exit(
        local_flops=1e8, remote_flops=5e9, feature_bytes=8_192,
        input_bytes=3 * 32 * 32, local_exit_flops=1e6)
    return FogPipeline(place_bottom_up(
        topology, stages, topology.machines()[0].name))


def served_deployment():
    deployment = TwoTierDeployment(build_model,
                                   ["local_stage", "local_head"],
                                   ["remote_stage", "remote_head"])
    deployment.deploy(build_model(np.random.default_rng(0)))
    return deployment


class Target:
    def __init__(self, name):
        self.name = name
        self.alive = True


# -- components: built in BUILT, used in OTHER ------------------------------

def spark_context(built, other):
    with using_runtime(built):
        context = SparkContext(default_parallelism=2)
    with using_runtime(other):
        context.parallelize([("a", 1), ("a", 2)]) \
            .reduceByKey(operator.add).collect()
    return {"compute.spark.shuffles"}


def optimizer(cls):
    def case(built, other):
        param = Tensor(np.ones(3))
        with using_runtime(built):
            step = cls([param], lr=0.1)
        with using_runtime(other):
            param.grad = np.ones(3)
            step.step()
        return {"nn.optim.steps"}
    return case


def broker(built, other):
    with using_runtime(built):
        bus = Broker()
    with using_runtime(other):
        bus.create_topic("t", partitions=1)
        bus.produce("t", 1)
        bus.consumer("g", "t").poll(10)
    return {"streaming.broker.rebalance", "streaming.broker.lag"}


def sqoop_importer(built, other):
    database = RelationalDatabase()
    database.create_table("cases", ["id", "kind"]).insert_many(
        [{"id": i, "kind": "theft"} for i in range(4)])
    with using_runtime(built):
        importer = SqoopImporter(database)
        dfs = DistributedFileSystem.with_datanodes(3)
    with using_runtime(other):
        importer.import_table(dfs, "cases", "/import/cases")
    return {"streaming.sqoop.import"}


def flume_agent(built, other):
    with using_runtime(built):
        agent = FlumeAgent(FunctionSource(range(3)), lambda events: None)
    with using_runtime(other):
        agent.run()
    return {"streaming.flume.events_delivered", "streaming.flume.deliver"}


def htable(built, other):
    with using_runtime(built):
        table = HTable("crimes", DistributedFileSystem.with_datanodes(3),
                       families=("info",))
    with using_runtime(other):
        table.put("row", "info", "type", b"theft")
        table.flush()
    return {"nosql.hbase.flush"}


def distributed_file_system(built, other):
    with using_runtime(built):
        dfs = DistributedFileSystem.with_datanodes(3)
    with using_runtime(other):
        dfs.fail_datanode("datanode-0")
    return {"dfs.datanode_failed"}


def failure_process(built, other):
    env = Environment()
    with using_runtime(built):
        FailureProcess(env, [Target("m0"), Target("m1")],
                       mean_time_to_failure_s=0.1, max_failures=1)
    with using_runtime(other):
        env.run()
    return {"cluster.failure"}


def autoencoder_codec(built, other):
    with using_runtime(built):
        codec = make_codec(np.random.default_rng(0))
    with using_runtime(other):
        codec.transfer(np.random.default_rng(1).normal(
            size=(2, 4, IMG, IMG)).astype(np.float32))
    return {"fog.deploy.offload_bytes_saved", "fog.deploy.offload_transfers"}


def two_tier_deployment(built, other):
    frames = np.random.default_rng(1).normal(0, 1, (8, 1, IMG, IMG))
    with using_runtime(built):
        deployment = TwoTierDeployment(
            lambda: build_early_exit(np.random.default_rng(99)),
            ["local_stage", "local_head"], ["remote_stage", "remote_head"],
            quantize_edge=True, calibration=frames)
    with using_runtime(other):
        deployment.deploy(build_early_exit(np.random.default_rng(0)))
    return {"fog.deploy.quantized_layers", "fog.deploy.edge_int8_bytes_saved"}


def serving_gateway(built, other):
    with using_runtime(built):
        gateway = ServingGateway(served_deployment(),
                                 ScoreThresholdPolicy(0.45),
                                 GatewayConfig(coalesce_window_s=0.0))

    async def main():
        async with gateway.running():
            await gateway.submit(camera_frames(0, 2), tenant="cam")

    with using_runtime(other):
        asyncio.run(main())
    return {"serving.gateway.submitted", "serving.gateway.answered"}


def observability_server(built, other):
    with using_runtime(built):
        server = ObservabilityServer()

    async def metrics_seed():
        async with server:
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
        return json.loads(raw.partition(b"\r\n\r\n")[2])["seed"]

    with using_runtime(other):
        assert asyncio.run(metrics_seed()) == BUILT_SEED
    return set()


def app(build, **train):
    """An app draws its training order from its runtime's RNG: trained in
    OTHER, it repeats the run it would have had in BUILT."""
    def case(built, other):
        with using_runtime(built):
            moved = build()
        with using_runtime(other):
            moved_losses = moved.train(epochs=1, **train)
        with using_runtime(Runtime(seed=BUILT_SEED)):
            assert build().train(epochs=1, **train) == moved_losses
        return set()
    return case


# -- functions: called in BUILT while OTHER is installed outside --------------

def call(fn, names):
    def case(built, other):
        with using_runtime(other), using_runtime(built):
            fn()
        return names
    return case


def inference():
    with observe_inference("probe", 1):
        pass


def forward():
    batched_forward(nn.Linear(2, 1, rng=np.random.default_rng(0)),
                    np.ones((3, 2)))


def camera_topic():
    bus = Broker()
    bus.create_topic("frames", partitions=1, share_ndarrays=True)
    bus.produce_batch("frames", list(camera_frames(0, 2)),
                      key_fn=lambda frame: "cam")
    serve_camera_topic(served_deployment(), ScoreThresholdPolicy(0.45),
                       bus, "frames")


def stream():
    pipeline().simulate_stream(num_items=2, arrival_interval_s=0.01)


def shared_streams():
    simulate_shared_streams([{"pipeline": pipeline(), "num_items": 2,
                              "arrival_interval_s": 0.01}])


CASES = {
    "SparkContext": spark_context,
    "SGD": optimizer(nn.SGD),
    "Adam": optimizer(nn.Adam),
    "Broker": broker,
    "SqoopImporter": sqoop_importer,
    "FlumeAgent": flume_agent,
    "HTable": htable,
    "DistributedFileSystem": distributed_file_system,
    "FailureProcess": failure_process,
    "AutoencoderCodec": autoencoder_codec,
    "TwoTierDeployment": two_tier_deployment,
    "ServingGateway": serving_gateway,
    "ObservabilityServer": observability_server,
    "ActionRecognitionApp": app(
        lambda: ActionRecognitionApp(image_size=16, frames=4),
        clips_per_class=2),
    "VehicleDetectionApp": app(
        lambda: VehicleDetectionApp(num_classes=3, image_size=16),
        num_scenes=8),
    "observe_inference": call(inference, {"nn.infer.items"}),
    "batched_forward": call(forward, {"nn.infer.items"}),
    "serve_camera_topic": call(camera_topic, {"serving.gateway.submitted"}),
    "FogPipeline.simulate_stream": call(stream, {"fog.pipeline.stage"}),
    "simulate_shared_streams": call(shared_streams, {"fog.pipeline.stage"}),
}


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_a_component_writes_to_the_runtime_it_was_built_in(case):
    built, other = Runtime(seed=BUILT_SEED), Runtime(seed=OTHER_SEED)
    names = case(built, other)
    assert names <= written(built)
    assert not names & written(other)
