"""E3 — Fig. 3: the four-tier fog pipeline (edge/fog/server/cloud).

Regenerates the figure's behavioural claim: splitting computation across
tiers with early exits keeps latency low and sharply reduces what crosses
into the server tier, compared with shipping every raw frame to the
analysis server.  Also runs the placement ablation DESIGN.md calls out
(bottom-up split vs all-on-server).
"""

import pytest

from benchmarks.helpers import print_table
from repro.cluster import NetworkTopology, Tier
from repro.fog import FogPipeline, model_split_from_early_exit, place_all_on, place_bottom_up
from repro.fog.split import bottleneck_latency


def build_pipelines():
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=2, servers=1)
    edge = topology.machines(Tier.EDGE)[0].name
    stages = model_split_from_early_exit(
        local_flops=2e8, remote_flops=8e9,
        feature_bytes=8_192, input_bytes=640 * 480 * 3,
        local_exit_flops=5e6)
    fog = FogPipeline(place_bottom_up(topology, stages, edge))
    allserver = FogPipeline(place_all_on(topology, stages, "server-0",
                                         ingest_from=edge))
    return fog, allserver


def server_ingress(stats):
    return sum(size for hop, size in stats.bytes_per_hop.items()
               if "server" in hop.split("->")[1])


def test_fig3_exit_fraction_sweep(benchmark):
    fog, allserver = build_pipelines()

    def sweep():
        rows = []
        for exit_probability in (0.0, 0.25, 0.5, 0.75, 0.95):
            stats = fog.simulate_stream(
                num_items=120, arrival_interval_s=0.05,
                exit_probabilities={1: exit_probability}, seed=1)
            rows.append({
                "p_exit_local": exit_probability,
                "mean_ms": 1000 * stats.mean_latency_s,
                "p95_ms": 1000 * stats.p95_latency_s,
                "resolved_fog": stats.resolved_fraction(1),
                "server_in_MB": server_ingress(stats) / 1e6,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Fig. 3 — early-exit sweep on the 4-tier pipeline", rows,
                ["p_exit_local", "mean_ms", "p95_ms", "resolved_fog",
                 "server_in_MB"])

    baseline = allserver.simulate_stream(
        num_items=120, arrival_interval_s=0.05,
        exit_probabilities={1: 0.0}, seed=1)
    print(f"\n  all-on-server baseline: "
          f"mean {1000 * baseline.mean_latency_s:.2f} ms, "
          f"server ingress {server_ingress(baseline) / 1e6:.2f} MB")

    # Shape: more local exits -> lower latency and less server traffic.
    latencies = [r["mean_ms"] for r in rows]
    assert latencies == sorted(latencies, reverse=True)
    ingress = [r["server_in_MB"] for r in rows]
    assert ingress == sorted(ingress, reverse=True)
    # Even with no exits, shipping feature maps beats shipping raw frames.
    assert rows[0]["server_in_MB"] < server_ingress(baseline) / 1e6


def test_fig3_placement_ablation(benchmark):
    fog, allserver = build_pipelines()

    def measure():
        return {
            "fog_bottleneck_ms": 1000 * bottleneck_latency(fog.placement),
            "server_bottleneck_ms":
                1000 * bottleneck_latency(allserver.placement),
        }

    result = benchmark.pedantic(measure, rounds=3, iterations=1)
    rows = [
        {"placement": "bottom-up (Fig. 3)",
         "bottleneck_ms": result["fog_bottleneck_ms"]},
        {"placement": "all-on-server",
         "bottleneck_ms": result["server_bottleneck_ms"]},
    ]
    print_table("Fig. 3 ablation — placement bottleneck latency", rows,
                ["placement", "bottleneck_ms"])
    # The all-server baseline's bottleneck includes the raw-frame edge
    # uplink, which dominates: the Fig. 3 placement wins.
    assert result["fog_bottleneck_ms"] < result["server_bottleneck_ms"]


def test_fig3_fog_node_failure_degradation(benchmark):
    """When a fog node dies, its stage migrates one tier up (the paper's
    supervisory hierarchy); the pipeline keeps running, slower."""
    fog, _ = build_pipelines()
    fog_machine = fog.placement.machines[1]

    def degrade_and_measure():
        degraded_placement = fog.placement.with_failures([fog_machine])
        degraded = FogPipeline(degraded_placement)
        healthy_stats = fog.simulate_stream(
            num_items=60, arrival_interval_s=0.05,
            exit_probabilities={1: 0.5}, seed=7)
        degraded_stats = degraded.simulate_stream(
            num_items=60, arrival_interval_s=0.05,
            exit_probabilities={1: 0.5}, seed=7)
        return healthy_stats, degraded_stats, degraded_placement

    healthy, degraded, placement = benchmark.pedantic(
        degrade_and_measure, rounds=1, iterations=1)
    rows = [
        {"condition": "healthy",
         "mean_ms": 1000 * healthy.mean_latency_s,
         "server_in_MB": server_ingress(healthy) / 1e6,
         "server_busy_s": healthy.machine_busy_s.get("server-0", 0.0)},
        {"condition": f"{fog_machine} failed",
         "mean_ms": 1000 * degraded.mean_latency_s,
         "server_in_MB": server_ingress(degraded) / 1e6,
         "server_busy_s": degraded.machine_busy_s.get("server-0", 0.0)},
    ]
    print_table("Fig. 3 — fog-node failure degradation", rows,
                ["condition", "mean_ms", "server_in_MB", "server_busy_s"])
    print(f"\n  degraded placement: {placement.machines}")

    # The pipeline survives (items complete), but the point of the fog
    # tier is gone: raw frames now flood the regional link into the
    # server, and the server absorbs the local stage's compute.  Latency
    # stays comparable only because the server is much faster — the
    # regression is in shared-resource consumption, not in this one
    # stream's latency.
    assert degraded.completed == healthy.completed == 60
    assert fog_machine not in placement.machines
    assert server_ingress(degraded) > 10 * server_ingress(healthy)
    assert (degraded.machine_busy_s.get("server-0", 0.0)
            > healthy.machine_busy_s.get("server-0", 0.0))


def test_fig3_cameras_per_server_scaling(benchmark):
    """How many concurrent camera streams one analysis server sustains —
    the sizing question behind the Fig. 3 hierarchy, measured with shared
    machine queues (every camera contends for the same server)."""
    from repro.fog import simulate_shared_streams

    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=8, fogs_per_server=1, servers=1)
    edges = [m.name for m in topology.machines(Tier.EDGE)]
    stages = model_split_from_early_exit(
        local_flops=2e8, remote_flops=8e9,
        feature_bytes=8_192, input_bytes=640 * 480 * 3,
        local_exit_flops=5e6)

    def sweep():
        rows = []
        for cameras in (1, 2, 4, 8):
            streams = [{
                "pipeline": FogPipeline(
                    place_bottom_up(topology, stages, edges[i])),
                "num_items": 30,
                "arrival_interval_s": 0.1,
                "exit_probabilities": {1: 0.5},
            } for i in range(cameras)]
            stats = simulate_shared_streams(streams, seed=4)
            mean = sum(s.mean_latency_s for s in stats) / len(stats)
            p95 = max(s.p95_latency_s for s in stats)
            rows.append({
                "cameras": cameras,
                "mean_ms": 1000 * mean,
                "worst_p95_ms": 1000 * p95,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Fig. 3 — concurrent cameras per analysis server", rows,
                ["cameras", "mean_ms", "worst_p95_ms"])

    # Shape: latency grows with contention; completions never drop.
    means = [r["mean_ms"] for r in rows]
    assert means == sorted(means)
    assert means[-1] > means[0]


def test_fig3_unified_registry_dump(benchmark, tmp_path):
    """One fog-pipeline run leaves a single observability dump carrying
    metrics from every layer it touched — streaming ingestion, the
    Spark-style batch layer, the DES cluster clock, the fog pipeline and
    the nn training loop — exported through ``repro.viz``."""
    import json

    import numpy as np

    from repro import nn
    from repro.compute import SparkContext
    from repro.nn.tensor import Tensor
    from repro.runtime import Runtime, using_runtime
    from repro.streaming import (
        Broker,
        FlumeAgent,
        FunctionSource,
        broker_sink,
    )
    from repro.viz import registry_to_json

    def run_experiment():
        with using_runtime(Runtime(seed=0)) as runtime:
            # ingestion: frames flow flume -> bus -> consumer
            bus = Broker()
            bus.create_topic("frames", partitions=2)
            FlumeAgent(FunctionSource(range(32)),
                       broker_sink(bus, "frames"), batch_size=8).run()
            frames = [r.value for r in
                      bus.consumer("fog", ["frames"]).drain()]

            # batch layer: summarize the consumed frames
            context = SparkContext(default_parallelism=2)
            context.parallelize([(f % 4, f) for f in frames]) \
                .reduceByKey(lambda a, b: a + b).collect()

            # fog + cluster: the Fig. 3 stream under the DES clock
            fog, _ = build_pipelines()
            fog.simulate_stream(num_items=len(frames),
                                arrival_interval_s=0.05,
                                exit_probabilities={1: 0.5}, seed=1)

            # nn: one optimizer step of the training loop
            param = Tensor(np.ones(8))
            optimizer = nn.SGD([param], lr=0.1)
            param.grad = np.ones(8)
            optimizer.step()

            path = tmp_path / "fig3_registry.json"
            registry_to_json(runtime, path=str(path))
            return path

    path = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    payload = json.loads(path.read_text())
    names = set()
    for kind in ("counters", "gauges", "histograms"):
        names.update(payload["metrics"][kind])
    layers = {name.split(".")[0] for name in names}
    assert {"streaming", "compute", "cluster", "fog", "nn"} <= layers

    print_table(
        "Fig. 3 — unified registry dump (metric families per layer)",
        [{"layer": layer,
          "metrics": sum(1 for n in sorted(names)
                         if n.split(".")[0] == layer)}
         for layer in sorted(layers)],
        ["layer", "metrics"],
        json_path=str(path.parent / "fig3_registry_layers.json"))
