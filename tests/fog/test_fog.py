"""Tests for the fog-computing model: splits, placements, policies, pipeline."""

import numpy as np
import pytest

from repro.cluster import NetworkTopology, Tier
from repro.fog import (
    EntropyThresholdPolicy,
    FogPipeline,
    PlacementError,
    ScoreThresholdPolicy,
    Stage,
    TierPlacement,
    model_split_from_early_exit,
    place_all_on,
    place_bottom_up,
)
from repro.fog.split import bottleneck_latency
from repro.runtime.metrics import LATENCY_SAMPLES


def topo():
    return NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=2, servers=1)


def two_stage_split():
    return model_split_from_early_exit(
        local_flops=1e8, remote_flops=5e9,
        feature_bytes=8_192, input_bytes=3 * 32 * 32,
        local_exit_flops=1e6)


class TestStage:
    def test_validates(self):
        with pytest.raises(ValueError):
            Stage("s", flops=-1, output_bytes=0)
        with pytest.raises(ValueError):
            Stage("s", flops=0, output_bytes=-1)

    def test_canonical_split_shape(self):
        stages = two_stage_split()
        assert [s.name for s in stages] == ["ingest", "local", "server"]
        assert stages[1].has_exit
        assert not stages[2].has_exit


class TestPlacement:
    def test_bottom_up_ascends_tiers(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        placement = place_bottom_up(t, two_stage_split(), start=edge)
        tiers = [t.machine(m).tier for m in placement.machines]
        assert tiers == [Tier.EDGE, Tier.FOG, Tier.SERVER]

    def test_extra_stages_pile_on_last_machine(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        stages = [Stage(f"s{i}", 1e6, 10) for i in range(6)]
        placement = place_bottom_up(t, stages, start=edge)
        assert placement.machines[-1] == placement.machines[-2] == "cloud-0"

    def test_all_on_server_baseline(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        placement = place_all_on(t, two_stage_split(), "server-0",
                                 ingest_from=edge)
        assert placement.machines == [edge, "server-0", "server-0"]

    def test_rejects_downhill_placement(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        with pytest.raises(PlacementError):
            TierPlacement(t, two_stage_split(),
                          ["server-0", "server-0", edge])

    def test_rejects_sideways_placement(self):
        t = NetworkTopology.build_fog_hierarchy(
            edges_per_fog=2, fogs_per_server=1, servers=1)
        edges = [m.name for m in t.machines(Tier.EDGE)]
        with pytest.raises(PlacementError):
            TierPlacement(t, [Stage("a", 1, 1), Stage("b", 1, 1)],
                          [edges[0], edges[1]])

    def test_rejects_length_mismatch(self):
        t = topo()
        with pytest.raises(PlacementError):
            TierPlacement(t, two_stage_split(), ["cloud-0"])

    def test_rejects_empty(self):
        with pytest.raises(PlacementError):
            TierPlacement(topo(), [], [])

    def test_describe_rows(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        placement = place_bottom_up(t, two_stage_split(), start=edge)
        rows = placement.describe()
        assert len(rows) == 3
        assert rows[0]["tier"] == "edge"
        assert rows[2]["compute_ms"] > 0

    def test_bottleneck_latency_positive(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        placement = place_bottom_up(t, two_stage_split(), start=edge)
        assert bottleneck_latency(placement) > 0


class TestPolicies:
    def test_score_policy_thresholding(self):
        policy = ScoreThresholdPolicy(0.9)
        logits = np.array([[10.0, -10.0], [0.1, 0.0]])
        mask = policy.should_exit(logits)
        assert mask.tolist() == [True, False]

    def test_score_policy_validates(self):
        with pytest.raises(ValueError):
            ScoreThresholdPolicy(1.5)

    def test_entropy_policy_thresholding(self):
        policy = EntropyThresholdPolicy(max_entropy=0.1)
        confident = np.array([[10.0, -10.0]])
        unsure = np.array([[0.0, 0.0]])
        assert policy.should_exit(confident)[0]
        assert not policy.should_exit(unsure)[0]

    def test_entropy_policy_validates(self):
        with pytest.raises(ValueError):
            EntropyThresholdPolicy(-0.1)


class TestFogPipelineAnalytic:
    def make(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        return FogPipeline(place_bottom_up(t, two_stage_split(), start=edge))

    def test_local_exit_cheaper_than_server(self):
        pipeline = self.make()
        local = pipeline.item_cost(resolved_stage=1)
        server = pipeline.item_cost(resolved_stage=2)
        assert local.total_s < server.total_s
        assert local.bytes_shipped < server.bytes_shipped

    def test_item_cost_network_only_for_crossed_hops(self):
        pipeline = self.make()
        ingest_only = pipeline.item_cost(resolved_stage=0)
        assert ingest_only.network_s == 0.0
        assert ingest_only.bytes_shipped == 0

    def test_item_cost_range_check(self):
        with pytest.raises(ValueError):
            self.make().item_cost(9)

    def test_offload_saves_bytes_into_server_tier(self):
        # The paper's claim: with early exits, only the small feature map
        # (and only for unconfident items) crosses into the server tier,
        # versus the raw frame for every item in the all-server baseline.
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        stages = model_split_from_early_exit(
            local_flops=1e8, remote_flops=5e9,
            feature_bytes=2_000, input_bytes=100_000)
        fog = FogPipeline(place_bottom_up(t, stages, start=edge))
        allserver = FogPipeline(place_all_on(t, stages, "server-0",
                                             ingest_from=edge))

        def server_ingress(stats):
            return sum(size for hop, size in stats.bytes_per_hop.items()
                       if hop.endswith("server-0"))

        fog_stats = fog.simulate_stream(
            num_items=20, arrival_interval_s=0.5,
            exit_probabilities={1: 0.7}, seed=3)
        server_stats = allserver.simulate_stream(
            num_items=20, arrival_interval_s=0.5,
            exit_probabilities={1: 0.0}, seed=3)
        assert server_ingress(fog_stats) < server_ingress(server_stats)


class TestFogPipelineStream:
    def make(self):
        t = topo()
        edge = t.machines(Tier.EDGE)[0].name
        return FogPipeline(place_bottom_up(t, two_stage_split(), start=edge))

    def test_completes_all_items(self):
        stats = self.make().simulate_stream(
            num_items=20, arrival_interval_s=0.5,
            exit_probabilities={1: 0.5}, seed=0)
        assert stats.completed == 20

    def test_stats_stay_exact_past_the_latency_reservoir(self):
        # The latency histogram keeps LATENCY_SAMPLES values; the stream's
        # counts must come from its exact aggregates, not from the samples.
        items = LATENCY_SAMPLES + 1
        stats = self.make().simulate_stream(
            num_items=items, arrival_interval_s=0.5,
            exit_probabilities={1: 0.5}, seed=0)
        assert stats.completed == items
        assert stats.accounted == items
        assert sum(stats.resolved_per_stage.values()) == items
        assert 0 < stats.mean_latency_s <= stats.max_latency_s
        assert 0 < stats.p95_latency_s <= stats.max_latency_s

    def test_exit_probability_one_resolves_all_locally(self):
        stats = self.make().simulate_stream(
            num_items=10, arrival_interval_s=0.5,
            exit_probabilities={1: 1.0})
        assert stats.resolved_fraction(1) == 1.0
        assert stats.bytes_per_hop == {} or all(
            "server" not in hop for hop in stats.bytes_per_hop)

    def test_exit_probability_zero_resolves_all_remotely(self):
        stats = self.make().simulate_stream(
            num_items=10, arrival_interval_s=0.5,
            exit_probabilities={1: 0.0})
        assert stats.resolved_fraction(2) == 1.0

    def test_outcomes_validated(self):
        pipeline = self.make()
        with pytest.raises(ValueError):
            pipeline.simulate_stream(0, 0.1)
        with pytest.raises(ValueError):
            pipeline.simulate_stream(2, -0.1)

    def test_queueing_raises_latency_under_load(self):
        pipeline = self.make()
        relaxed = pipeline.simulate_stream(
            num_items=30, arrival_interval_s=1.0,
            exit_probabilities={1: 0.0}, seed=1)
        slammed = pipeline.simulate_stream(
            num_items=30, arrival_interval_s=0.001,
            exit_probabilities={1: 0.0}, seed=1)
        assert slammed.mean_latency_s > relaxed.mean_latency_s

    def test_early_exits_relieve_server_queue(self):
        pipeline = self.make()
        no_exit = pipeline.simulate_stream(
            num_items=30, arrival_interval_s=0.01,
            exit_probabilities={1: 0.0}, seed=2)
        mostly_exit = pipeline.simulate_stream(
            num_items=30, arrival_interval_s=0.01,
            exit_probabilities={1: 0.9}, seed=2)
        assert mostly_exit.mean_latency_s < no_exit.mean_latency_s
        assert (mostly_exit.machine_busy_s["server-0"]
                < no_exit.machine_busy_s["server-0"])

    def test_bytes_accounted_per_hop(self):
        stats = self.make().simulate_stream(
            num_items=10, arrival_interval_s=0.5,
            exit_probabilities={1: 0.0})
        assert any("fog" in hop and "server" in hop
                   for hop in stats.bytes_per_hop)
        total = sum(stats.bytes_per_hop.values())
        # 10 items * (input_bytes + feature_bytes)
        assert total == 10 * (3 * 32 * 32 + 8_192)

    def test_deterministic_given_seed(self):
        pipeline = self.make()
        a = pipeline.simulate_stream(20, 0.1, exit_probabilities={1: 0.5}, seed=5)
        b = pipeline.simulate_stream(20, 0.1, exit_probabilities={1: 0.5}, seed=5)
        assert a.resolved_per_stage == b.resolved_per_stage
        assert a.mean_latency_s == b.mean_latency_s


class TestMaterializeStages:
    def make_chain(self):
        from repro import nn
        rng = np.random.default_rng(0)
        local = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
        )
        remote = nn.Sequential(
            nn.Conv2d(4, 8, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(8),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(8, 3, rng=rng),
        )
        head = nn.Sequential(nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng))
        return local, remote, head

    def test_stages_from_real_modules(self):
        from repro.fog import materialize_stages
        local, remote, head = self.make_chain()
        stages = materialize_stages(
            [("local", local), ("remote", remote)],
            input_shape=(1, 8, 8),
            exit_heads={"local": head})
        assert [s.name for s in stages] == ["local", "remote"]
        assert stages[0].has_exit and not stages[1].has_exit
        assert stages[0].exit_head_flops > 0
        # local output is (4, 8, 8) fp32 -> 4*8*8*4 bytes shipped upstream.
        assert stages[0].output_bytes == 4 * 8 * 8 * 4
        assert stages[1].output_bytes == 0
        assert stages[0].flops > 0 and stages[1].flops > 0

    def test_fused_stages_cost_less(self):
        from repro.fog import materialize_stages
        local, remote, head = self.make_chain()
        chain = [("local", local), ("remote", remote)]
        plain = materialize_stages(chain, input_shape=(1, 8, 8))
        fused = materialize_stages(chain, input_shape=(1, 8, 8), fuse=True)
        # BN folds away, so every fused stage is strictly cheaper.
        assert fused[0].flops < plain[0].flops
        assert fused[1].flops < plain[1].flops
        # Activation geometry is unchanged by folding.
        assert fused[0].output_bytes == plain[0].output_bytes

    def test_stages_are_placeable(self):
        from repro.fog import materialize_stages
        local, remote, _ = self.make_chain()
        stages = materialize_stages(
            [("local", local), ("remote", remote)], input_shape=(1, 8, 8))
        placement = place_bottom_up(topo(), stages, "edge-0-0-0")
        assert bottleneck_latency(placement) > 0


class TestRunPolicyBatched:
    def make_model(self):
        from repro import nn
        from repro.nn.models.earlyexit import EarlyExitNetwork
        rng = np.random.default_rng(1)
        return EarlyExitNetwork(
            local_stage=nn.Sequential(
                nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
            local_head=nn.Sequential(
                nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
            remote_stage=nn.Sequential(
                nn.Conv2d(4, 8, 3, stride=2, padding=1, rng=rng), nn.ReLU()),
            remote_head=nn.Sequential(
                nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)))

    def test_score_policy_drives_batched_path(self):
        from repro.fog import ScoreThresholdPolicy, run_policy_batched
        model = self.make_model()
        x = np.random.default_rng(2).normal(0, 1, (6, 1, 8, 8))
        policy = ScoreThresholdPolicy(0.5)
        batch = run_policy_batched(model, x, policy)
        assert len(batch) == 6
        direct = model.infer_batch(x, 0.5)
        np.testing.assert_array_equal(batch.predictions, direct.predictions)
        np.testing.assert_array_equal(batch.exit_index, direct.exit_index)

    def test_entropy_policy_matches_policy_mask(self):
        from repro.fog import EntropyThresholdPolicy, run_policy_batched
        model = self.make_model()
        x = np.random.default_rng(3).normal(0, 1, (6, 1, 8, 8))
        policy = EntropyThresholdPolicy(max_entropy=1.0)
        batch = run_policy_batched(model, x, policy)
        np.testing.assert_array_equal(
            batch.local_mask, policy.should_exit(batch.local_logits))
