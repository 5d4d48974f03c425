"""E16 — Sec. II-C-1: distributed deep learning on the analysis servers.

The paper uses TensorFlow "because it provides model and data parallelism
and can be easily distributed among multiple nodes and multiple workers
per node".  This bench measures both regimes on the NumPy substrate:

- synchronous data parallelism must be numerically identical to
  single-worker large-batch SGD (the all-reduce invariant);
- asynchronous parameter-server training converges despite staleness,
  with the staleness ablation sweeping the pull period;
- two-tier deployment ships the trained weights to device + server with
  measured payloads.
"""

import numpy as np

from benchmarks.helpers import print_table
from repro import nn
from repro.nn import functional as F
from repro.nn.distributed import ParameterServerTrainer
from repro.fog import TwoTierDeployment
from repro.fog.policies import ExitPolicy, run_policy_batched
from repro.nn.models.yolo import EarlyExitDetector, detection_confidence
from repro.nn.tensor import Tensor


def build_model():
    return nn.Sequential(
        nn.Linear(4, 16, rng=np.random.default_rng(42)), nn.ReLU(),
        nn.Linear(16, 2, rng=np.random.default_rng(43)))


def toy_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, 4))
    y = (x[:, 0] - x[:, 1] + 0.5 * x[:, 2] > 0).astype(int)
    return x, y


def test_sec2c_sync_data_parallel_equivalence(benchmark):
    x, y = toy_data()

    def train_both():
        single = build_model()
        multi = build_model()
        t1 = nn.DataParallelTrainer(single, nn.SGD(single.parameters(),
                                                   lr=0.1),
                                    F.cross_entropy, num_workers=1)
        t4 = nn.DataParallelTrainer(multi, nn.SGD(multi.parameters(),
                                                  lr=0.1),
                                    F.cross_entropy, num_workers=4)
        for _ in range(20):
            t1.step(x, y)
            t4.step(x, y)
        deltas = [float(np.abs(a.data - b.data).max())
                  for a, b in zip(single.parameters(), multi.parameters())]
        return max(deltas)

    max_delta = benchmark.pedantic(train_both, rounds=1, iterations=1)
    print(f"\n  max |w_1worker - w_4workers| after 20 steps: {max_delta:.2e}")
    assert max_delta < 1e-8  # all-reduce == large-batch, exactly


def test_sec2c_parameter_server_staleness_ablation(benchmark):
    x, y = toy_data()

    def ablation():
        rows = []
        for pull_period in (1, 4, 16):
            trainer = ParameterServerTrainer(
                build_model, F.cross_entropy, num_workers=4,
                lr=0.15, pull_period=pull_period)
            trainer.run(x, y, steps=200, batch_size=32)
            rows.append({
                "pull_period": pull_period,
                "mean_staleness": trainer.server.mean_staleness,
                "accuracy": trainer.evaluate(x, y, F.accuracy),
            })
        return rows

    rows = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print_table("Sec. II-C-1 — async parameter-server staleness ablation",
                rows, ["pull_period", "mean_staleness", "accuracy"])

    staleness = [r["mean_staleness"] for r in rows]
    assert staleness == sorted(staleness)  # longer pulls = staler
    # The textbook parameter-server shape: fresh gradients converge fully,
    # moderate staleness is tolerated, extreme staleness costs accuracy
    # but training still beats chance by a wide margin.
    assert rows[0]["accuracy"] > 0.9
    assert rows[1]["accuracy"] > 0.9
    assert rows[0]["accuracy"] >= rows[-1]["accuracy"]
    assert rows[-1]["accuracy"] > 0.75


def test_sec2c_two_tier_deployment_payloads(benchmark):
    rng = np.random.default_rng(0)
    trained = EarlyExitDetector(1, 16, num_classes=3, grid=4, rng=rng)
    for param in trained.parameters():
        param.data += rng.normal(0, 0.05, param.data.shape)

    def deploy():
        deployment = TwoTierDeployment(
            lambda: EarlyExitDetector(1, 16, num_classes=3, grid=4,
                                      rng=np.random.default_rng(9)),
            local_modules=["local_stage", "local_head"],
            remote_modules=["remote_stage", "remote_head"])
        deployment.deploy(trained)
        return deployment

    deployment = benchmark(deploy)
    rows = [
        {"tier": "edge/fog device",
         "payload_kb": deployment.payload_bytes["device"] / 1024.0},
        {"tier": "analysis server",
         "payload_kb": deployment.payload_bytes["server"] / 1024.0},
    ]
    print_table("Sec. II-C-1 — weight payload per deployment tier", rows,
                ["tier", "payload_kb"])

    # Verify the deployed halves reproduce the monolith on a real frame.
    trained.eval()
    deployment.device_model.eval()
    deployment.server_model.eval()
    x = Tensor(np.random.default_rng(1).normal(0, 1, (1, 1, 16, 16)))
    mono = trained.local_head(trained.local_stage(x)).data
    device = deployment.device_model
    deployed = device.local_head(device.local_stage(x)).data
    np.testing.assert_allclose(deployed, mono, atol=1e-12)
    # ... and the served composite decides every frame as the monolith does.
    policy = ExitPolicy(0.5, detection_confidence)
    frames = np.random.default_rng(2).normal(0, 1, (8, 1, 16, 16))
    served = deployment.serve_batched(frames, policy)
    direct = run_policy_batched(trained, frames, policy)
    np.testing.assert_array_equal(served.exit_index, direct.exit_index)
    assert trained.detections(served) == trained.detections(direct)
    assert (deployment.payload_bytes["server"]
            > deployment.payload_bytes["device"])
