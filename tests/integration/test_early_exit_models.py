"""One early-exit loop for all three models: classifier, detector, action.

The Fig. 5 detector and the Fig. 7 action model are
:class:`~repro.nn.models.earlyexit.EarlyExitNetwork`s like the camera
classifier, so each is taken through the same shape — construct, a few
training steps, eval, serve — and checked three ways:

(a) an **independent oracle** runs *both* exits eagerly on every row, one
    row at a time, scores exit 1 with a hand-written confidence (per-cell
    decode loop, plain softmax / entropy) and selects with the rule; it
    must agree with ``infer_batch`` at every threshold that separates two
    rows' confidences, whatever batches the rows arrive in;
(b) deploy -> ``served_model()`` -> ``serve_batched`` equals the
    monolithic ``infer_batch`` exactly;
(c) several tenants cross ``ServingGateway.submit`` and each gets exactly
    its rows of the direct call back, escalated rows included.
"""

import asyncio
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro import nn
from repro.apps.action import ActionEarlyExitModel
from repro.fog import TwoTierDeployment
from repro.fog.policies import (
    EntropyThresholdPolicy,
    ExitPolicy,
    ScoreThresholdPolicy,
    run_policy_batched,
)
from repro.nn.inference import eval_mode
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.nn.models.yolo import (
    EarlyExitDetector,
    GroundTruthBox,
    YoloLoss,
    detection_confidence,
)
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime
from repro.serving import GatewayConfig, ServingGateway

ROWS = 8
SCORE_FLOOR = 0.2
STAGES = (["local_stage", "local_head"], ["remote_stage", "remote_head"])


def build_classifier(rng):
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.BatchNorm2d(4),
            nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.BatchNorm2d(8),
            nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)))


def softmax(logits):
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def oracle_score(logits):
    return float(softmax(logits).max())


def oracle_negative_entropy(logits):
    probs = np.clip(softmax(logits), 1e-12, 1.0)
    return float(sum(p * np.log(p) for p in probs))


def oracle_best_detection_score(grid):
    """The per-cell decode loop: best objectness x class probability."""
    best = 0.0
    for gy in range(grid.shape[1]):
        for gx in range(grid.shape[2]):
            cell = grid[:, gy, gx]
            objectness = 1.0 / (1.0 + np.exp(-cell[4]))
            score = float(objectness * softmax(cell[5:]).max())
            if score >= SCORE_FLOOR:
                best = max(best, score)
    return best


@dataclass
class Case:
    build: Callable
    sample_shape: tuple
    policy: Callable[[float], ExitPolicy]   # threshold -> policy
    oracle_confidence: Callable
    loss: Callable                          # (model, x, rng) -> Tensor

    def frames(self, rng, rows=ROWS):
        return rng.normal(0.0, 1.0, (rows,) + self.sample_shape)


def classification_loss(num_classes):
    def loss(model, x, rng):
        return model.joint_loss(Tensor(x),
                                rng.integers(0, num_classes, len(x)))
    return loss


def detection_loss(model, x, rng):
    boxes = [[GroundTruthBox(*rng.uniform(0.2, 0.8, 2), 0.3, 0.3,
                             int(rng.integers(0, 3)))] for _ in x]
    return model.joint_loss(Tensor(x), boxes, YoloLoss(grid=4, num_classes=3))


CASES = {
    "classifier": Case(
        build=build_classifier, sample_shape=(1, 8, 8),
        policy=lambda t: ScoreThresholdPolicy(min(max(t, 0.0), 1.0)),
        oracle_confidence=oracle_score,
        loss=classification_loss(3)),
    "detector": Case(
        build=lambda rng: EarlyExitDetector(1, 16, num_classes=3, grid=4,
                                            rng=rng),
        sample_shape=(1, 16, 16),
        policy=lambda t: ExitPolicy(t, detection_confidence),
        oracle_confidence=oracle_best_detection_score,
        loss=detection_loss),
    "action": Case(
        build=lambda rng: ActionEarlyExitModel(image_size=16, num_classes=5,
                                               rng=rng),
        sample_shape=(3, 1, 16, 16),
        policy=lambda t: EntropyThresholdPolicy(max(-t, 0.0)),
        oracle_confidence=oracle_negative_entropy,
        loss=classification_loss(5)),
}


@pytest.fixture(scope="module", params=list(CASES))
def trained(request):
    """(case, model after three optimizer steps, a batch of fresh rows)."""
    case = CASES[request.param]
    rng = np.random.default_rng(5)
    model = case.build(rng)
    optimizer = nn.Adam(model.parameters(), lr=0.02)
    x = case.frames(rng)
    before = [p.data.copy() for p in model.parameters()]
    for _ in range(3):
        optimizer.zero_grad()
        loss = case.loss(model, x, rng)
        loss.backward()
        optimizer.step()
    assert np.isfinite(loss.item())
    assert all(m.training for m in model.modules())
    assert any(not np.array_equal(b, p.data)
               for b, p in zip(before, model.parameters()))
    return case, model, case.frames(rng)


def oracle_rows(case, model, x):
    """Both exits of every row, one row at a time, outside infer_batch."""
    rows = []
    with eval_mode(model), nn.no_grad():
        for index in range(len(x)):
            features = model.local_stage(Tensor(x[index:index + 1]))
            local = np.array(model.local_head(features).data[0])
            remote = np.array(
                model.remote_head(model.remote_stage(features)).data[0])
            rows.append((case.oracle_confidence(local), local, remote))
    return rows


def separating_thresholds(confidences, margin=1e-6):
    """One threshold under all rows, one between each separable pair of
    neighbours, one above all rows — every split the rule can produce."""
    ordered = sorted(set(confidences))
    cuts = [ordered[0] - 1.0, ordered[-1] + 1.0]
    cuts += [(low + high) / 2 for low, high in zip(ordered, ordered[1:])
             if high - low > 2 * margin]
    return sorted(cuts)


def assert_same_decisions(got, expected):
    for column in ("predictions", "exit_index", "confidence", "local_logits",
                   "remote_rows"):
        np.testing.assert_array_equal(getattr(got, column),
                                      getattr(expected, column), column)
    if expected.remote_logits is None:
        assert got.remote_logits is None
    else:
        np.testing.assert_array_equal(got.remote_logits,
                                      expected.remote_logits)


class TestIndependentOracle:
    @pytest.mark.parametrize("batch_size", [None, 1, 3])
    def test_infer_batch_matches_both_exits_run_on_every_row(
            self, trained, batch_size):
        case, model, x = trained
        rows = oracle_rows(case, model, x)
        thresholds = separating_thresholds([conf for conf, _, _ in rows])
        assert len(thresholds) >= 4, "rows must not share one confidence"
        # the rows arrive as consecutive batches of ``batch_size`` (one
        # batch when None); each batch's call answers for its own rows
        step = batch_size or len(x)
        seen = set()
        for threshold in thresholds:
            policy = case.policy(threshold)
            escalated = 0
            for start in range(0, len(x), step):
                got = run_policy_batched(model, x[start:start + step], policy)
                remote_of = dict(zip(got.remote_rows.tolist(),
                                     range(got.remote_rows.size)))
                for row, (conf, local, remote) in enumerate(
                        rows[start:start + step]):
                    exit_index = 1 if conf >= policy.threshold else 2
                    assert got.exit_index[row] == exit_index
                    assert got.confidence[row] == pytest.approx(conf,
                                                                abs=1e-12)
                    np.testing.assert_allclose(got.local_logits[row], local,
                                               rtol=0, atol=1e-12)
                    assert (row in remote_of) == (exit_index == 2)
                    if exit_index == 2:
                        np.testing.assert_allclose(
                            got.remote_logits[remote_of[row]], remote,
                            rtol=0, atol=1e-12)
                escalated += got.remote_rows.size
            seen.add(escalated)
        # The sweep really moved rows between the exits, one at a time.
        assert {0, len(x)} <= seen and len(seen) >= 4

    def test_model_left_in_training_mode_with_no_graph(self, trained):
        case, model, x = trained
        decisions = run_policy_batched(model, x, case.policy(0.0))
        assert all(m.training for m in model.modules())
        assert isinstance(decisions.local_logits, np.ndarray)


def median_policy(case, model, x):
    """A threshold that sends some rows each way."""
    confidence = run_policy_batched(model, x, case.policy(-1e9)).confidence
    ordered = np.sort(confidence)
    middle = len(ordered) // 2
    return case.policy(float((ordered[middle - 1] + ordered[middle]) / 2))


def deploy(case, model, **kwargs):
    deployment = TwoTierDeployment(
        lambda: case.build(np.random.default_rng(99)), *STAGES, **kwargs)
    deployment.deploy(model)
    return deployment


class TestServedPath:
    def test_served_model_equals_the_monolith(self, trained):
        case, model, x = trained
        policy = median_policy(case, model, x)
        deployment = deploy(case, model)
        assert type(deployment.served_model()) is EarlyExitNetwork
        direct = run_policy_batched(model, x, policy)
        assert 0 < direct.remote_rows.size < len(x)
        assert_same_decisions(deployment.serve_batched(x, policy), direct)
        # and batch by batch, short last batch included
        for start in range(0, len(x), 3):
            rows = x[start:start + 3]
            assert_same_decisions(
                run_policy_batched(deployment.served_model(), rows, policy),
                run_policy_batched(model, rows, policy))

    def test_fused_float32_deployment_keeps_the_decisions(self, trained):
        case, model, x = trained
        policy = median_policy(case, model, x)
        x32 = x.astype(np.float32)
        fast = dict(fuse_inference=True, inference_dtype=np.float32)
        served = deploy(case, model, **fast).serve_batched(x32, policy)
        direct = run_policy_batched(model, x, policy)
        np.testing.assert_array_equal(served.exit_index, direct.exit_index)
        np.testing.assert_allclose(served.local_logits, direct.local_logits,
                                   atol=1e-4)
        # Captured plans are a pure performance switch here too.
        planned = deploy(case, model, capture_plans=True, **fast)
        for _ in range(2):      # capture, then replay
            assert_same_decisions(planned.serve_batched(x32, policy), served)
        assert all(stage["hits"] for stage in planned.plan_stats().values())

    def test_tenants_cross_the_gateway_and_get_their_rows_back(self, trained):
        case, model, x = trained
        policy = median_policy(case, model, x)
        direct = run_policy_batched(model, x, policy)
        slices = {"cam-a": slice(0, 3), "cam-b": slice(3, 4),
                  "cam-c": slice(4, ROWS)}

        async def main(gateway):
            async with gateway.running():
                return await asyncio.gather(
                    *(gateway.submit(x[rows], tenant=tenant)
                      for tenant, rows in slices.items()))

        with using_runtime(Runtime(seed=3)):
            gateway = ServingGateway(
                deploy(case, model), policy,
                GatewayConfig(coalesce_window_s=0.0))
            parts = asyncio.run(main(gateway))
        stats = gateway.stats()
        assert stats["submitted"] == stats["answered"] == len(slices)
        assert stats["batches"] == 1    # one coalesced batch == the direct call
        escalated = 0
        for part, rows in zip(parts, slices.values()):
            assert len(part) == rows.stop - rows.start
            for column in ("predictions", "exit_index", "confidence",
                           "local_logits"):
                np.testing.assert_array_equal(getattr(part, column),
                                              getattr(direct, column)[rows])
            # Escalated rows follow their request, re-based to its rows.
            inside = ((direct.remote_rows >= rows.start)
                      & (direct.remote_rows < rows.stop))
            np.testing.assert_array_equal(
                part.remote_rows, direct.remote_rows[inside] - rows.start)
            if inside.any():
                np.testing.assert_array_equal(part.remote_logits,
                                              direct.remote_logits[inside])
            else:
                assert part.remote_logits is None
            escalated += part.remote_rows.size
        assert 0 < escalated == direct.remote_rows.size < ROWS
