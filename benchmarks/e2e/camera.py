"""The three camera workloads (Fig. 3/5): frame -> broker -> gateway -> two tiers.

``camera-drain``, ``edge-drain`` and ``camera-paced`` share one
preparation: a seeded scene pool, the Fig. 5 early-exit network *trained*
(so the exit split is real), and a float64 eager reference of every pool
frame's (prediction, exit) that no layer under test takes part in.  The
exit threshold is the q-quantile of the reference's local confidence, so
the escalated share is an input property of the workload.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks.e2e.harness import (
    GENERATE,
    PUMP,
    Measurement,
    PassResult,
    Rows,
    root_span,
    run_closed,
)
from benchmarks.e2e.trace import NoTrace
from benchmarks.perf.bench_inference import build_early_exit
from repro import nn
from repro.data.video import SceneGenerator
from repro.fog.codec import AutoencoderCodec
from repro.fog.deployment import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.inference import eval_mode
from repro.nn.models.autoencoder import Autoencoder
from repro.nn.models.earlyexit import score_confidence
from repro.nn.tensor import Tensor
from repro.runtime import get_runtime
from repro.serving import (
    DEFAULT_GROUP,
    GatewayConfig,
    ServingGateway,
    ShedError,
    pump_topic,
)
from repro.streaming.broker import BackpressureError, Broker

TOPIC = "camera.frames"
IMAGE_SIZE = 16
NUM_CLASSES = 4
POLL_SIZE = 256
LOCAL_MODULES = ("local_stage", "local_head")
REMOTE_MODULES = ("remote_stage", "remote_head")
#: float32 plans against the float64 reference: the threshold sits in a
#: gap no float32 rounding crosses, so every row must agree
EXACT_AGREEMENT = 0.999
#: row counts the deployment captures plans for at set-up, smallest first
#: so every size gets its own plan (a larger cached plan would serve a
#: smaller batch padded and the capture would never happen)
PLAN_LADDER = (4, 8, 16, 32, 64, 128, 256)
#: above any softmax score: every warm-up row escalates, so the remote
#: stage captures its plans too
ESCALATE_ALL = 2.0
TRAIN_IMAGES = 512
TRAIN_STEPS = 40
CODEC_STEPS = 30
CODEC_DIM = 64
CALIBRATION_ROWS = 512
#: ranks either side of the quantile searched for the widest confidence gap
THRESHOLD_SEARCH = 8

#: 500 rows/s, 1000 in the rush.  The issue asked for a 5 ms tick
#: (2000 rows/s) at 15-30 % utilisation; here the 0.5 ms pump-retry loop
#: alone costs ~18 % of a core, 2000 rows/s sat at 47 % and 1000 at 33 %,
#: and whenever the host ran 1.8x slow for a whole run (2 runs in 10) the
#: queue built up and p95 doubled.  At 20 ms the loop sits near 25 %.
TICK_S = 0.020
#: 100 ticks, so five ticks lie beyond a window's p95: the ten frames of
#: a tick share one batch and one latency, so ticks, not frames, are the
#: independent samples
PACED_WINDOW_S = 2.0
RUSH_CYCLE_S = 10.0
RUSH_FROM_S, RUSH_TO_S = 6.0, 8.0
PUMP_RETRY_S = 0.0005


@dataclass(frozen=True)
class CameraSpec:
    name: str
    cameras: int
    frames_per_camera: int  # per pass (drains); pool share (paced)
    chunk: int              # frames per produce_batch call
    escalate_q: float
    edge: bool              # int8 edge tier + autoencoder offload codec
    gateway: GatewayConfig
    limit_s: float
    traced_passes: int      # at the nominal 20 s run


DRAIN_GATEWAY = GatewayConfig(coalesce_window_s=0.0, max_batch_rows=256,
                              max_queue_rows=1024)
SPECS = {
    "camera-drain": CameraSpec(
        "camera-drain", cameras=16, frames_per_camera=256, chunk=256,
        escalate_q=0.35, edge=False, gateway=DRAIN_GATEWAY, limit_s=0.25,
        traced_passes=25),
    "edge-drain": CameraSpec(
        "edge-drain", cameras=64, frames_per_camera=128, chunk=8,
        escalate_q=0.05, edge=True, gateway=DRAIN_GATEWAY, limit_s=0.25,
        traced_passes=18),
    "camera-paced": CameraSpec(
        "camera-paced", cameras=10, frames_per_camera=410, chunk=1,
        escalate_q=0.35, edge=False,
        gateway=GatewayConfig(coalesce_window_s=0.001, max_batch_rows=64,
                              max_queue_rows=1024),
        limit_s=0.05, traced_passes=0),
}


@dataclass
class System:
    """What one set-up builds, fresh."""

    broker: Broker
    deployment: TwoTierDeployment
    codec: Optional[AutoencoderCodec]
    gateway: ServingGateway
    deploy_s: float
    warmup_s: float
    plan_stats: Dict


class GatewayProbe:
    """The load generator's view of the gateway: times every ``submit``.

    Stands in for the gateway in ``pump_topic`` (which needs ``submit``
    and ``runtime``) in traced and untraced runs alike — request latency
    is an end-to-end number, not a trace.  It keeps the two answer
    columns of each call, not the decisions object: tens of thousands of
    retained dataclasses would make every full garbage collection a
    harness-made stall.
    """

    def __init__(self, gateway: ServingGateway):
        self.gateway = gateway
        self.runtime = gateway.runtime
        #: (camera, rows, submitted at, resolved at, predictions,
        #: exit index) — or the error in place of the last two
        self.calls: List[Tuple] = []

    async def submit(self, frames, tenant: str = "default"):
        start = time.perf_counter()
        try:
            decisions = await self.gateway.submit(frames, tenant=tenant)
        except Exception as error:
            self.calls.append((tenant, len(frames), start,
                               time.perf_counter(), error, None))
            raise
        self.calls.append((tenant, len(frames), start, time.perf_counter(),
                           decisions.predictions, decisions.exit_index))
        return decisions


class CameraWorkload:
    """A closed-loop drain; :class:`PacedWorkload` makes it open loop."""

    def __init__(self, spec: CameraSpec):
        self.spec = spec
        self.name = spec.name
        self.agreement_floor = EXACT_AGREEMENT
        self.traced_passes = spec.traced_passes
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.prepare_s = 0.0
        self.synthesize_us_per_row = 0.0
        #: of the last ``measure``: rows answered by exit 2, deepest lag,
        #: raw submit -> answer seconds of every request
        self.escalated_rows = 0
        self.lag_max = 0
        self.submit_waits: List[float] = []

    # -- preparation (harness time, not set-up) -------------------------------
    def prepare(self) -> None:
        start = time.perf_counter()
        spec, runtime = self.spec, get_runtime()
        scenes = SceneGenerator(image_size=IMAGE_SIZE,
                                num_classes=NUM_CLASSES, seed=runtime.seed)
        images, labels = scenes.classification_dataset(TRAIN_IMAGES)
        self.model = build_early_exit(runtime.rng.np_child("e2e.model"))
        self._train(self.model, images, labels)

        pool_rows = spec.cameras * spec.frames_per_camera
        synth = time.perf_counter()
        pool = scenes.generate_batch(pool_rows)[0]
        self.synthesize_us_per_row = \
            (time.perf_counter() - synth) / pool_rows * 1e6
        self._reference(pool)
        self.pool = pool.astype(np.float32)
        self.frames = list(self.pool)
        names = [f"cam-{index:02d}" for index in range(spec.cameras)]
        self.camera_index = {name: index for index, name in enumerate(names)}
        self.key_fns = [lambda frame, name=name: name for name in names]
        if spec.edge:
            self.codec_model = self._train_codec(images)
            self.agreement_floor = self._eager_edge()
        self.prepare_s = time.perf_counter() - start

    def _train(self, model, images, labels) -> None:
        order = get_runtime().rng.np_child("e2e.train")
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        for _ in range(TRAIN_STEPS):
            batch = order.integers(0, len(images), 64)
            optimizer.zero_grad()
            loss = model.joint_loss(Tensor(images[batch]), labels[batch])
            loss.backward()
            optimizer.step()

    def _train_codec(self, images) -> Autoencoder:
        """The offload autoencoder, fitted to the local stage's features."""
        runtime = get_runtime()
        with eval_mode(self.model), nn.no_grad():
            features = self.model.local_stage(Tensor(images)).data
        features = features.reshape(len(features), -1)
        autoencoder = Autoencoder(features.shape[1], (), CODEC_DIM,
                                  rng=runtime.rng.np_child("e2e.codec"))
        order = runtime.rng.np_child("e2e.codec.train")
        optimizer = nn.Adam(autoencoder.parameters(), lr=1e-3)
        for _ in range(CODEC_STEPS):
            batch = order.integers(0, len(features), 64)
            optimizer.zero_grad()
            loss = autoencoder.reconstruction_loss(Tensor(features[batch]))
            loss.backward()
            optimizer.step()
        return autoencoder

    def _eager_edge(self) -> float:
        """Place the threshold for the int8 edge; its eager agreement.

        The int8 edge's confidences differ from the reference's in the
        third digit, enough to move 3-6 % of the frames across a
        threshold placed at the reference's 5 % quantile — so the share
        escalated, and with it the work in a pass, would differ by seed.
        The threshold is therefore placed at the quantile of the
        confidences a system deployed without plans reports eagerly.

        Edge and codec are lossy on purpose, so the float64 reference is
        no floor for them.  One pass of the same frames in the same
        batches through that eager system is: the planned system must
        agree with the reference on at least as many rows.
        """
        self.open_loop()
        try:
            system = self.set_up(plans=False)
            served = system.deployment.served_model()
            self._place_threshold(np.concatenate([
                served.infer_batch(self.pool[start:start + POLL_SIZE],
                                   0.0).confidence
                for start in range(0, len(self.pool), POLL_SIZE)]))
            self.tear_down(system)
            system = self.set_up(plans=False)
            rows = self.measure(system, passes=1).rows
            self.tear_down(system)
        finally:
            self.close_loop()
        return rows.correct / rows.sent

    def _reference(self, pool: np.ndarray) -> None:
        """Logits of every pool frame: float64, eager, NumPy."""
        local, remote = [], []
        with eval_mode(self.model), nn.no_grad():
            for start in range(0, len(pool), POLL_SIZE):
                local_logits, remote_logits = self.model.forward(
                    Tensor(pool[start:start + POLL_SIZE]))
                local.append(local_logits.data)
                remote.append(remote_logits.data)
        self.ref_local = np.concatenate(local)
        self.ref_remote = np.concatenate(remote)
        self.ref_confidence = score_confidence(self.ref_local)
        self._place_threshold(self.ref_confidence)

    def _place_threshold(self, confidence: np.ndarray) -> None:
        """The q-quantile of ``confidence``; the reference's answer to it.

        The threshold sits mid-way in the widest gap between adjacent
        confidences next to the quantile, so float32 rounding of a
        confidence that lies on the threshold cannot flip an exit.
        """
        ordered = np.sort(confidence)
        rank = int(self.spec.escalate_q * len(ordered))
        low = max(rank - THRESHOLD_SEARCH, 1)
        gaps = np.diff(ordered[low - 1:rank + THRESHOLD_SEARCH])
        cut = low - 1 + int(gaps.argmax())
        self.threshold = float((ordered[cut] + ordered[cut + 1]) / 2.0)
        self.ref_escalated = self.ref_confidence < self.threshold
        self.ref_prediction = np.where(self.ref_escalated,
                                       self.ref_remote.argmax(axis=-1),
                                       self.ref_local.argmax(axis=-1))

    # -- set-up (timed: ``setup_s``) ------------------------------------------
    def set_up(self, recorder=NoTrace(), plans: bool = True) -> System:
        spec, runtime = self.spec, get_runtime()
        broker = Broker()
        broker.create_topic(
            TOPIC, partitions=4, share_ndarrays=True,
            max_partition_records=max(
                4096, spec.cameras * spec.frames_per_camera))
        codec = (AutoencoderCodec(self.codec_model, quantize_code=True)
                 if spec.edge else None)
        deployment = TwoTierDeployment(
            lambda: build_early_exit(runtime.rng.np_child("e2e.fresh")),
            LOCAL_MODULES, REMOTE_MODULES, fuse_inference=True,
            inference_dtype=np.float32, capture_plans=plans,
            quantize_edge=spec.edge,
            calibration=self.pool[:CALIBRATION_ROWS] if spec.edge else None,
            activation_codec=codec)
        start = time.perf_counter()
        deployment.deploy(self.model)
        deployed = time.perf_counter()
        served = deployment.served_model()
        for rows in PLAN_LADDER if plans else ():
            served.infer_batch(self.pool[:rows], ESCALATE_ALL)
        warmed = time.perf_counter()
        recorder.patch(served, "infer_batch", "nn.infer_batch")
        if codec is not None:
            recorder.patch(codec, "transfer", "fog.codec")
        gateway = ServingGateway(
            recorder.deployment(deployment),
            ScoreThresholdPolicy(self.threshold), spec.gateway)

        async def start_stop():
            await gateway.start()
            await gateway.close()
        self.loop.run_until_complete(start_stop())
        return System(broker, deployment, codec, gateway,
                      deploy_s=deployed - start, warmup_s=warmed - deployed,
                      plan_stats=deployment.plan_stats())

    def tear_down(self, system: System) -> None:
        system.broker.close()

    def open_loop(self, recorder=NoTrace()) -> None:
        """The one event loop generator and system share."""
        self.loop = recorder.event_loop()

    def close_loop(self) -> None:
        self.loop.close()
        self.loop = None

    # -- measurement ----------------------------------------------------------
    def measure(self, system: System, seconds: Optional[float] = None,
                passes: Optional[int] = None,
                recorder=NoTrace()) -> Measurement:
        spec = self.spec
        per_camera = spec.frames_per_camera
        schedule = [(self.key_fns[camera],
                     self.frames[camera * per_camera + start:
                                 camera * per_camera + start + spec.chunk])
                    for start in range(0, per_camera, spec.chunk)
                    for camera in range(spec.cameras)]
        frame_of = [np.arange(camera * per_camera, (camera + 1) * per_camera)
                    for camera in range(spec.cameras)]
        rows_per_pass = spec.cameras * per_camera
        probe = GatewayProbe(system.gateway)
        broker = recorder.broker(system.broker)
        self.escalated_rows = self.lag_max = 0
        self.submit_waits = []

        async def drain() -> float:
            start = time.perf_counter()
            with recorder.span(GENERATE):
                for key_fn, chunk in schedule:
                    broker.produce_batch(TOPIC, chunk, key_fn=key_fn)
            self.lag_max = max(self.lag_max,
                               system.broker.lag(DEFAULT_GROUP, TOPIC))
            with recorder.span(PUMP):
                await pump_topic(probe, broker, TOPIC, poll_size=POLL_SIZE)
            return time.perf_counter() - start

        def one_pass(index: int) -> PassResult:
            probe.calls.clear()
            with root_span(recorder, (self.name, index)):
                elapsed = self.loop.run_until_complete(drain())
            rows, masks = self._check(probe.calls, frame_of)
            rows.sent = rows_per_pass
            # produced but never submitted: missing, so failed
            rows.failed = rows_per_pass - rows.answered - rows.shed
            return PassResult(elapsed, rows, [
                (call[3] - call[2], int(mask.sum()))
                for call, mask in zip(probe.calls, masks)])

        self.loop.run_until_complete(system.gateway.start())
        try:
            return run_closed(one_pass, spec.limit_s, seconds, passes)
        finally:
            self.loop.run_until_complete(system.gateway.close())

    def _check(self, calls, frame_of) -> Tuple[Rows, List[np.ndarray]]:
        """Every answered row against the reference, in per-camera order.

        A camera's frames live in one partition, so its submissions carry
        them in produce order: the n-th row a camera was answered for is
        its n-th frame.  Returns the row accounting (``sent`` left to the
        caller) and, per call, the mask of rows answered correctly.
        """
        rows = Rows()
        masks = []
        cursor = [0] * self.spec.cameras
        for camera, count, submitted, resolved, predictions, exits in calls:
            self.submit_waits.append(resolved - submitted)
            index = self.camera_index[camera]
            frames = frame_of[index][cursor[index]:cursor[index] + count]
            cursor[index] += count
            if isinstance(predictions, ShedError):
                rows.shed += count
                mask = np.zeros(count, dtype=bool)
            elif isinstance(predictions, Exception):
                rows.failed += count
                mask = np.zeros(count, dtype=bool)
            else:
                escalated = exits == 2
                mask = ((predictions == self.ref_prediction[frames])
                        & (escalated == self.ref_escalated[frames]))
                rows.answered += count
                rows.correct += int(mask.sum())
                self.escalated_rows += int(escalated.sum())
            masks.append(mask)
        return rows, masks


class PacedWorkload(CameraWorkload):
    """``camera-paced``: an arrival schedule, not a drain.

    A tick every 20 ms; each camera sends one frame per tick, two during
    seconds [6, 8) of every 10 s cycle (500 rows/s, 1000 in the rush).
    Producer and pump share the event loop.  A frame's latency runs from the tick it was *due* to
    the moment its camera's ``submit`` resolves, so a stall is charged
    to every frame it delayed; the generator's own lateness is reported.
    """

    def measure(self, system: System, seconds: Optional[float] = None,
                passes: Optional[int] = None,
                recorder=NoTrace()) -> Measurement:
        spec = self.spec
        cameras = spec.cameras
        pool_rows = len(self.frames)
        ticks = int(seconds / TICK_S)
        probe = GatewayProbe(system.gateway)
        broker = recorder.broker(system.broker)
        due: List[List[float]] = [[] for _ in range(cameras)]
        lateness: List[float] = []
        rows = Rows()
        self.escalated_rows = self.lag_max = 0
        self.submit_waits = []
        done = False

        def produce_tick(tick: int, due_at: float) -> None:
            offset = (tick * TICK_S) % RUSH_CYCLE_S
            per_camera = 2 if RUSH_FROM_S <= offset < RUSH_TO_S else 1
            for camera in range(cameras):
                sent = len(due[camera])
                chunk = [self.frames[((sent + extra) * cameras + camera)
                                     % pool_rows]
                         for extra in range(per_camera)]
                rows.sent += per_camera
                try:
                    broker.produce_batch(TOPIC, chunk,
                                         key_fn=self.key_fns[camera])
                except BackpressureError:
                    rows.failed += per_camera
                else:
                    due[camera].extend([due_at] * per_camera)

        async def producer(start: float) -> None:
            nonlocal done
            for tick in range(ticks):
                due_at = start + tick * TICK_S
                delay = due_at - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append((time.perf_counter() - due_at) * 1000.0)
                with recorder.span(GENERATE):
                    produce_tick(tick, due_at)
                self.lag_max = max(
                    self.lag_max, system.broker.lag(DEFAULT_GROUP, TOPIC))
            done = True

        async def pump() -> None:
            while True:
                with recorder.span(PUMP):
                    await pump_topic(probe, broker, TOPIC,
                                     poll_size=POLL_SIZE)
                if done and not system.broker.lag(DEFAULT_GROUP, TOPIC):
                    return
                await asyncio.sleep(PUMP_RETRY_S)

        async def run() -> Tuple[float, float]:
            await system.gateway.start()
            try:
                start = time.perf_counter()
                await asyncio.gather(producer(start), pump())
                return start, time.perf_counter()
            finally:
                await system.gateway.close()

        with root_span(recorder, (self.name, 0)):
            start, end = self.loop.run_until_complete(run())

        frame_of = [(np.arange(len(due[camera])) * cameras + camera)
                    % pool_rows for camera in range(cameras)]
        checked, masks = self._check(probe.calls, frame_of)
        rows.add(checked)
        # Per answered frame: latency from its due tick, the window its
        # due tick falls in, and whether it was answered correctly.
        due_at = [np.asarray(times) for times in due]
        cursor = [0] * cameras
        latency, answered_due, good = [], [], []
        for (camera, count, _, resolved, answer, _), mask in zip(probe.calls,
                                                                 masks):
            index = self.camera_index[camera]
            first = cursor[index]
            cursor[index] += count
            if not isinstance(answer, Exception):
                frame_due = due_at[index][first:first + count]
                latency.append(resolved - frame_due)
                answered_due.append(frame_due)
                good.append(mask)
        latency = np.concatenate(latency)
        window_of = ((np.concatenate(answered_due) - start)
                     / PACED_WINDOW_S).astype(int)
        latency_ms = latency * 1000.0
        windows = [(window, latency_ms[window_of == window].tolist())
                   for window in range(window_of.max() + 1)]
        wall = end - start
        return Measurement(
            wall_s=wall, passes=1, rows=rows,
            rows_per_s=rows.answered / wall,
            raw_rows_per_s=rows.answered / wall,
            windows_ms=[samples for _, samples in windows if samples],
            rows_within_limit=int(
                ((latency <= spec.limit_s) & np.concatenate(good)).sum()),
            pass_s=float(np.median(latency)),
            lateness_ms=lateness,
            rush_windows_ms=[
                samples for window, samples in windows if samples
                and RUSH_FROM_S <= window * PACED_WINDOW_S % RUSH_CYCLE_S
                < RUSH_TO_S])


def build(name: str) -> CameraWorkload:
    return (PacedWorkload if name == "camera-paced"
            else CameraWorkload)(SPECS[name])
