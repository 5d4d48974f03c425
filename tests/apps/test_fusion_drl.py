"""Tests for multimodal gunshot fusion (Sec. III-C) and DQN camera control
(Sec. III-D)."""

import numpy as np
import pytest

from repro.apps.drl import (
    DQNAgent,
    PTZCameraEnv,
    ReplayBuffer,
    evaluate_policy,
    random_policy,
    static_policy,
)
from repro.apps.drl.dqn import REPLAY_CAPACITY, TARGET_SYNC_EVERY
from repro.apps.fusion import GunshotEventGenerator, GunshotFusionApp


class TestGunshotGenerator:
    def test_sample_shapes(self):
        generator = GunshotEventGenerator(seed=0)
        audio, video = generator.sample(0)
        assert audio.shape == (20,)
        assert video.shape == (16,)

    def test_dataset_binary_labels(self):
        audio, video, labels = GunshotEventGenerator(seed=0).dataset(10)
        assert len(labels) == 30
        assert labels.sum() == 10  # one class in three is a gunshot

    def test_confuser_structure(self):
        # Per-class means over many noisy samples recover the prototypes:
        # fireworks share the flash, backfire shares the impulse.
        generator = GunshotEventGenerator(seed=0)

        def mean_sample(label):
            audio, video = zip(*(generator.sample(label) for _ in range(200)))
            return np.mean(audio, axis=0), np.mean(video, axis=0)

        gun_audio, gun_video = mean_sample(0)
        fw_audio, fw_video = mean_sample(1)
        bf_audio, bf_video = mean_sample(2)
        np.testing.assert_allclose(gun_video, fw_video, atol=0.12)
        np.testing.assert_allclose(gun_audio, bf_audio, atol=0.12)
        assert not np.allclose(gun_audio, fw_audio, atol=0.12)
        assert not np.allclose(gun_video, bf_video, atol=0.12)

    def test_validates(self):
        with pytest.raises(ValueError):
            GunshotEventGenerator().sample(5)
        with pytest.raises(ValueError):
            GunshotEventGenerator().dataset(0)


class TestGunshotFusion:
    @pytest.fixture(scope="class")
    def results(self):
        return GunshotFusionApp(seed=0).run(
            train_per_class=50, test_per_class=30, ae_epochs=120)

    def test_single_modalities_are_confused(self, results):
        # Each modality alone cannot beat ~5/6 accuracy: its confuser class
        # is indistinguishable (up to noise) in that modality.
        assert results["audio_only"] < 0.9
        assert results["video_only"] < 0.9

    def test_fusion_beats_single_modalities(self, results):
        best_single = max(results["audio_only"], results["video_only"])
        assert results["ae_fusion"] > best_single
        assert results["cca_fusion"] > best_single

    def test_fusion_is_accurate(self, results):
        assert results["ae_fusion"] > 0.85
        assert results["cca_fusion"] > 0.7  # linear/unsupervised: weaker

    def test_missing_modality_degrades_gracefully(self):
        report = GunshotFusionApp(seed=1).missing_modality_accuracy(
            train_per_class=50, test_per_class=30, ae_epochs=120)
        assert report["both"] >= report["audio_missing_video"] - 0.05
        assert report["both"] >= report["video_missing_audio"] - 0.05
        # degraded, but still above chance (0.5 for the binary label)
        assert report["audio_missing_video"] > 0.5


class TestPTZEnv:
    def test_reset_returns_observation(self):
        env = PTZCameraEnv(seed=0)
        obs = env.reset()
        assert obs.shape == (5,)
        assert env.zoom == 0

    def test_fov_shrinks_with_zoom(self):
        env = PTZCameraEnv(seed=0)
        env.reset()
        wide = env.fov_half_width()
        env.step(4)  # zoom_in
        assert env.fov_half_width() == wide / 2

    def test_zoom_bounds(self):
        env = PTZCameraEnv(seed=0)
        env.reset()
        for _ in range(10):
            env.step(4)
        assert env.zoom == env.MAX_ZOOM
        for _ in range(10):
            env.step(5)
        assert env.zoom == 0

    def test_pan_moves_camera_and_clips(self):
        env = PTZCameraEnv(seed=0)
        env.reset()
        for _ in range(20):
            env.step(0)  # pan_left
        assert env.cam[0] == 0.0

    def test_episode_terminates(self):
        env = PTZCameraEnv(episode_length=5, seed=0)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done = env.step(6)
            steps += 1
        assert steps == 5

    def test_reward_favours_zoomed_visible(self):
        env = PTZCameraEnv(seed=0, incident_speed=0.0)
        env.reset()
        env.incident = np.array([0.5, 0.5])
        env.zoom = env.MAX_ZOOM
        _, reward_zoomed, _ = env.step(6)
        env.reset()
        env.incident = np.array([0.5, 0.5])
        _, reward_wide, _ = env.step(6)
        assert reward_zoomed > reward_wide

    def test_reward_penalizes_losing_incident(self):
        env = PTZCameraEnv(seed=0, incident_speed=0.0)
        env.reset()
        env.incident = np.array([0.95, 0.95])
        env.zoom = env.MAX_ZOOM  # tiny fov at center: incident lost
        _, reward, _ = env.step(6)
        assert reward == -0.2

    def test_invalid_action(self):
        env = PTZCameraEnv(seed=0)
        env.reset()
        with pytest.raises(ValueError):
            env.step(99)

    def test_validates_params(self):
        with pytest.raises(ValueError):
            PTZCameraEnv(episode_length=0)


class TestReplayBuffer:
    def test_push_and_sample(self):
        buffer = ReplayBuffer(seed=0)
        for i in range(10):
            buffer.push(np.zeros(3), i % 2, float(i), np.ones(3), False)
        states, actions, rewards, next_states, dones = buffer.sample(4)
        assert states.shape == (4, 3)
        assert len(actions) == 4

    def test_capacity_evicts_oldest(self):
        buffer = ReplayBuffer(seed=0)
        for i in range(REPLAY_CAPACITY + 2):
            buffer.push(np.array([i]), 0, 0.0, np.array([i]), False)
        assert len(buffer) == REPLAY_CAPACITY
        states = buffer.sample(REPLAY_CAPACITY)[0]
        assert states.min() == 2       # the two oldest went first

    def test_sample_validates(self):
        buffer = ReplayBuffer(seed=0)
        with pytest.raises(ValueError):
            buffer.sample(1)


class TestDQN:
    def test_epsilon_decays(self):
        agent = DQNAgent(5, 7, epsilon_decay_steps=10)
        assert agent.epsilon == 1.0
        agent._step = 10
        assert agent.epsilon == pytest.approx(0.05)

    def test_act_returns_valid_action(self):
        agent = DQNAgent(5, 7, seed=0)
        action = agent.act(np.zeros(5), greedy=True)
        assert 0 <= action < 7

    def test_learn_updates_network(self):
        agent = DQNAgent(5, 7, seed=0)
        buffer = ReplayBuffer(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            buffer.push(rng.random(5), int(rng.integers(7)),
                        float(rng.random()), rng.random(5), False)
        before = [p.data.copy() for p in agent.q.parameters()]
        agent.learn(buffer.sample(16))
        changed = any(not np.allclose(b, p.data)
                      for b, p in zip(before, agent.q.parameters()))
        assert changed

    def test_target_sync(self):
        agent = DQNAgent(5, 7, seed=0)
        agent._step = TARGET_SYNC_EVERY - 1   # the next step syncs
        buffer = ReplayBuffer(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            buffer.push(rng.random(5), int(rng.integers(7)),
                        float(rng.random()), rng.random(5), False)
        agent.learn(buffer.sample(16))
        for q_param, t_param in zip(agent.q.parameters(),
                                    agent.target.parameters()):
            np.testing.assert_allclose(q_param.data, t_param.data)

    def test_trained_agent_beats_baselines(self):
        env = PTZCameraEnv(episode_length=30, incident_speed=0.01, seed=0)
        agent = DQNAgent(env.observation_dim, env.num_actions,
                         hidden=24, lr=3e-3, epsilon_decay_steps=1200,
                         seed=0)
        agent.train(env, episodes=50, batch_size=32, warmup=100)
        eval_env = PTZCameraEnv(episode_length=30, incident_speed=0.01,
                                seed=42)
        trained = evaluate_policy(eval_env, agent.policy(), episodes=10)
        rand = evaluate_policy(eval_env, random_policy(env.num_actions),
                               episodes=10)
        static = evaluate_policy(eval_env, static_policy(), episodes=10)
        assert trained > rand
        assert trained > static
