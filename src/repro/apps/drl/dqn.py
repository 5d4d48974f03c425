"""Deep Q-learning for the PTZ camera task (Sec. III-D).

A compact DQN in the Mnih et al. (2013) style the paper cites: an MLP
Q-network on :mod:`repro.nn`, an experience-replay buffer, an
epsilon-greedy behaviour policy with linear decay, and a periodically
synced target network.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Tuple

import numpy as np

from repro import nn
from repro.runtime.core import get_runtime
from repro.nn.tensor import Tensor


#: transitions a replay buffer keeps before evicting the oldest
REPLAY_CAPACITY = 5000


class ReplayBuffer:
    """Fixed-capacity experience store with uniform sampling."""

    def __init__(self, seed: int = 0):
        self._buffer: Deque[Tuple] = deque(maxlen=REPLAY_CAPACITY)
        self._rng = get_runtime().rng.child("apps.drl.dqn.replay", seed)

    def __len__(self) -> int:
        return len(self._buffer)

    def push(self, state, action: int, reward: float, next_state,
             done: bool) -> None:
        self._buffer.append((np.asarray(state), action, reward,
                             np.asarray(next_state), done))

    def sample(self, batch_size: int):
        if batch_size > len(self._buffer):
            raise ValueError(
                f"cannot sample {batch_size} from {len(self._buffer)}")
        batch = self._rng.sample(list(self._buffer), batch_size)
        states = np.stack([b[0] for b in batch])
        actions = np.array([b[1] for b in batch])
        rewards = np.array([b[2] for b in batch])
        next_states = np.stack([b[3] for b in batch])
        dones = np.array([b[4] for b in batch], dtype=float)
        return states, actions, rewards, next_states, dones


def _q_network(observation_dim: int, num_actions: int, hidden: int,
               rng: np.random.Generator) -> nn.Sequential:
    return nn.Sequential(
        nn.Linear(observation_dim, hidden, rng=rng), nn.ReLU(),
        nn.Linear(hidden, hidden, rng=rng), nn.ReLU(),
        nn.Linear(hidden, num_actions, rng=rng))


#: exploration rate before the first step and after the linear decay
EPSILON_START, EPSILON_END = 1.0, 0.05

#: the TD target's discount, and the learn steps between target syncs
GAMMA, TARGET_SYNC_EVERY = 0.95, 100


class DQNAgent:
    """DQN with target network and epsilon-greedy exploration."""

    def __init__(self, observation_dim: int, num_actions: int,
                 hidden: int = 32, lr: float = 1e-3,
                 epsilon_decay_steps: int = 2000, seed: int = 0):
        rng = get_runtime().rng.np_child("apps.drl.dqn.init", seed)
        self.q = _q_network(observation_dim, num_actions, hidden, rng)
        self.target = _q_network(observation_dim, num_actions, hidden, rng)
        self.target.load_state_dict(self.q.state_dict())
        self.optimizer = nn.Adam(self.q.parameters(), lr=lr)
        self.num_actions = num_actions
        self.epsilon_decay_steps = epsilon_decay_steps
        self._step = 0
        self._rng = get_runtime().rng.np_child("apps.drl.dqn.policy", seed)

    @property
    def epsilon(self) -> float:
        progress = min(self._step / self.epsilon_decay_steps, 1.0)
        return EPSILON_START + progress * (EPSILON_END - EPSILON_START)

    def act(self, observation: np.ndarray, greedy: bool = False) -> int:
        if not greedy and self._rng.random() < self.epsilon:
            return int(self._rng.integers(self.num_actions))
        q_values = self.q(Tensor(observation.reshape(1, -1))).data[0]
        return int(q_values.argmax())

    def learn(self, batch) -> float:
        """One gradient step on a replay batch; returns the TD loss."""
        states, actions, rewards, next_states, dones = batch
        next_q = self.target(Tensor(next_states)).data.max(axis=1)
        targets = rewards + GAMMA * next_q * (1.0 - dones)
        self.optimizer.zero_grad()
        q_values = self.q(Tensor(states))
        picked = q_values[np.arange(len(actions)), actions]
        diff = picked - Tensor(targets)
        loss = (diff * diff).mean()
        loss.backward()
        self.optimizer.clip_grad_norm(5.0)
        self.optimizer.step()
        self._step += 1
        if self._step % TARGET_SYNC_EVERY == 0:
            self.target.load_state_dict(self.q.state_dict())
        return loss.item()

    def train(self, env, episodes: int = 60, batch_size: int = 32,
              warmup: int = 200) -> List[float]:
        """Standard DQN loop; returns per-episode total rewards."""
        buffer = ReplayBuffer(seed=0)
        episode_rewards: List[float] = []
        for _ in range(episodes):
            observation = env.reset()
            total = 0.0
            done = False
            while not done:
                action = self.act(observation)
                next_observation, reward, done = env.step(action)
                buffer.push(observation, action, reward, next_observation,
                            done)
                observation = next_observation
                total += reward
                if len(buffer) >= max(batch_size, warmup):
                    self.learn(buffer.sample(batch_size))
            episode_rewards.append(total)
        return episode_rewards

    def policy(self) -> Callable[[np.ndarray], int]:
        """The greedy policy for evaluation."""
        return lambda observation: self.act(observation, greedy=True)


def random_policy(num_actions: int) -> Callable[[np.ndarray], int]:
    """Uniform random action baseline."""
    rng = get_runtime().rng.np_child("apps.drl.dqn.random_policy", 0)

    def policy(observation: np.ndarray) -> int:
        return int(rng.integers(num_actions))

    return policy


def static_policy() -> Callable[[np.ndarray], int]:
    """Fixed wide-shot camera: always hold, action 6 (the no-control
    baseline)."""
    return lambda observation: 6


def evaluate_policy(env, policy: Callable[[np.ndarray], int],
                    episodes: int = 10) -> float:
    """Mean episode reward of a policy."""
    totals = []
    for _ in range(episodes):
        observation = env.reset()
        total = 0.0
        done = False
        while not done:
            observation, reward, done = env.step(policy(observation))
            total += reward
        totals.append(total)
    return float(np.mean(totals))
