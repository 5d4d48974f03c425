"""A pan-tilt-zoom camera environment for incident tracking.

The paper's DRL example: "smart camera controls to automatically rotate
and zoom in for traffic and crime incidents".  The environment is a unit
square containing a drifting incident; the agent steers a PTZ camera whose
field of view shrinks as zoom rises.  Reward favours keeping the incident
in view at high zoom — wide shots are safe but low-value, tight shots are
high-value but easy to lose.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.runtime.core import get_runtime

#: Discrete actions.
ACTIONS = ("pan_left", "pan_right", "tilt_up", "tilt_down",
           "zoom_in", "zoom_out", "hold")


class PTZCameraEnv:
    """Unit-square PTZ tracking task with a random-walking incident.

    State (observation): ``[cam_x, cam_y, zoom_norm, dx, dy]`` where
    ``(dx, dy)`` is the incident offset from the camera center — the
    tracker's detection output in a real deployment.

    Reward per step: ``zoom_level`` when the incident is inside the field
    of view, else ``-0.2``.
    """

    MAX_ZOOM = 3
    PAN_STEP = 0.1

    def __init__(self, episode_length: int = 40, incident_speed: float = 0.03,
                 seed: int = 0):
        if episode_length < 1:
            raise ValueError(f"episode_length must be >= 1: {episode_length}")
        self.episode_length = episode_length
        self.incident_speed = incident_speed
        self._rng = get_runtime().rng.np_child("apps.drl.env", seed)
        self.num_actions = len(ACTIONS)
        self.observation_dim = 5
        self._steps = 0
        self.cam = np.array([0.5, 0.5])
        self.zoom = 0
        self.incident = np.array([0.5, 0.5])

    # -- mechanics -------------------------------------------------------------
    def fov_half_width(self) -> float:
        """Half-width of the field of view at the current zoom."""
        return 0.4 / (2 ** self.zoom)

    def incident_visible(self) -> bool:
        half = self.fov_half_width()
        return bool((np.abs(self.incident - self.cam) <= half).all())

    def _observe(self) -> np.ndarray:
        offset = self.incident - self.cam
        return np.array([self.cam[0], self.cam[1],
                         self.zoom / self.MAX_ZOOM, offset[0], offset[1]])

    def reset(self) -> np.ndarray:
        """Centre the camera, zoom out and place a new incident at random."""
        self._steps = 0
        self.cam = np.array([0.5, 0.5])
        self.zoom = 0
        self.incident = self._rng.random(2)
        return self._observe()

    def step(self, action: int) -> Tuple[np.ndarray, float, bool]:
        """Apply an action; returns (observation, reward, done)."""
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action out of range: {action}")
        name = ACTIONS[action]
        if name == "pan_left":
            self.cam[0] -= self.PAN_STEP
        elif name == "pan_right":
            self.cam[0] += self.PAN_STEP
        elif name == "tilt_up":
            self.cam[1] += self.PAN_STEP
        elif name == "tilt_down":
            self.cam[1] -= self.PAN_STEP
        elif name == "zoom_in":
            self.zoom = min(self.zoom + 1, self.MAX_ZOOM)
        elif name == "zoom_out":
            self.zoom = max(self.zoom - 1, 0)
        self.cam = np.clip(self.cam, 0.0, 1.0)

        # Incident drifts.
        self.incident = np.clip(
            self.incident + self._rng.normal(0, self.incident_speed, 2),
            0.0, 1.0)

        reward = float(self.zoom) if self.incident_visible() else -0.2
        if self.zoom == 0 and self.incident_visible():
            reward = 0.1  # wide shots are weakly rewarded
        self._steps += 1
        done = self._steps >= self.episode_length
        return self._observe(), reward, done
