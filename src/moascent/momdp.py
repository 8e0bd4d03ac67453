"""Vector-reward decision processes and the built-in desk-scale environments.

Environments here are pure: ``reset(seed)`` returns the initial state and
``step(states, actions)`` returns ``(next_states, rewards, terminal)``
without touching shared mutable state. ``step`` works on any number of
leading batch axes, so one call advances a whole batch of episodes in
lockstep; rewards carry exactly ``num_objectives`` components on the last
axis. The horizon is enforced by the rollout, ``policy.run_episode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MOMDPSpec",
    "MoPoint",
    "MoQuadratic",
    "make_env",
    "mo_return",
]


def _finite(name: str, value) -> float:
    """``value`` as a float; a bool, a non-number or a non-finite number is rejected by name."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _ranged(name: str, value, ok, expected: str) -> float:
    """``value`` as a finite float meeting ``ok``; anything else is rejected by name."""
    value = _finite(name, value)
    if not ok(value):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


@dataclass(frozen=True)
class MOMDPSpec:
    """Static description of a vector-reward control problem."""

    state_dim: int
    action_dim: int
    num_objectives: int
    horizon: int
    gamma: float
    action_low: np.ndarray
    action_high: np.ndarray

    def __post_init__(self):
        if self.state_dim < 1 or self.action_dim < 1:
            raise ValueError("state_dim and action_dim must be positive")
        if self.num_objectives < 2:
            raise ValueError(f"need at least 2 objectives, got {self.num_objectives}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)):
            raise ValueError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 < _finite("gamma", self.gamma) <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        low = np.asarray(self.action_low, dtype=float)
        high = np.asarray(self.action_high, dtype=float)
        if low.shape != (self.action_dim,) or high.shape != (self.action_dim,):
            raise ValueError("action bounds must have shape (action_dim,)")
        if np.any(low >= high):
            raise ValueError("action_low must be strictly below action_high")
        object.__setattr__(self, "action_low", low)
        object.__setattr__(self, "action_high", high)


def mo_return(rewards, gamma: float) -> np.ndarray:
    """Per-objective discounted reward sum over the step axis of ``(..., T, m)`` rewards."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim < 2 or rewards.shape[-2] == 0:
        raise ValueError("cannot compute the return of an empty episode")
    discounts = gamma ** np.arange(rewards.shape[-2])
    return discounts @ rewards


class MOMDPEnv:
    """Base class for the built-in environments."""

    spec: MOMDPSpec

    def clamp(self, action) -> np.ndarray:
        """Clip ``(..., action_dim)`` actions into the spec's bounds, rejecting non-finite input."""
        action = np.asarray(action, dtype=float)
        if action.shape[-1:] != (self.spec.action_dim,):
            raise ValueError(
                f"action must have shape (..., {self.spec.action_dim}), got {action.shape}"
            )
        if not np.all(np.isfinite(action)):
            raise ValueError(f"non-finite action rejected: {action!r}")
        return np.clip(action, self.spec.action_low, self.spec.action_high)

    def reset(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def step(self, state, action) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance ``(..., state_dim)`` states under ``(..., action_dim)`` actions.

        Returns the next states, the ``(..., num_objectives)`` rewards and the
        boolean terminal flags of shape ``(...)``.
        """
        raise NotImplementedError


class MoPoint(MOMDPEnv):
    """Planar point mass trading forward speed against actuation energy.

    State is ``[x, y, vx, vy]``; the action is a 2-D acceleration command.
    Dynamics are a damped double integrator:

        v' = damping * v + dt * a        x' = x + dt * v'

    Rewards per step (the alive bonus is granted on every step; episodes
    end only at the horizon):

        speed  = vx' + r_alive
        energy = -sum(a_i^2) + r_alive + shift

    where ``shift`` moves the energy reward into the positive range. The
    initial state draws the position uniformly from
    ``[-init_noise, init_noise]^2``; the velocity always starts at zero, so
    two seeds differ only in the position components.
    """

    def __init__(
        self,
        horizon: int = 64,
        gamma: float = 0.99,
        dt: float = 0.1,
        damping: float = 0.95,
        r_alive: float = 1.0,
        shift: float = 2.0,
        init_noise: float = 0.1,
        action_bound: float = 1.0,
    ):
        self.dt = _ranged("dt", dt, lambda v: v > 0, "> 0")
        self.damping = _ranged("damping", damping, lambda v: 0 <= v <= 1, "in [0, 1]")
        self.r_alive = _finite("r_alive", r_alive)
        self.shift = _finite("shift", shift)
        self.init_noise = _ranged("init_noise", init_noise, lambda v: v >= 0, ">= 0")
        action_bound = _ranged("action_bound", action_bound, lambda v: v > 0, "> 0")
        self.spec = MOMDPSpec(
            state_dim=4,
            action_dim=2,
            num_objectives=2,
            horizon=horizon,
            gamma=gamma,
            action_low=np.full(2, -action_bound),
            action_high=np.full(2, action_bound),
        )

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        position = rng.uniform(-self.init_noise, self.init_noise, size=2)
        return np.concatenate([position, np.zeros(2)])

    def step(self, state, action):
        state = np.asarray(state, dtype=float)
        a = self.clamp(action)
        velocity = self.damping * state[..., 2:] + self.dt * a
        position = state[..., :2] + self.dt * velocity
        speed = velocity[..., 0] + self.r_alive
        energy = -np.sum(a * a, axis=-1) + self.r_alive + self.shift
        next_state = np.concatenate([position, velocity], axis=-1)
        return next_state, np.stack([speed, energy], axis=-1), np.zeros(state.shape[:-1], bool)

    def return_lower_bound(self) -> np.ndarray:
        """Per-objective lower bound on the discounted return of any episode."""
        # From rest, |vx| after step t is at most dt * bound * sum_{k<=t} damping^k,
        # and each clamped action costs at most action_dim * bound^2 energy.
        bound = self.spec.action_high[0]
        steps = np.arange(self.spec.horizon)
        discounts = self.spec.gamma ** steps
        reach = self.dt * bound * np.cumsum(self.damping ** steps)
        energy = -self.spec.action_dim * bound**2 + self.r_alive + self.shift
        return np.array([discounts @ (self.r_alive - reach), discounts.sum() * energy])


class MoQuadratic(MOMDPEnv):
    """Single-step environment with one quadratic objective per target.

    The action is a point in the plane; objective ``i`` pays the negative
    squared distance to target ``c_i``. The frontier is the image of the
    convex hull of the targets: for simplex weights ``w`` the action
    ``sum_i w_i c_i`` maximizes the weighted reward, which makes the exact
    frontier available in closed form for oracle checks. The initial state
    is the origin, independent of the seed.
    """

    def __init__(self, targets, action_bound: float = 1.5, gamma: float = 1.0):
        targets = np.asarray(targets, dtype=object)
        if targets.ndim != 2 or targets.shape[0] < 2:
            raise ValueError(f"need at least two targets, got shape {targets.shape}")
        targets = np.array([_finite("targets", v) for v in targets.flat]).reshape(targets.shape)
        action_bound = _ranged("action_bound", action_bound, lambda v: v > 0, "> 0")
        self.targets = targets
        self.spec = MOMDPSpec(
            state_dim=1,
            action_dim=targets.shape[1],
            num_objectives=targets.shape[0],
            horizon=1,
            gamma=gamma,
            action_low=np.full(targets.shape[1], -action_bound),
            action_high=np.full(targets.shape[1], action_bound),
        )

    def reset(self, seed: int) -> np.ndarray:
        return np.zeros(1)

    def step(self, state, action):
        a = self.clamp(action)
        diffs = a[..., None, :] - self.targets
        reward = -np.einsum("...ij,...ij->...i", diffs, diffs)
        batch = a.shape[:-1]
        return np.zeros(batch + (1,)), reward, np.ones(batch, bool)

    def return_lower_bound(self) -> np.ndarray:
        """Per-objective lower bound on the return of any episode."""
        # One step; each objective is lowest at the action-box corner farthest from its target.
        return -np.sum((self.spec.action_high + np.abs(self.targets)) ** 2, axis=1)


_DEFAULT_TARGETS_2 = ((1.0, 0.0), (0.0, 1.0))
_DEFAULT_TARGETS_3 = (
    (1.0, 0.0),
    (-0.5, math.sqrt(3.0) / 2.0),
    (-0.5, -math.sqrt(3.0) / 2.0),
)


def _make_quadratic(default_targets, params) -> MoQuadratic:
    params = dict(params)
    targets = params.pop("targets", default_targets)
    return MoQuadratic(targets=targets, **params)


ENV_BUILDERS = {
    "mo_point": lambda **p: MoPoint(**p),
    "mo_quadratic": lambda **p: _make_quadratic(_DEFAULT_TARGETS_2, p),
    "mo_quadratic3": lambda **p: _make_quadratic(_DEFAULT_TARGETS_3, p),
}

#: Reference points strictly below ``return_lower_bound`` of the default
#: environments; ``resolve_config`` checks them against the actual params.
DEFAULT_REFERENCE_POINTS = {
    "mo_point": (-50.0, 0.0),
    "mo_quadratic": (-9.0, -9.0),
    "mo_quadratic3": (-10.0, -10.0, -10.0),
}


def make_env(name: str, **params) -> MOMDPEnv:
    """Instantiate a built-in environment by name."""
    try:
        builder = ENV_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(ENV_BUILDERS))
        raise ValueError(f"unknown environment {name!r}; known environments: {known}") from None
    return builder(**params)
