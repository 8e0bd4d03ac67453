"""Vector-reward decision processes and the built-in desk-scale environments.

Environments here are pure: they return new arrays and touch no shared
mutable state. ``MOMDPEnv`` states their contract. A rollout composes
its pieces itself: it clamps each step's actions, calls ``transition``,
checks all its actions once after its last step, and scores the whole
trajectory with one ``rewards`` call. The test suite's ``env_step``
(``tests/oracles.py``) is the reference composition of one step. Every
episode runs the spec's horizon, and the spec alone says how it ends.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MOMDPSpec",
    "MoPoint",
    "MoQuadratic",
    "make_env",
    "mo_return",
]


# A number in exponent form: sign, integer digits, fraction, exponent sign, exponent.
_EXPONENT_FORM = re.compile(r"([-+]?)([0-9_]*)(\.[0-9_]*)?[eE]([-+]?)([0-9]+)")


def yaml_text_note(value) -> str:
    """A note for a rejected config ``value`` that is text ``float()`` reads, else "".

    YAML 1.1, which configs are read with, takes exponent form as a float
    only with a decimal point and a signed exponent: ``1e-3`` and ``1.0e3``
    are text, ``1.0e-3`` is a number. The note says so and spells the
    number; the text is not converted, so a config keeps one way to write a
    number.
    """
    if not isinstance(value, str):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    form = _EXPONENT_FORM.fullmatch(value.strip())
    if form is None:
        return " (YAML read it as text)"
    sign, whole, fraction, exp_sign, exponent = form.groups()
    return (f" (YAML read it as text: write it as "
            f"{sign}{whole or '0'}{fraction or '.0'}e{exp_sign or '+'}{exponent})")


def _finite(name: str, value) -> float:
    """``value`` as a float; a bool, a non-number or a non-finite number is rejected by name."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}{yaml_text_note(value)}")
    return float(value)


def _ranged(name: str, value, ok, expected: str) -> float:
    """``value`` as a finite float meeting ``ok``; anything else is rejected by name."""
    value = _finite(name, value)
    if not ok(value):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


@dataclass(frozen=True)
class MOMDPSpec:
    """Static description of a vector-reward control problem.

    Every action dimension has the box ``[-action_bound, action_bound]``.
    """

    state_dim: int
    action_dim: int
    num_objectives: int
    horizon: int
    gamma: float
    action_bound: float
    truncated: bool  # the horizon is a time limit (GAE bootstraps), not a true end

    def __post_init__(self):
        object.__setattr__(self, "action_bound",
                           _ranged("action_bound", self.action_bound, lambda v: v > 0, "> 0"))
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


def mo_return(rewards, gamma: float) -> np.ndarray:
    """Per-objective discounted reward sum over the step axis of ``(..., T, m)`` rewards."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim < 2 or rewards.shape[-2] == 0:
        raise ValueError("cannot compute the return of an empty episode")
    discounts = gamma ** np.arange(rewards.shape[-2])
    return discounts @ rewards


class MOMDPEnv:
    """Base class for the built-in environments.

    An environment is ``reset``, ``transition``, ``rewards``, ``clamp`` and
    ``return_lower_bound``; the first four take any number of leading batch
    axes. A subclass sets ``spec``, whose ``truncated`` states how its
    episodes end and whose ``action_bound`` states its action box, and
    implements every piece but ``clamp``.
    """

    spec: MOMDPSpec

    def clamp(self, action) -> np.ndarray:
        """Only clip ``(..., action_dim)`` actions, cast to float64 first, into the
        spec's box ``[-action_bound, action_bound]``; callers check them."""
        bound = self.spec.action_bound
        return np.asarray(action, dtype=float).clip(-bound, bound)

    def reset(self, seeds) -> np.ndarray:
        """Initial states of one episode per seed, ``shape(seeds) + (state_dim,)``.

        ``seeds`` is a non-negative int or integer array; a start state
        depends only on its own seed.
        """
        raise NotImplementedError

    def transition(self, state, action) -> np.ndarray:
        """The next ``(..., state_dim)`` states from ``state`` under clamped ``action``."""
        raise NotImplementedError

    def rewards(self, state, action, next_state) -> np.ndarray:
        """The ``(..., num_objectives)`` rewards of the steps ``state -> next_state``.

        ``action`` is the clamped action of each step; the leading axes may
        be a whole trajectory's. The result is a new array, laid out in the
        order of the leading axes whatever the strides of the inputs.
        """
        raise NotImplementedError

    def return_lower_bound(self) -> np.ndarray:
        """The ``(num_objectives,)`` floor of every episode's discounted return.

        No episode returns less on any objective, whatever its start state
        and its raw actions; a config's reference point must lie strictly
        below it.
        """
        raise NotImplementedError


# SplitMix64's state increments for a seed's first two outputs, then its
# mixing constants and shifts, as uint64 so no operand is a Python int.
_INCREMENTS = np.array([1, 2], dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))


class MoPoint(MOMDPEnv):
    """Planar point mass trading forward speed against actuation energy.

    State is ``[x, y, vx, vy]``; the action is a 2-D acceleration command.
    Dynamics are a damped double integrator:

        v' = damping * v + dt * a        x' = x + dt * v'

    Rewards per step (the alive bonus is granted on every step; the
    horizon is a time limit, so the spec is ``truncated``):

        speed  = vx' + r_alive
        energy = -sum(a_i^2) + r_alive + shift

    where ``shift`` moves the energy reward into the positive range. A
    seed's start position is uniform on ``[-init_noise, init_noise]^2``:
    coordinate ``i`` is ``-init_noise + 2 * init_noise * u``, ``u`` the top
    53 bits of the seed's ``i``-th SplitMix64 output (Steele, Lea & Flood,
    OOPSLA 2014) in [0, 1). The velocity starts at zero. A seed that is not
    a non-negative integer below ``2**64`` is rejected.
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
        self.spec = MOMDPSpec(
            state_dim=4,
            action_dim=2,
            num_objectives=2,
            horizon=horizon,
            gamma=gamma,
            action_bound=action_bound,
            truncated=True,
        )

    def reset(self, seeds) -> np.ndarray:
        seeds = np.asarray(seeds)
        bad = seeds[seeds < 0] if seeds.dtype.kind in "iu" else seeds.ravel()
        if bad.size:
            raise ValueError(f"seed {bad.tolist()[0]!r} is not a non-negative integer below 2**64")
        # Each seed's first two SplitMix64 outputs, in one (seeds, 2) array:
        # uint64 arithmetic wraps silently on arrays, but warns on 0-d scalars.
        z = seeds.astype(np.uint64).reshape(-1, 1) + _INCREMENTS
        z ^= z >> _U30
        z *= _MIX1
        z ^= z >> _U27
        z *= _MIX2
        z ^= z >> _U31
        u = (z >> _U11) * 2.0**-53
        states = np.zeros(seeds.shape + (4,))
        states[..., :2] = (-self.init_noise + 2 * self.init_noise * u).reshape(seeds.shape + (2,))
        return states

    def transition(self, state, action):
        velocity = self.damping * state[..., 2:] + self.dt * action
        position = state[..., :2] + self.dt * velocity
        return np.concatenate([position, velocity], axis=-1)

    def rewards(self, state, action, next_state):
        rewards = np.empty(next_state.shape[:-1] + (2,))
        rewards[..., 0] = next_state[..., 2] + self.r_alive
        # a_x^2 + a_y^2 is what np.sum over the two components adds, without
        # its inner loop of two per step.
        ax, ay = action[..., 0], action[..., 1]
        rewards[..., 1] = -(ax * ax + ay * ay) + self.r_alive + self.shift
        return rewards

    def return_lower_bound(self) -> np.ndarray:
        # From rest, |vx| after step t is at most dt * bound * sum_{k<=t} damping^k,
        # and each clamped action costs at most action_dim * bound^2 energy.
        bound = self.spec.action_bound
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
    is the origin, independent of the seed. An episode truly ends after its
    one step: the spec is not ``truncated``.
    """

    def __init__(self, targets, action_bound: float = 1.5, gamma: float = 1.0):
        targets = np.asarray(targets, dtype=object)
        if targets.ndim != 2 or targets.shape[0] < 2:
            raise ValueError(f"need at least two targets, got shape {targets.shape}")
        targets = np.array([_finite("targets", v) for v in targets.flat]).reshape(targets.shape)
        self.targets = targets
        self.spec = MOMDPSpec(
            state_dim=1,
            action_dim=targets.shape[1],
            num_objectives=targets.shape[0],
            horizon=1,
            gamma=gamma,
            action_bound=action_bound,
            truncated=False,
        )

    def reset(self, seeds) -> np.ndarray:
        return np.zeros(np.shape(seeds) + (1,))

    def transition(self, state, action):
        return np.zeros(action.shape[:-1] + (1,))

    def rewards(self, state, action, next_state):
        # Into a C-order buffer, so the rewards follow the leading axes' order.
        diffs = np.subtract(action[..., None, :], self.targets,
                            out=np.empty(action.shape[:-1] + self.targets.shape))
        return -np.einsum("...ij,...ij->...i", diffs, diffs)

    def return_lower_bound(self) -> np.ndarray:
        # One step; each objective is lowest at the action-box corner farthest from its target.
        return -np.sum((self.spec.action_bound + np.abs(self.targets)) ** 2, axis=1)


_DEFAULT_TARGETS_2 = ((1.0, 0.0), (0.0, 1.0))
_DEFAULT_TARGETS_3 = (
    (1.0, 0.0),
    (-0.5, math.sqrt(3.0) / 2.0),
    (-0.5, -math.sqrt(3.0) / 2.0),
)


# name -> (environment class, the constructor arguments it gets by default, a
# reference point strictly below the return_lower_bound of those defaults;
# a Config checks the point against its own params)
ENVIRONMENTS = {
    "mo_point": (MoPoint, {}, (-50.0, 0.0)),
    "mo_quadratic": (MoQuadratic, {"targets": _DEFAULT_TARGETS_2}, (-9.0, -9.0)),
    "mo_quadratic3": (MoQuadratic, {"targets": _DEFAULT_TARGETS_3}, (-10.0, -10.0, -10.0)),
}


def make_env(name: str, **params) -> MOMDPEnv:
    """Instantiate a built-in environment by name; ``params`` override its defaults."""
    try:
        cls, defaults, _ = ENVIRONMENTS[name]
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENTS))
        raise ValueError(f"unknown environment {name!r}; known environments: {known}") from None
    try:
        return cls(**{**defaults, **params})
    except TypeError as exc:  # a keyword the constructor does not take
        raise ValueError(f"environment {name!r}: {exc}") from None
