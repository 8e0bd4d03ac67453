"""Experiment configuration: one frozen dataclass per YAML section.

Each field is declared once, with its YAML name, its default, and the
condition its value must meet; constructing a section checks every field
and raises :class:`ConfigError` naming the offending one. Constructing a
:class:`Config` then makes the checks that need the environment and fills
the values derived from it, so every ``Config`` is resolved, however it is
made (``resolve_config``, or ``dataclasses.replace`` of another).
``resolve_config`` builds one from a raw mapping. The resolved
:class:`Config`, as a plain dict, is the run's ``config.yaml``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .momdp import ENVIRONMENTS, make_env, yaml_text_note

__all__ = [
    "Config",
    "ConfigError",
    "EnvConfig",
    "EvalConfig",
    "EvolutionConfig",
    "PaftConfig",
    "PolicyConfig",
    "apply_overrides",
    "load_config",
    "parse_override",
    "resolve_config",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _int_from(low: int):
    return lambda v: _is_int(v) and v >= low


def _or_null(ok):
    return lambda v: v is None or ok(v)


def _nonempty_str(v) -> bool:
    return isinstance(v, str) and v != ""


def _knob(default, what: str, ok):
    """A config field: its default, and the condition ``ok`` (described by ``what``) it meets."""
    return field(default_factory=lambda: copy.copy(default), metadata={"what": what, "ok": ok})


def _section(cls):
    """A top-level field holding a whole section."""
    return field(metadata={"what": "a mapping", "ok": lambda v: isinstance(v, cls), "section": cls})


class _Section:
    """Checks every field of a section on construction."""

    _prefix = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.metadata["ok"](value):
                problem = "missing value" if value is None else f"invalid value {value!r}"
                raise ConfigError(f"{self._prefix}{f.name}: {problem}, expected "
                                  f"{f.metadata['what']}{yaml_text_note(value)}")


@dataclass(frozen=True)
class EnvConfig(_Section):
    """``env``: which built-in environment, and its constructor arguments."""

    _prefix = "env."
    name: str = _knob(None, "an environment name", _nonempty_str)
    params: dict = _knob({}, "a mapping with string keys",
                         lambda v: isinstance(v, dict) and all(isinstance(k, str) for k in v))


@dataclass(frozen=True)
class PolicyConfig(_Section):
    """``policy``: network size and the hyperparameters of one update iteration.

    ``hidden`` sizes both the policy's mean network and the critic.
    """

    _prefix = "policy."
    hidden: int = _knob(32, "an integer >= 0 (0 selects a linear map)", _int_from(0))
    lr: float = _knob(5e-3, "a positive number", lambda v: _is_real(v) and v > 0)
    epochs: int = _knob(4, "an integer >= 1", _int_from(1))
    batch_episodes: int = _knob(32, "an integer >= 1", _int_from(1))
    normalize_advantages: bool = _knob(True, "true or false", lambda v: isinstance(v, bool))
    optimizer: str = _knob("adam", "adam or sgd", lambda v: v in ("adam", "sgd"))


@dataclass(frozen=True)
class EvolutionConfig(_Section):
    """``evolution``: the generational loop.

    Generations count from 1 after the warm-up, and those after ``M_ft``
    split the budget between ascent updates and fine-tuning; a null ``M_ft``
    means ``max(1, M // 3)``.
    A null ``reference_point`` is the environment's default, filled by
    :class:`Config`. A null ``paft_pairs`` stays null, in ``config.yaml``
    too: ``paft_select`` takes it as ``max(0, (p // 2 - m) // 2)`` each
    generation, the pair budget left after the ``m`` per-objective extremes,
    so ``quad3.yaml`` (p=8, m=3) fills no gap pairs.
    """

    _prefix = "evolution."
    M: int = _knob(10, "an integer >= 0", _int_from(0))
    M_ft: int | None = _knob(None, "null or an integer >= 1", _or_null(_int_from(1)))
    m_iters: int = _knob(20, "an integer >= 1", _int_from(1))
    m_w: int = _knob(10, "an integer >= 0", _int_from(0))
    p: int = _knob(8, "an even integer >= 2", lambda v: _is_int(v) and v >= 2 and v % 2 == 0)
    paft_pairs: int | None = _knob(None, "null or an integer >= 0", _or_null(_int_from(0)))
    reference_point: list[float] | None = _knob(
        None, "null or a list of finite numbers",
        _or_null(lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(_is_real, v))),
    )
    snapshot_every: int = _knob(1, "an integer >= 1", _int_from(1))

    def __post_init__(self):
        super().__post_init__()
        if self.M_ft is None:
            object.__setattr__(self, "M_ft", max(1, self.M // 3))
        elif self.M >= 1 and self.M_ft > self.M:
            raise ConfigError(f"evolution.M_ft: must be <= M, got {self.M_ft} > {self.M}")


@dataclass(frozen=True)
class PaftConfig(_Section):
    """``paft``: the fine-tuning phase switch (the ablation arm turns it off)."""

    _prefix = "paft."
    enabled: bool = _knob(True, "true or false", lambda v: isinstance(v, bool))


@dataclass(frozen=True)
class EvalConfig(_Section):
    """``eval``: fixed deterministic-evaluation episodes per snapshot."""

    _prefix = "eval."
    episodes: int = _knob(8, "an integer >= 1", _int_from(1))


@dataclass(frozen=True, kw_only=True)
class Config(_Section):
    """A whole experiment: the top-level fields and one object per section.

    After the field checks, construction builds the environment and checks
    the config against it: at most 3 objectives, a population ``p`` that
    covers them, and a reference point (the environment's default when null)
    with one number per objective, each below every return the environment
    admits. ``dataclasses.replace`` re-runs these checks.
    """

    experiment: str = _knob(None, "an experiment id", _nonempty_str)
    env: EnvConfig = _section(EnvConfig)
    policy: PolicyConfig = _section(PolicyConfig)
    evolution: EvolutionConfig = _section(EvolutionConfig)
    paft: PaftConfig = _section(PaftConfig)
    eval: EvalConfig = _section(EvalConfig)
    output_dir: str = _knob("runs", "an output directory", _nonempty_str)
    seeds: list[int] = _knob(
        [0, 1, 2, 3, 4, 5], "a non-empty list of distinct integers >= 0",
        lambda v: (isinstance(v, list) and len(v) > 0
                   and all(_is_int(s) and s >= 0 for s in v) and len(set(v)) == len(v)),
    )

    def __post_init__(self):
        super().__post_init__()
        try:
            env = make_env(self.env.name, **self.env.params)
        except ValueError as exc:
            raise ConfigError(f"env: {exc}") from exc
        m = env.spec.num_objectives
        if m > 3:
            raise ConfigError("env: hypervolume metrics support at most 3 objectives")

        evo = self.evolution
        if evo.p < m:
            raise ConfigError(f"evolution.p: population {evo.p} cannot cover {m} objectives")
        z = evo.reference_point
        if z is None:
            _, _, z = ENVIRONMENTS[self.env.name]
        z = [float(v) for v in z]
        if len(z) != m:
            raise ConfigError(f"evolution.reference_point: need {m} numbers, got {z!r}")
        # Every evaluated return must strictly dominate the reference point.
        low = env.return_lower_bound()
        if not np.all(np.array(z) < low):
            raise ConfigError(
                f"evolution.reference_point: {z!r} must lie strictly below the lowest "
                f"return the environment admits, {low.tolist()!r}"
            )
        object.__setattr__(self, "evolution", replace(evo, reference_point=z))


def load_config(path) -> dict:
    """Read a YAML config file into a plain dict."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping, got {type(raw).__name__}")
    return raw


def parse_override(text: str) -> tuple[list[str], object]:
    """Split ``dotted.key=value`` into the key path and the YAML-parsed value."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like section.key=value")
    key, _, value = text.partition("=")
    path = key.strip().split(".")
    if "" in path:
        raise ConfigError(f"override {text!r} has an empty key in its path")
    try:
        parsed = yaml.safe_load(value)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {text!r} has an unparsable value: {exc}") from exc
    return path, parsed


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply ``section.key=value`` overrides (values parsed as YAML scalars)."""
    cfg = copy.deepcopy(cfg)
    for text in overrides or ():
        path, value = parse_override(text)
        node = cfg
        for part in path[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override path {'.'.join(path)} crosses a non-section value")
            node = nxt
        node[path[-1]] = value
    return cfg


def _build(cls, raw):
    """Construct ``cls`` from a mapping, rejecting unknown fields; sections recurse."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls._prefix.rstrip('.') or 'config'}: expected a mapping")
    known = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{cls._prefix}{key}: unknown configuration field")
    values = {}
    for name, f in known.items():
        if "section" in f.metadata:
            values[name] = _build(f.metadata["section"], raw.get(name, {}))
        elif name in raw:
            values[name] = raw[name]
    return cls(**values)


def resolve_config(raw: dict, overrides=()) -> Config:
    """Apply overrides and build the :class:`Config`, which checks and resolves itself.

    Dumping the result back to YAML and re-running it reproduces the run
    bit for bit.
    """
    return _build(Config, apply_overrides(raw, overrides))
