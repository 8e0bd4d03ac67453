"""Multi-objective policy optimization along minimum-norm common ascent directions.

The package trains a population of stochastic policies on vector-reward
control problems, steering each selected policy along the minimum-norm
convex combination of its per-objective policy gradients, and maintains a
non-dominated archive scored by exact hypervolume and sparsity.
"""

from .archive import NonDominatedSet, PolicyEntry, hypervolume, sparsity
from .config import ConfigError, EvolutionConfig, PolicyConfig, resolve_config
from .evolution import Trainer, evenly_spread_weights, paft_select, pgr_select
from .momdp import MOMDPSpec, make_env, mo_return
from .pareto import (
    AscentResult,
    analytic_two_objective_alpha,
    min_norm_direction,
    project_to_simplex,
)
from .policy import (
    GaussianPolicy,
    RolloutBatch,
    VectorCritic,
    collect_batch,
    estimate_gradient_set,
    gae,
    ppo_update,
)

__version__ = "0.1.0"

__all__ = [
    "AscentResult",
    "ConfigError",
    "EvolutionConfig",
    "GaussianPolicy",
    "MOMDPSpec",
    "NonDominatedSet",
    "PolicyConfig",
    "PolicyEntry",
    "RolloutBatch",
    "Trainer",
    "VectorCritic",
    "analytic_two_objective_alpha",
    "collect_batch",
    "estimate_gradient_set",
    "evenly_spread_weights",
    "gae",
    "hypervolume",
    "make_env",
    "min_norm_direction",
    "mo_return",
    "paft_select",
    "pgr_select",
    "ppo_update",
    "project_to_simplex",
    "resolve_config",
    "sparsity",
]
