"""Minimum-norm common ascent directions over the probability simplex.

Given one gradient per objective, the minimum-norm point of their convex
hull is a direction that (when nonzero) improves every objective at once.
This module solves that small quadratic program exactly in Gram-matrix
space, face by face of the simplex, and provides the closed-form
two-objective solution and the Euclidean projection onto the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "AscentResult",
    "analytic_two_objective_alpha",
    "min_norm_direction",
    "project_to_simplex",
    "validate_weights",
]


def validate_weights(w) -> np.ndarray:
    """Check that ``w`` lies on the probability simplex within 1e-6.

    Returns a cleaned copy (negatives clipped, renormalized). Raises
    ``ValueError`` when the input is off the simplex beyond that tolerance.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weight vector must be 1-D and non-empty, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight vector has non-finite entries")
    if w.min() < -1e-6 or abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(
            f"weights off the simplex beyond tolerance 1e-06: sum={w.sum()!r}, min={w.min()!r}"
        )
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    Returns the unique ``w`` with ``w >= 0`` and ``sum(w) == 1`` minimizing
    ``||w - v||_2``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a vector with non-finite entries")
    # Sort and threshold: keep the largest entries that stay positive after the shift.
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u + (1.0 - css) / idx > 0)[0][-1]) + 1
    tau = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - tau, 0.0)


@dataclass(frozen=True)
class AscentResult:
    """Solution of the minimum-norm convex-combination problem.

    ``direction`` is the alpha-weighted combination of the gradient rows;
    ``stationary`` is True when its squared norm is at or below the
    scale-aware tolerance ``1e-8 * (1 + max_i ||g_i||^2)`` (no common ascent
    direction exists to first order).
    """

    alpha: np.ndarray
    direction: np.ndarray
    squared_norm: float
    stationary: bool


def min_norm_direction(grads) -> AscentResult:
    """Minimize ``||sum_i alpha_i g_i||^2`` over the probability simplex.

    ``grads`` is an (m, d) matrix with one gradient per row, m >= 2. The
    minimizer lies in the relative interior of some face of the simplex, so
    every face is solved exactly and the best candidate kept: each edge by
    the clamped closed form :func:`analytic_two_objective_alpha` (which also
    covers the vertices), each larger face by its equality-constrained
    stationary point, kept only when all its weights are positive. Two
    objectives are therefore exactly the closed form.
    """
    G = np.asarray(grads, dtype=float)
    if G.ndim != 2 or G.shape[0] < 2:
        raise ValueError(f"expected an (m, d) gradient matrix with m >= 2, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise ValueError("gradient matrix has non-finite entries")

    K = G @ G.T
    K = 0.5 * (K + K.T)  # guard against asymmetric rounding
    alpha = min(_face_candidates(G, K), key=lambda w: float(w @ K @ w))
    direction = G.T @ alpha
    squared_norm = float(direction @ direction)
    return AscentResult(
        alpha=alpha,
        direction=direction,
        squared_norm=squared_norm,
        stationary=squared_norm <= 1e-8 * (1.0 + float(K.diagonal().max())),
    )


def _face_candidates(G: np.ndarray, K: np.ndarray):
    """The minimizer of ``w^T K w`` on each face of the simplex, where it is interior.

    Faces with three or more vertices solve the bordered KKT system
    ``[[K_F, 1], [1^T, 0]] [w; lam] = [0; 1]``; a singular system has no
    isolated minimizer there, and a smaller face holds one.
    """
    m = G.shape[0]
    for i, j in combinations(range(m), 2):
        a = analytic_two_objective_alpha(G[i], G[j])
        w = np.zeros(m)
        w[i], w[j] = a, 1.0 - a
        yield w
    for size in range(3, m + 1):
        for face in combinations(range(m), size):
            face = list(face)
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = K[np.ix_(face, face)]
            kkt[size, size] = 0.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                solution = np.linalg.solve(kkt, rhs)[:size]
            except np.linalg.LinAlgError:
                continue
            if np.all(solution > 0.0):
                w = np.zeros(m)
                # Renormalized, so an ill-conditioned solve still yields a simplex point.
                w[face] = solution / solution.sum()
                yield w


def analytic_two_objective_alpha(g1, g2) -> float:
    """Closed-form weight of ``g1`` in the two-objective minimum-norm problem.

    The minimizer of ``||a g1 + (1 - a) g2||^2`` over ``a in [0, 1]`` is the
    unconstrained optimum ``((g2 - g1) . g2) / ||g1 - g2||^2`` clamped to the
    unit interval. When ``||g1 - g2|| < 1e-12`` any weight is optimal and the
    symmetric value 0.5 is returned.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape or g1.ndim != 1:
        raise ValueError(f"expected two 1-D vectors of equal length, got {g1.shape} and {g2.shape}")
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise ValueError("gradients have non-finite entries")
    diff = g1 - g2
    denom = float(diff @ diff)
    if denom < 1e-24:  # ||g1 - g2|| < 1e-12
        return 0.5
    a = float((g2 - g1) @ g2) / denom
    return min(max(a, 0.0), 1.0)

