"""Minimum-norm common ascent directions over the probability simplex.

Given one gradient per objective, the minimum-norm point of their convex
hull is a direction that (when nonzero) improves every objective at once.
This module solves that small quadratic program exactly in Gram-matrix
space, face by face of the simplex, for one lane or a stack of lanes, and
provides the closed-form two-objective solution and the simplex projection.
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
    """Check that ``w``, or each row of an ``(..., m)`` stack, lies on the simplex within 1e-6.

    Returns a cleaned copy (negatives clipped, each row renormalized).
    Raises ``ValueError`` when any row is off the simplex beyond that
    tolerance.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or w.size == 0:
        raise ValueError(f"weights must be a non-empty vector or stack, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight vector has non-finite entries")
    total, low = w.sum(axis=-1), w.min(axis=-1)
    off = (low < -1e-6) | (np.abs(total - 1.0) > 1e-6)
    if np.any(off):
        raise ValueError(
            f"weights off the simplex beyond tolerance 1e-06: sum={float(total[off][0])!r}, "
            f"min={float(low[off][0])!r}"
        )
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


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
    """Solution of the minimum-norm convex-combination problem, per lane ``...``.

    ``direction`` (..., d) is the ``alpha`` (..., m) combination of the
    gradient rows; ``stationary`` is True where its ``squared_norm`` is at or
    below ``1e-8 * (1 + max_i ||g_i||^2)`` (no common ascent direction).
    """

    alpha: np.ndarray
    direction: np.ndarray
    squared_norm: np.ndarray
    stationary: np.ndarray


def min_norm_direction(grads) -> AscentResult:
    """Minimize ``||sum_i alpha_i g_i||^2`` over the probability simplex, per lane.

    ``grads`` is an (m, d) matrix with one gradient per row, m >= 2, or an
    ``(..., m, d)`` stack of them. The minimizer lies in the relative
    interior of some face of the simplex, so every face is solved exactly
    and the best candidate kept: each edge by the clamped closed form
    :func:`analytic_two_objective_alpha` (which also covers the vertices),
    each larger face by its equality-constrained stationary point, kept only
    when all its weights are positive. Two objectives are therefore exactly
    the closed form. Each lane gets the bytes it gets alone.
    """
    G = np.asarray(grads, dtype=float)
    if G.ndim < 2 or G.shape[-2] < 2:
        raise ValueError(f"expected (..., m, d) gradients with m >= 2, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise ValueError("gradient matrix has non-finite entries")

    K = G @ G.swapaxes(-1, -2)
    K = 0.5 * (K + K.swapaxes(-1, -2))  # guard against asymmetric rounding
    W = _face_candidates(G, K)
    # w @ K @ w per candidate row, as a vector-matrix then a dot product.
    values = ((W[..., None, :] @ K[..., None, :, :]) @ W[..., :, None])[..., 0, 0]
    best = np.nanargmin(values, axis=-1)
    alpha = np.take_along_axis(W, best[..., None, None], axis=-2)[..., 0, :]
    direction = (G.swapaxes(-1, -2) @ alpha[..., None])[..., 0]
    squared_norm = (direction[..., None, :] @ direction[..., None])[..., 0, 0]
    return AscentResult(
        alpha=alpha,
        direction=direction,
        squared_norm=squared_norm,
        stationary=squared_norm <= 1e-8 * (1.0 + K.diagonal(axis1=-2, axis2=-1).max(axis=-1)),
    )


def _face_candidates(G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The minimizer of ``w^T K w`` on each face of the simplex: ``(..., faces, m)``.

    Edges come first, then larger faces, each in ``combinations`` order.
    Larger faces solve the bordered KKT system ``[[K_F, 1], [1^T, 0]] [w;
    lam] = [0; 1]``; one that is singular or not all positive has no
    interior minimizer, and its row holds NaN (so does its ``w^T K w``).
    """
    m = G.shape[-2]
    i, j = np.array(list(combinations(range(m), 2))).T
    a = analytic_two_objective_alpha(G[..., i, :], G[..., j, :])
    W = np.zeros(a.shape + (m,))
    W[..., np.arange(len(i)), i], W[..., np.arange(len(i)), j] = a, 1.0 - a
    blocks = [W]
    for size in range(3, m + 1):
        face = np.array(list(combinations(range(m), size)))
        kkt = np.ones(K.shape[:-2] + (len(face), size + 1, size + 1))
        kkt[..., :size, :size] = K[..., face[:, :, None], face[:, None, :]]
        kkt[..., size, size] = 0.0
        rhs = np.zeros(kkt.shape[:-1] + (1,))
        rhs[..., size, 0] = 1.0
        solution = _solve_each(kkt, rhs)[..., :size, 0]
        solution = np.where(np.all(solution > 0.0, axis=-1, keepdims=True), solution, np.nan)
        W = np.zeros(solution.shape[:-1] + (m,))
        # Renormalized, so an ill-conditioned solve still yields a simplex point.
        solution /= solution.sum(axis=-1, keepdims=True)
        W[..., np.arange(len(face))[:, None], face] = solution
        blocks.append(W)
    return np.concatenate(blocks, axis=-2)


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack of systems; a singular one solves to NaN alone."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for index in np.ndindex(a.shape[:-2]):
            try:
                out[index] = np.linalg.solve(a[index], b[index])
            except np.linalg.LinAlgError:
                pass
        return out


def analytic_two_objective_alpha(g1, g2):
    """Closed-form weight of ``g1`` in the two-objective minimum-norm problem, per lane.

    The minimizer of ``||a g1 + (1 - a) g2||^2`` over ``a in [0, 1]`` is the
    unconstrained optimum ``((g2 - g1) . g2) / ||g1 - g2||^2`` clamped to the
    unit interval. When ``||g1 - g2|| < 1e-12`` any weight is optimal and the
    symmetric value 0.5 is returned. Two ``(..., d)`` stacks give ``(...)``.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape or g1.ndim < 1:
        raise ValueError(f"expected two (..., d) stacks of one shape, got {g1.shape}, {g2.shape}")
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise ValueError("gradients have non-finite entries")
    diff = g1 - g2
    denom = (diff[..., None, :] @ diff[..., None])[..., 0, 0]
    numer = ((g2 - g1)[..., None, :] @ g2[..., None])[..., 0, 0]
    ok = denom >= 1e-24  # ||g1 - g2|| >= 1e-12
    a = np.clip(numer / np.where(ok, denom, 1.0), 0.0, 1.0)
    return np.where(ok, a, 0.5)[()]
