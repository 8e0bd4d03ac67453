"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the simplex
projection is solved by bisection on the KKT threshold, the minimum-norm
problem by grid search over the simplex, hypervolumes by Monte Carlo, and
the quadratic-environment frontier by closed form / dense sampling, and
archive non-domination by a pairwise audit.
"""

from __future__ import annotations

import numpy as np


def project_simplex_bisect(v: np.ndarray) -> np.ndarray:
    """Projection onto the simplex via bisection on the shift threshold.

    The projection has the form max(v - tau, 0) with tau chosen so the
    result sums to one; the sum is monotone in tau, so bisection nails it.
    """
    v = np.asarray(v, dtype=float)
    lo = v.max() - 1.0  # sum(max(v - lo, 0)) >= 1
    hi = v.max()        # sum == 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, None).sum() >= 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, None)


def _quad_form(alphas: np.ndarray, K: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", alphas, K, alphas)


def min_norm_grid_m2(G: np.ndarray) -> float:
    """Exhaustive grid at 1e-3 over alpha_1, refined locally to 1e-6."""
    K = G @ G.T
    a = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    f = a * a * K[0, 0] + 2 * a * (1 - a) * K[0, 1] + (1 - a) * (1 - a) * K[1, 1]
    best = a[np.argmin(f)]
    lo, hi = max(0.0, best - 2e-3), min(1.0, best + 2e-3)
    a2 = np.arange(lo, hi + 1e-12, 1e-6)
    f2 = a2 * a2 * K[0, 0] + 2 * a2 * (1 - a2) * K[0, 1] + (1 - a2) * (1 - a2) * K[1, 1]
    return float(f2.min())


_M3_BASE_STEP = 5e-3
_m3_base_grid: np.ndarray | None = None


def _m3_grid() -> np.ndarray:
    global _m3_base_grid
    if _m3_base_grid is None:
        step = _M3_BASE_STEP
        cols = []
        for x in np.arange(0.0, 1.0 + step / 2, step):
            ys = np.arange(0.0, 1.0 - x + step / 2, step)
            cols.append(np.stack([np.full_like(ys, x), ys, 1.0 - x - ys], axis=1))
        _m3_base_grid = np.concatenate(cols)
    return _m3_base_grid


def min_norm_grid_m3(G: np.ndarray) -> float:
    """Simplex grid search refined to 1e-6 resolution.

    The base grid is coarser than 1e-3 for runtime; the objective is a
    convex quadratic, so refining around the coarse minimum cannot miss
    the global one.
    """
    K = G @ G.T
    base = _m3_grid()
    best = base[np.argmin(_quad_form(base, K))]
    step = _M3_BASE_STEP
    while step > 1e-6:
        new_step = step / 10.0
        offsets = np.arange(-step, step + new_step / 2, new_step)
        xs = best[0] + offsets
        ys = best[1] + offsets
        XX, YY = np.meshgrid(xs, ys)
        A = np.stack([XX.ravel(), YY.ravel(), 1.0 - XX.ravel() - YY.ravel()], axis=1)
        A = A[(A >= -1e-12).all(axis=1)]
        best = A[np.argmin(_quad_form(A, K))]
        step = new_step
    return float(best @ K @ best)


def min_norm_grid(G: np.ndarray) -> float:
    if G.shape[0] == 2:
        return min_norm_grid_m2(G)
    if G.shape[0] == 3:
        return min_norm_grid_m3(G)
    raise ValueError("grid oracle supports 2 or 3 objectives")


def dominates(a, b) -> bool:
    """True iff ``a >= b`` componentwise and ``a != b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def mutually_non_dominated(entries) -> bool:
    """Pairwise audit: no entry's objectives dominate another's."""
    objectives = [e.objectives for e in entries]
    for i, a in enumerate(objectives):
        for b in objectives[i + 1 :]:
            if dominates(a, b) or dominates(b, a):
                return False
    return True


def dominated_mask_bruteforce(draws: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Reference dominance test: sample covered by some point, all coords."""
    return np.any(np.all(draws[:, None, :] <= P[None, :, :], axis=2), axis=1)


class _Staircase2D:
    """O(log n) dominance queries against a fixed 2-D point set."""

    def __init__(self, P: np.ndarray):
        order = np.argsort(P[:, 0])
        self.xs = P[order, 0]
        ys = P[order, 1]
        # suffix max: best second coordinate among points with x >= query
        self.suffix_y = np.maximum.accumulate(ys[::-1])[::-1]

    def dominated(self, draws: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.xs, draws[:, 0], side="left")
        inside = idx < self.xs.size
        ymax = np.full(draws.shape[0], -np.inf)
        ymax[inside] = self.suffix_y[np.minimum(idx[inside], self.xs.size - 1)]
        return draws[:, 1] <= ymax


def dominated_mask(draws: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Vectorized dominance test (is each sample covered by some point?)."""
    m = P.shape[1]
    if m == 2:
        return _Staircase2D(P).dominated(draws)
    if m == 3:
        levels = np.unique(P[:, 2])  # ascending
        stairs = [_Staircase2D(P[P[:, 2] >= level][:, :2]) for level in levels]
        # a sample needs a point whose third coordinate reaches it
        k = np.searchsorted(levels, draws[:, 2], side="left")
        out = np.zeros(draws.shape[0], dtype=bool)
        for level_idx in range(levels.size):
            members = k == level_idx
            if np.any(members):
                out[members] = stairs[level_idx].dominated(draws[members, :2])
        return out
    return dominated_mask_bruteforce(draws, P)


def mc_hypervolume(points: np.ndarray, z: np.ndarray, samples: int,
                   rng: np.random.Generator, chunk: int = 200_000) -> tuple[float, float]:
    """Monte-Carlo hypervolume estimate and its standard error."""
    P = np.asarray(points, dtype=float)
    z = np.asarray(z, dtype=float)
    upper = P.max(axis=0)
    box = float(np.prod(upper - z))
    hits = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        draws = rng.uniform(z, upper, size=(n, z.size))
        hits += int(dominated_mask(draws, P).sum())
        done += n
    p_hat = hits / samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / samples)) * box
    return p_hat * box, se


# --- quadratic environment frontier ------------------------------------

def quad_front_points(targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Objective vectors of the optimal actions for the given weights.

    For simplex weights w the action sum_i w_i c_i maximizes the weighted
    reward of the quadratic environment; its image traces the frontier.
    """
    targets = np.asarray(targets, dtype=float)
    actions = weights @ targets
    diffs = actions[:, None, :] - targets[None, :, :]
    return -np.einsum("tij,tij->ti", diffs, diffs)


def quad2_front_hv_closed(s: float, z1: float, z2: float) -> float:
    """Closed-form hypervolume of the full two-target frontier.

    ``s`` is the squared distance between the two targets. The frontier is
    (-s(1-w)^2, -s w^2) for w in [0, 1]; integrating the dominated region
    against a reference (z1, z2) with z1, z2 <= -s collapses to
    ``z1 * z2 - s^2 / 6``.
    """
    if z1 > -s or z2 > -s:
        raise ValueError("closed form needs the reference below the frontier ends")
    return z1 * z2 - s * s / 6.0


def simplex_weight_grid(m: int, divisions: int) -> np.ndarray:
    """All lattice weights i/divisions on the (m-1)-simplex."""
    if m == 2:
        w = np.linspace(0.0, 1.0, divisions + 1)
        return np.stack([w, 1.0 - w], axis=1)
    if m == 3:
        rows = []
        for i in range(divisions + 1):
            for j in range(divisions + 1 - i):
                rows.append((i, j, divisions - i - j))
        return np.asarray(rows, dtype=float) / divisions
    raise ValueError("weight grids support 2 or 3 objectives")
