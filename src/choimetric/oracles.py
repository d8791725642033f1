"""Independent low-tech oracles used to cross-check the solver paths.

The exhaustive grid only evaluates norms and never reaches the
semidefinite program, and the shortest-path metric is the classical value
a commutative length Dirac must reproduce.  The MK-correctness suite reads
both.
"""

from __future__ import annotations

import numpy as np


def grid_ball_maximize(objective: np.ndarray, ball_eval, radius: float,
                       rounds: int = 5, pts: int = 13) -> float:
    """Multiresolution exhaustive grid for sup { g . t : N(t) <= 1 } with a
    positively homogeneous N; independent of the SDP path.

    `ball_eval` maps a (k, r) stack of points to their k norms; each
    round's grid goes to it as one stack.  Points with N(t) <= 1 count as
    they are, infeasible ones are rescaled onto the sphere N(t) = 1, so
    every evaluated direction contributes, and points with a NaN norm are
    skipped; the first maximum wins.  Intended for <= 4 variables.
    """
    g = np.asarray(objective, dtype=float)
    r = g.shape[0]
    center = np.zeros(r)
    best = 0.0
    span = float(radius)
    for _ in range(rounds):
        axes = [np.linspace(c - span, c + span, pts) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
        norms = np.asarray(ball_eval(grid), dtype=float)
        outside = norms > 1.0 + 1e-12
        grid[outside] /= norms[outside, None]
        vals = np.where(np.isnan(norms), -np.inf, grid @ g)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, center = float(vals[k]), grid[k]
        span = span * 3.0 / (pts - 1)
    return best


def classical_path_metric(weights: dict, n_points: int) -> np.ndarray:
    """All-pairs shortest-path distances from edge weights {(i, j): d}."""
    dist = np.full((n_points, n_points), np.inf)
    np.fill_diagonal(dist, 0.0)
    for (i, j), d in weights.items():
        dist[i, j] = min(dist[i, j], d)
        dist[j, i] = min(dist[j, i], d)
    for k in range(n_points):
        for i in range(n_points):
            for j in range(n_points):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist
