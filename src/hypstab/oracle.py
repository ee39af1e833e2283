"""Grid cross-check of the weight search, independent of the production solver.

Answers "is c*Id + m_1 A_1 + m_2 A_2 <= 0 at some m of the uniform grid on
[-m_max, m_max]^2?" with exactly the verdict and witness (the first hit in
row-major order) of testing all ``points**2`` grid points with numpy's
LAPACK eigensolver, but without evaluating most of them.

For every unit vector v, lambda_max(M) >= v^T M v / v^T v (the Rayleigh
bound), so with g_k = v^T A_k v / v^T v every grid point obeys

    lambda_max(c*Id + sum_k m_k A_k) >= c + g . m,

a supporting hyperplane of the convex function lambda_max (a Kelley cut).
``CUT_DIRECTIONS`` top eigenvectors give as many cuts; a grid point that a
cut puts above the acceptance level by more than a rounding margin cannot
pass, and the rest are evaluated with ``eigvalsh`` in row-major order.  So
each grid point is either evaluated with LAPACK or excluded by a bound that
can be checked on its own.  The direction search uses the same LAPACK
routine, so the independence lies in the method: a grid over m here, against
a scan over unit directions with golden-section refinement there, whose
certificate is then verified by the Jacobi ``lmi_check``.
"""

from __future__ import annotations

import numpy as np

from .sysdef import HyperbolicSystem

GRID_POINTS = 401  # 401 points on [-10, 10] <=> step 0.05
CUT_DIRECTIONS = 32


def rayleigh_cuts(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Rows g_j with lambda_max(c*Id + m_1 A_1 + m_2 A_2) >= c + g_j . m for all m.

    g_j holds the Rayleigh quotients of A_1 and A_2 at the top eigenvector
    of the pencil along the j-th of ``CUT_DIRECTIONS`` unit directions.
    """
    theta = 2.0 * np.pi * np.arange(CUT_DIRECTIONS) / CUT_DIRECTIONS
    pencils = np.cos(theta)[:, None, None] * a1 + np.sin(theta)[:, None, None] * a2
    v = np.linalg.eigh(pencils)[1][:, :, -1]
    quotients = [np.einsum("ji,ik,jk->j", v, a, v) for a in (a1, a2)]
    return np.stack(quotients, axis=1) / np.einsum("ji,ji->j", v, v)[:, None]


def brute_force_feasible(
    system: HyperbolicSystem,
    c: float = 1.0,
    m_max: float = 10.0,
    points: int = GRID_POINTS,
) -> tuple[bool, np.ndarray | None]:
    """Grid test; returns (feasible, witness m or None).

    Two-dimensional systems only.  Equal to scanning every grid point, the
    cuts only decide which points need an eigenvalue call.
    """
    if system.d != 2:
        raise ValueError(f"grid oracle handles d = 2 only, got d = {system.d}")
    a1 = system.jacobians[0].a
    a2 = system.jacobians[1].a
    n = a1.shape[0]
    axis = np.linspace(-m_max, m_max, points)
    slack = 1e-10 * (1.0 + c)
    # covers the rounding of the cuts, the interval ends and eigvalsh
    margin = 1e-9 * (1.0 + abs(c) + m_max * (np.abs(a1).sum() + np.abs(a2).sum()))

    # Cut j admits g_j2 * m2 <= room[row, j]; together one interval per row.
    g = rayleigh_cuts(a1, a2)
    room = (slack + margin - c) - np.outer(axis, g[:, 0])
    rising, falling = g[:, 1] > 0.0, g[:, 1] < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = room / g[:, 1]
    hi = np.where(rising, bound, np.inf).min(axis=1)
    lo = np.where(falling, bound, -np.inf).max(axis=1)
    shut = (~rising & ~falling & (room < 0.0)).any(axis=1)
    first = np.searchsorted(axis, lo, side="left")
    counts = np.where(shut, 0, np.maximum(np.searchsorted(axis, hi, side="right") - first, 0))

    # candidate (row, column) pairs in row-major order
    rows = np.repeat(np.arange(points), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    eye = c * np.eye(n)
    for start in range(0, rows.size, points):
        m1 = axis[rows[start : start + points]]
        m2 = axis[cols[start : start + points]]
        block = eye + m1[:, None, None] * a1 + m2[:, None, None] * a2
        top = np.linalg.eigvalsh(block)[:, -1]
        hits = np.flatnonzero(top <= slack)
        if hits.size:
            return True, np.array([m1[hits[0]], m2[hits[0]]])
    return False, None
