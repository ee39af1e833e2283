"""Brute-force weight-vector search, independent of the production solver.

Scans a uniform grid of candidate weight vectors m in [-m_max, m_max]^2 and
tests c*Id + sum_k m_k A_k <= 0 with numpy's LAPACK eigensolver.  The
direction search uses the same LAPACK routine, so the independence lies in
the method: a grid over m here, against a scan over unit directions with
golden-section refinement there, whose certificate is then verified by the
Jacobi ``lmi_check``.  Agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from .sysdef import HyperbolicSystem

GRID_POINTS = 401  # 401 points on [-10, 10] <=> step 0.05
CHUNK_ROWS = 64


def brute_force_feasible(
    system: HyperbolicSystem,
    c: float = 1.0,
    m_max: float = 10.0,
    points: int = GRID_POINTS,
) -> tuple[bool, np.ndarray | None]:
    """Exhaustive grid test; returns (feasible, witness m or None).

    Two-dimensional systems only: the grid has points**2 candidates and the
    batched eigenvalue call keeps memory bounded by chunking rows.
    """
    if system.d != 2:
        raise ValueError(f"grid oracle handles d = 2 only, got d = {system.d}")
    a1 = system.jacobians[0].a
    a2 = system.jacobians[1].a
    n = a1.shape[0]
    axis = np.linspace(-m_max, m_max, points)
    slack = 1e-10 * (1.0 + c)

    eye = c * np.eye(n)
    for start in range(0, points, CHUNK_ROWS):
        m1 = axis[start : start + CHUNK_ROWS]
        # stack of (len(m1)*points, n, n) pencil matrices
        block = (
            eye
            + m1[:, None, None, None] * a1
            + axis[None, :, None, None] * a2
        ).reshape(-1, n, n)
        top = np.linalg.eigvalsh(block)[:, -1]
        hits = np.flatnonzero(top <= slack)
        if hits.size:
            i, j = divmod(int(hits[0]), points)
            return True, np.array([m1[i], axis[j]])
    return False, None
