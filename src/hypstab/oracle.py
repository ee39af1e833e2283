"""Independent checks of the solver's certificates, with numpy's LAPACK only.

A feasible verdict carries a weight m: ``weight_holds`` recomputes the top
eigenvalue of c*Id + sum_k m_k A_k.  An infeasible verdict carries a dual
witness, unit vectors v_j and weights alpha_j: ``witness_holds`` recomputes
sum_j alpha_j v_j^T A_k v_j for every k.  If that vanishes, then for every m
the same combination of v_j^T (c*Id + sum_k m_k A_k) v_j equals c > 0, so
no weight satisfies the inequality (the LMI theorem of alternatives).

Neither check searches or calls the solver's code (``weight_holds`` does
share numpy's LAPACK eigensolver with it), and both accept a certificate of
any shape, returning False when it does not fit the system.
"""

from __future__ import annotations

import numpy as np

from .sysdef import HyperbolicSystem

CHECK_RTOL = 1e-10


def weight_holds(system: HyperbolicSystem, m, c: float) -> bool:
    """True when c*Id + sum_k m_k A_k is negative semidefinite within
    ``CHECK_RTOL * (1 + |c|)``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (system.d,) or not np.isfinite(m).all():
        return False
    matrix = c * np.eye(system.n) + sum(mk * jac.a for mk, jac in zip(m, system.jacobians))
    return bool(np.linalg.eigvalsh(matrix)[-1] <= CHECK_RTOL * (1.0 + abs(c)))


def witness_holds(system: HyperbolicSystem, vectors, weights) -> bool:
    """True when the rows of vectors are unit vectors, the weights are
    nonnegative and sum to 1, and |sum_j alpha_j v_j^T A_k v_j| stays within
    ``CHECK_RTOL * (1 + max_k sum|A_k|)`` for every k."""
    vectors = np.asarray(vectors, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != system.n or weights.shape != vectors.shape[:1] or not weights.size:
        return False
    # every comparison below fails on nan, and a sum of 1 rules out inf
    unit = np.abs(np.einsum("ja,ja->j", vectors, vectors) - 1.0) <= CHECK_RTOL
    if not unit.all() or (weights < 0.0).any() or abs(weights.sum() - 1.0) > CHECK_RTOL:
        return False
    tol = CHECK_RTOL * (1.0 + max(np.abs(jac.a).sum() for jac in system.jacobians))
    return all(abs(weights @ np.einsum("ja,ab,jb->j", vectors, jac.a, vectors)) <= tol for jac in system.jacobians)
