"""Dense symmetric linear algebra for small systems.

Everything here operates on real symmetric matrices of modest size (the
characteristic dimension of a hyperbolic system, typically n <= 10), so a
dependency-free cyclic Jacobi eigensolver is both adequate and exactly
reproducible across platforms.  It serves the boundary eigendata and the
certificate checks (``lmi_check``); the weight search's direction scan uses
numpy's batched LAPACK solver instead, so every certificate is verified by
a solver the search did not use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, NonUnitDirection, NotSymmetric, SizeMismatch

# Constructor rejects matrices whose asymmetry exceeds this relative bound.
ASYMMETRY_RTOL = 1e-9
# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below
# SWEEP_RTOL times the (rotation-invariant) Frobenius norm of the input.
SWEEP_RTOL = 1e-12
MAX_SWEEPS = 100
ORTHOGONALITY_TOL = 1e-10
DIAG_RESIDUAL_RTOL = 1e-8


class SymMatrix:
    """A real symmetric matrix, symmetrized at construction.

    The constructor accepts any square array-like, rejects it if the
    asymmetry max|A - A^T| exceeds ASYMMETRY_RTOL * max|A|, and stores
    the exact symmetric part (A + A^T) / 2.
    """

    __slots__ = ("a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SizeMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFinite("matrix entries must be finite")
        scale = np.abs(a).max() if a.size else 0.0
        asym = np.abs(a - a.T).max() if a.size else 0.0
        if asym > ASYMMETRY_RTOL * scale:
            raise NotSymmetric(
                f"asymmetry {asym:.3e} exceeds {ASYMMETRY_RTOL:.1e} * max|A| = "
                f"{ASYMMETRY_RTOL * scale:.3e}"
            )
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        self.a = a

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymMatrix({self.a.tolist()!r})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and an orthogonal matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        t = np.asarray(self.T, dtype=float)
        if lam.ndim != 1 or t.shape != (lam.size, lam.size):
            raise SizeMismatch("eigenvalue vector and eigenvector matrix sizes disagree")
        if not (np.isfinite(lam).all() and np.isfinite(t).all()):
            raise NonFinite("eigendecomposition entries must be finite")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        ortho = np.abs(t.T @ t - np.eye(lam.size)).max()
        if ortho > ORTHOGONALITY_TOL:
            raise ValueError(f"eigenvector matrix not orthogonal: residual {ortho:.3e}")
        lam.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "T", t)


def assemble_pencil(jacobians, nu) -> SymMatrix:
    """Contract a list of symmetric Jacobians with a unit direction vector."""
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or len(jacobians) != nu.size:
        raise SizeMismatch(
            f"{len(jacobians)} Jacobians cannot contract with a direction of shape {nu.shape}"
        )
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise NonUnitDirection(f"|nu| = {np.linalg.norm(nu)!r} is not 1 within 1e-12")
    n = jacobians[0].n
    for jac in jacobians:
        if jac.n != n:
            raise SizeMismatch("Jacobians have differing dimensions")
    acc = np.zeros((n, n))
    for comp, jac in zip(nu, jacobians):
        acc += comp * jac.a
    return SymMatrix(acc)


def _off_norm2(a: np.ndarray) -> float:
    """Squared Frobenius norm of the off-diagonal part.

    Summed entry by entry: subtracting the diagonal from the full norm
    would cancel catastrophically at the tolerances involved.
    """
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sum(off * off))


def eigendecompose(matrix: SymMatrix) -> EigenDecomposition:
    """Diagonalize a symmetric matrix with cyclic Jacobi rotations.

    Sweeps run in row-cyclic order until the off-diagonal Frobenius norm
    falls below SWEEP_RTOL * ||A||_F (the Frobenius norm is invariant under
    the rotations, so the threshold is fixed up front).  Raises NoConvergence
    after MAX_SWEEPS sweeps, or if the final diagonalization residual is out
    of tolerance.
    """
    # The rotations run on nested lists of Python floats, which are several
    # times faster than numpy for n <= 10 and round identically.
    a = matrix.a.tolist()
    n = len(a)
    v = np.eye(n).tolist()
    thresh2 = (SWEEP_RTOL * np.linalg.norm(matrix.a)) ** 2

    for _ in range(MAX_SWEEPS):
        if _off_norm2(np.array(a)) <= thresh2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) if theta != 0.0 else 1.0
                t /= abs(theta) + math.sqrt(1.0 + theta * theta)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                row_p, row_q = a[p], a[q]
                for j in range(n):
                    x, y = row_p[j], row_q[j]
                    row_p[j] = c * x - s * y
                    row_q[j] = s * x + c * y
                row_p[q] = 0.0
                row_q[p] = 0.0
                for row in v:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
    else:
        if _off_norm2(np.array(a)) > thresh2:
            raise NoConvergence(f"off-diagonal norm still above tolerance after {MAX_SWEEPS} sweeps")

    lam = np.diag(np.array(a))
    v = np.array(v)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    v = v[:, order]

    # Deterministic sign: make the first non-negligible component of each
    # column positive (columns are unit vectors, so 1e-12 is scale-free).
    for j in range(n):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            v[:, j] = -col

    residual = np.abs(v.T @ matrix.a @ v - np.diag(lam)).max()
    limit = DIAG_RESIDUAL_RTOL * (1.0 + np.abs(matrix.a).max())
    if residual > limit:
        raise NoConvergence(f"diagonalization residual {residual:.3e} exceeds {limit:.3e}")
    return EigenDecomposition(lam, v)


def max_eigenvalue(matrix: SymMatrix) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(eigendecompose(matrix).eigenvalues[-1])


def is_negative_semidefinite(matrix: SymMatrix, slack: float = 0.0) -> bool:
    """True when the largest eigenvalue does not exceed ``slack``."""
    return max_eigenvalue(matrix) <= slack
