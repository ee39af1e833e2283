"""Dense symmetric linear algebra for small systems.

Everything here operates on real symmetric matrices of modest size (the
characteristic dimension of a hyperbolic system, typically n <= 10).  The
eigensolver is numpy's LAPACK, the same one the weight search and
``hypstab.oracle`` call; this module adds the sign rule, the residual check
and the validated ``EigenDecomposition`` that the boundary eigendata rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, NonUnitDirection, NotSymmetric, SizeMismatch

# Constructor rejects matrices whose asymmetry exceeds this relative bound.
ASYMMETRY_RTOL = 1e-9
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


def eigendecompose(matrix: SymMatrix) -> EigenDecomposition:
    """Diagonalize a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come back ascending.  Each eigenvector column is signed so
    that its first non-negligible component is positive, and NoConvergence
    is raised if the diagonalization residual is out of tolerance.
    """
    lam, v = np.linalg.eigh(matrix.a)
    # Deterministic sign: make the first non-negligible component of each
    # column positive (columns are unit vectors, so 1e-12 is scale-free).
    lead = np.argmax(np.abs(v) > 1e-12, axis=0)
    v *= np.where(v[lead, np.arange(matrix.n)] < 0.0, -1.0, 1.0)

    residual = np.abs(v.T @ matrix.a @ v - np.diag(lam)).max()
    limit = DIAG_RESIDUAL_RTOL * (1.0 + np.abs(matrix.a).max())
    if residual > limit:
        raise NoConvergence(f"diagonalization residual {residual:.3e} exceeds {limit:.3e}")
    return EigenDecomposition(lam, v)


def max_eigenvalue(matrix: SymMatrix) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(matrix.a)[-1])
