"""System definitions: constant-coefficient symmetric hyperbolic systems.

A system is d_t w + sum_k A_k d_k w + B w = 0 with symmetric constant
Jacobians A_k and a (generally nonsymmetric) constant source matrix B.
The barotropic Euler equations linearized at a uniform background state
are provided in their symmetrized form, together with the closed-form
eigenstructure of their directional pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidScenario, NonFinite, NonUnitDirection, SizeMismatch
from .symlin import EigenDecomposition, SymMatrix


@dataclass(frozen=True)
class HyperbolicSystem:
    """Constant-coefficient linear symmetric hyperbolic system."""

    jacobians: tuple[SymMatrix, ...]
    source: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        jac = tuple(self.jacobians)
        if len(jac) not in (1, 2):
            raise SizeMismatch(f"space dimension {len(jac)} unsupported")
        n = jac[0].n
        if any(j.n != n for j in jac):
            raise SizeMismatch("Jacobians have differing dimensions")
        b = np.array(self.source, dtype=float)
        if b.shape != (n, n):
            raise SizeMismatch(f"source matrix shape {b.shape} does not match n = {n}")
        if not np.isfinite(b).all():
            raise NonFinite("source matrix entries must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "jacobians", jac)
        object.__setattr__(self, "source", b)

    @property
    def d(self) -> int:
        return len(self.jacobians)

    @property
    def n(self) -> int:
        return self.jacobians[0].n

    def source_sym(self) -> np.ndarray:
        """Symmetric part of the source matrix."""
        return (self.source + self.source.T) / 2.0


@dataclass(frozen=True)
class EulerScenario:
    """Uniform background state for the linearized barotropic Euler equations."""

    rho_bar: float
    v_bar: tuple[float, float]
    a_bar: float

    def __post_init__(self) -> None:
        v = tuple(float(c) for c in self.v_bar)
        if len(v) != 2:
            raise InvalidScenario("background velocity must have two components")
        vals = (self.rho_bar, *v, self.a_bar)
        if not all(np.isfinite(vals)):
            raise InvalidScenario("scenario parameters must be finite")
        if self.rho_bar <= 0.0:
            raise InvalidScenario(f"background density {self.rho_bar} must be positive")
        if self.a_bar <= 0.0:
            raise InvalidScenario(f"background sound speed {self.a_bar} must be positive")
        object.__setattr__(self, "rho_bar", float(self.rho_bar))
        object.__setattr__(self, "v_bar", v)
        object.__setattr__(self, "a_bar", float(self.a_bar))

    @property
    def speed(self) -> float:
        return float(np.hypot(*self.v_bar))


def euler_symmetrized(scenario: EulerScenario) -> HyperbolicSystem:
    """Symmetrized linearized barotropic Euler system in d = 2.

    The state is (r, v1, v2) where r is the density perturbation rescaled
    by a_bar / rho_bar; that rescaling makes both Jacobians symmetric and
    leaves no zeroth-order term.
    """
    v1, v2 = scenario.v_bar
    a = scenario.a_bar
    a1 = SymMatrix([[v1, a, 0.0], [a, v1, 0.0], [0.0, 0.0, v1]])
    a2 = SymMatrix([[v2, 0.0, a], [0.0, v2, 0.0], [a, 0.0, v2]])
    label = f"euler(rho={scenario.rho_bar:g}, v=({v1:g},{v2:g}), a={a:g})"
    return HyperbolicSystem((a1, a2), np.zeros((3, 3)), label)


def _check_unit_direction(nu: np.ndarray) -> None:
    if nu.shape != (2,):
        raise SizeMismatch(f"direction must have two components, got shape {nu.shape}")
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise NonUnitDirection(f"|nu| = {np.linalg.norm(nu)!r} is not 1 within 1e-12")


def euler_eigenstructure(scenario: EulerScenario, nu) -> EigenDecomposition:
    """Closed-form eigendecomposition of the Euler pencil along unit nu.

    Eigenvalues are nu.v - a, nu.v, nu.v + a (always ascending since a > 0);
    the eigenvector columns couple the acoustic modes to the direction nu
    and leave a transverse shear mode in between.
    """
    nu = np.asarray(nu, dtype=float)
    _check_unit_direction(nu)
    n1, n2 = nu
    vn = n1 * scenario.v_bar[0] + n2 * scenario.v_bar[1]
    a = scenario.a_bar
    lam = np.array([vn - a, vn, vn + a])
    r = 1.0 / np.sqrt(2.0)
    t = np.array(
        [
            [r, 0.0, r],
            [-r * n1, -n2, r * n1],
            [-r * n2, n1, r * n2],
        ]
    )
    return EigenDecomposition(lam, t)


def characteristic_transform(scenario: EulerScenario, nu, w) -> np.ndarray:
    """Map a physical state w = (r, v1, v2) to characteristic variables along nu."""
    nu = np.asarray(nu, dtype=float)
    _check_unit_direction(nu)
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise SizeMismatch(f"state must have three components, got shape {w.shape}")
    n1, n2 = nu
    rr, v1, v2 = w
    vn = n1 * v1 + n2 * v2
    r = 1.0 / np.sqrt(2.0)
    return np.array([r * (rr - vn), -(n2 * v1 - n1 * v2), r * (rr + vn)])


def advection_system(speeds: Sequence[float] | float) -> HyperbolicSystem:
    """Scalar advection in one space dimension, or a diagonal system of them."""
    arr = np.atleast_1d(np.asarray(speeds, dtype=float))
    return HyperbolicSystem(
        (SymMatrix(np.diag(arr)),),
        np.zeros((arr.size, arr.size)),
        label=f"advection({', '.join(f'{c:g}' for c in arr)})",
    )
