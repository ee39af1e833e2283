"""Linear Lyapunov weights and the matrix inequality that certifies decay.

A weight mu(x) = m . x turns the L2 norm into the weighted functional
L(t) = int w^T w exp(mu) dx.  L decays at rate c_l = c_a - c_b whenever

    c_a * Id + sum_k m_k A_k  <=  0        (the weight inequality)

and the source term obeys w^T (sum_k d_k A_k - 2 B_sym) w <= c_b |w|^2.
For the constant-coefficient systems handled here the divergence term
vanishes, so c_b is the largest eigenvalue of -2 B_sym clamped at zero.

Feasibility of the weight inequality only depends on the direction of m:
the scan below minimizes phi(m_hat) = max_eig(sum_k m_hat_k A_k) over unit
directions and, if the minimum is negative, scales |m| so the inequality
holds with a small margin.

The search evaluates phi with numpy's batched LAPACK eigensolver: one call
over the stacked pencils of all scanned directions, and one-row stacks
during refinement.  Every certificate it returns is then verified with the
package's Jacobi solver (``lmi_check``), which the direction search does
not use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeMismatch
from .symlin import SymMatrix, is_negative_semidefinite, max_eigenvalue
from .sysdef import HyperbolicSystem

LMI_SLACK_RTOL = 1e-10
SCALING_MARGIN = 1e-3
# Direction-scan resolution.
SCAN_COUNT_2D = 720


@dataclass(frozen=True)
class LyapunovPotential:
    """A feasible linear weight together with its decay constants.

    c_a is the margin achieved by the weight inequality, c_b the source
    bound, and c_l = c_a - c_b the certified exponential decay rate of the
    weighted functional.
    """

    m: np.ndarray
    c_a: float
    c_b: float
    c_l: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        if m.ndim != 1 or m.size not in (1, 2):
            raise SizeMismatch(f"weight gradient shape {m.shape} unsupported")
        if not np.isfinite(m).all():
            raise ValueError("weight gradient must be finite")
        if not self.c_a > 0.0:
            raise ValueError(f"c_a = {self.c_a} must be positive")
        if self.c_b < 0.0:
            raise ValueError(f"c_b = {self.c_b} must be nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c_l", self.c_a - self.c_b)

    @property
    def d(self) -> int:
        return self.m.size


@dataclass(frozen=True)
class Infeasible:
    """Certificate that no linear weight works: the least achievable
    pencil maximum eigenvalue over all unit directions, and where."""

    best_direction: np.ndarray
    best_value: float


def _combination(system: HyperbolicSystem, m: np.ndarray) -> np.ndarray:
    acc = np.zeros((system.n, system.n))
    for coeff, jac in zip(m, system.jacobians):
        acc += coeff * jac.a
    return acc


def _as_coeffs(system: HyperbolicSystem, m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (system.d,):
        raise SizeMismatch(f"weight gradient shape {m.shape} does not match d = {system.d}")
    return m


def lmi_check(system: HyperbolicSystem, m, c: float) -> bool:
    """True when c * Id + sum_k m_k A_k is negative semidefinite."""
    m = _as_coeffs(system, m)
    matrix = SymMatrix(c * np.eye(system.n) + _combination(system, m))
    return is_negative_semidefinite(matrix, slack=LMI_SLACK_RTOL * (1.0 + c))


def remainder_matrix(system: HyperbolicSystem) -> np.ndarray:
    """Zeroth-order remainder: divergence of the Jacobian field minus twice
    the symmetric source part.  Constant Jacobians contribute nothing, so
    it is -2 B_sym everywhere."""
    return -2.0 * system.source_sym()


def lmi_check_with_remainder(system: HyperbolicSystem, m, c: float) -> bool:
    """Variant absorbing the zeroth-order remainder into the inequality:
    c * Id + R + sum_k m_k A_k <= 0."""
    m = _as_coeffs(system, m)
    matrix = SymMatrix(c * np.eye(system.n) + remainder_matrix(system) + _combination(system, m))
    return is_negative_semidefinite(matrix, slack=LMI_SLACK_RTOL * (1.0 + c))


def estimate_source_bound(system: HyperbolicSystem) -> float:
    """Least c_b with w^T R w <= c_b |w|^2, clamped at zero."""
    return max(0.0, max_eigenvalue(SymMatrix(remainder_matrix(system))))


def _unit_directions(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    theta = np.linspace(0.0, 2.0 * np.pi, SCAN_COUNT_2D, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _pencil_top_eigs(system: HyperbolicSystem, dirs: np.ndarray) -> np.ndarray:
    """phi at each row of dirs: the largest eigenvalue of sum_k dirs[i, k] A_k,
    from one batched LAPACK call over the stacked pencils."""
    jacobians = np.stack([jac.a for jac in system.jacobians])
    return np.linalg.eigvalsh(np.einsum("ik,kab->iab", dirs, jacobians))[:, -1]


def _pencil_max_eig(system: HyperbolicSystem, direction: np.ndarray) -> float:
    return float(_pencil_top_eigs(system, direction[None, :])[0])


def _scan_directions(system: HyperbolicSystem, dirs: np.ndarray) -> int:
    """Index of the direction minimizing phi, lowest index breaking ties."""
    return int(np.argmin(_pencil_top_eigs(system, dirs)))


def _refine_2d(system: HyperbolicSystem, theta_lo: float, theta_hi: float) -> tuple[np.ndarray, float]:
    """Golden-section minimization of phi over an angular bracket."""

    def phi(theta: float) -> float:
        return _pencil_max_eig(system, np.array([np.cos(theta), np.sin(theta)]))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = theta_lo, theta_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(80):
        if b - a < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(d)
    theta = c if fc <= fd else d
    direction = np.array([np.cos(theta), np.sin(theta)])
    return direction, phi(theta)


def _best_direction(system: HyperbolicSystem) -> tuple[np.ndarray, float]:
    """The unit direction minimizing phi, and phi there.

    In d = 1 that is the better of the two scanned directions.  In d = 2
    golden section refines the best scanned angle within one scan step on
    either side, and the scanned direction is kept if it is still lower.
    """
    dirs = _unit_directions(system.d)
    best = _scan_directions(system, dirs)
    coarse = _pencil_max_eig(system, dirs[best])
    if system.d == 1:
        return dirs[best], coarse
    theta = 2.0 * np.pi * best / SCAN_COUNT_2D
    step = 2.0 * np.pi / SCAN_COUNT_2D
    direction, value = _refine_2d(system, theta - step, theta + step)
    if coarse < value:
        return dirs[best], coarse
    return direction, value


def find_potential(
    system: HyperbolicSystem,
    c_b: float,
    c_a_override: float | None = None,
) -> LyapunovPotential | Infeasible:
    """Search for a linear weight certifying decay, or a refusal certificate.

    Scans unit directions for the minimizer of phi(m_hat), refines it
    locally, and exploits homogeneity: if phi* < 0 the inequality holds for
    m = |m| m_hat with |m| = c_a / (-phi*), padded by a small margin.
    c_a defaults to 1 for c_b = 0 and to 2 c_b + 1 otherwise, keeping
    c_l = c_a - c_b strictly positive.
    """
    if c_b < 0.0:
        raise ValueError(f"c_b = {c_b} must be nonnegative")
    direction, value = _best_direction(system)
    if not value < 0.0:
        return Infeasible(best_direction=direction, best_value=value)

    c_a = float(c_a_override) if c_a_override is not None else (1.0 if c_b == 0.0 else 2.0 * c_b + 1.0)
    if not c_a > c_b:
        return Infeasible(best_direction=direction, best_value=value)
    magnitude = c_a / (-value) * (1.0 + SCALING_MARGIN)
    m = magnitude * direction
    # By construction max_eig(c_a Id + sum m_k A_k) = -SCALING_MARGIN * c_a < 0.
    if not lmi_check(system, m, c_a):
        return Infeasible(best_direction=direction, best_value=value)
    return LyapunovPotential(m=m, c_a=c_a, c_b=c_b)


def find_potential_with_remainder(
    system: HyperbolicSystem,
    c_a: float = 1.0,
) -> LyapunovPotential | Infeasible:
    """Weight search against the remainder-absorbing inequality.

    A dissipative source can make the inequality hold with m = 0, so that
    case is tried first; otherwise the direction scan runs as usual and the
    magnitude is set from eigenvalue subadditivity, then verified.  The
    returned potential certifies decay at rate c_l = c_a directly (the
    source term is inside the inequality, so nothing is subtracted).
    """
    if not c_a > 0.0:
        raise ValueError(f"c_a = {c_a} must be positive")
    zero = np.zeros(system.d)
    if lmi_check_with_remainder(system, zero, c_a):
        return LyapunovPotential(m=zero.copy(), c_a=c_a, c_b=0.0)

    direction, value = _best_direction(system)
    if not value < 0.0:
        return Infeasible(best_direction=direction, best_value=value)

    remainder_top = max_eigenvalue(SymMatrix(remainder_matrix(system)))
    magnitude = max(remainder_top + c_a, SCALING_MARGIN * c_a) / (-value) * (1.0 + SCALING_MARGIN)
    for _ in range(60):
        if lmi_check_with_remainder(system, magnitude * direction, c_a):
            return LyapunovPotential(m=magnitude * direction, c_a=c_a, c_b=0.0)
        magnitude *= 2.0
    return Infeasible(best_direction=direction, best_value=value)
