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
during refinement.  Every weight it returns has passed ``lmi_check``, which
recomputes the top eigenvalue of the assembled c * Id + sum_k m_k A_k.

When no scanned direction is feasible, the search looks for the dual
certificate instead.  Each unit top eigenvector v of a pencil gives an atom
(v^T A_1 v, ..., v^T A_d v) of the joint numerical range K, and the weight
inequality has a solution iff 0 lies outside the convex set K (the LMI
theorem of alternatives).  A convex combination of atoms that vanishes is
therefore a witness of infeasibility; Kelley cutting planes add atoms until
one is found or a feasible direction turns up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeMismatch
from .symlin import SymMatrix, max_eigenvalue
from .sysdef import HyperbolicSystem

LMI_SLACK_RTOL = 1e-10
SCALING_MARGIN = 1e-3
# Direction-scan resolution.
SCAN_COUNT_2D = 720
# A direction counts as feasible when phi < -tol and a witness as vanishing
# when its combination is within tol of 0, tol = WITNESS_RTOL * (1 + max_k
# sum|A_k|): 100 times tighter than the check in ``hypstab.oracle``.
WITNESS_RTOL = 1e-12


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
    """Refusal: the least pencil maximum eigenvalue the direction scan
    achieved, and where, with a dual witness when one was found.

    The witness is unit vectors v_j (rows of ``vectors``) and weights
    alpha_j >= 0 summing to 1 with sum_j alpha_j v_j^T A_k v_j = 0 (within
    tolerance) for every k.  Then sum_j alpha_j v_j^T (c Id + sum_k m_k A_k) v_j
    = c > 0 for every m, so no weight satisfies the plain weight inequality.
    It certifies nothing about the remainder-absorbing variant.
    """

    best_direction: np.ndarray
    best_value: float
    vectors: np.ndarray | None = None
    weights: np.ndarray | None = None


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


def _top_within_slack(matrix: np.ndarray, c: float) -> bool:
    return max_eigenvalue(SymMatrix(matrix)) <= LMI_SLACK_RTOL * (1.0 + c)


def lmi_check(system: HyperbolicSystem, m, c: float) -> bool:
    """True when c * Id + sum_k m_k A_k is negative semidefinite."""
    m = _as_coeffs(system, m)
    return _top_within_slack(c * np.eye(system.n) + _combination(system, m), c)


def remainder_matrix(system: HyperbolicSystem) -> np.ndarray:
    """Zeroth-order remainder: divergence of the Jacobian field minus twice
    the symmetric source part.  Constant Jacobians contribute nothing, so
    it is -2 B_sym everywhere."""
    return -2.0 * system.source_sym()


def lmi_check_with_remainder(system: HyperbolicSystem, m, c: float) -> bool:
    """Variant absorbing the zeroth-order remainder into the inequality:
    c * Id + R + sum_k m_k A_k <= 0."""
    m = _as_coeffs(system, m)
    return _top_within_slack(c * np.eye(system.n) + remainder_matrix(system) + _combination(system, m), c)


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


def _top_atoms(system: HyperbolicSystem, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi, a unit top eigenvector v and its atom (v^T A_k v)_k at each row
    of dirs, from one batched LAPACK call.

    The atom g is a Kelley cut: lambda_max(c Id + sum_k m_k A_k) >= c + g . m
    for every m (the Rayleigh bound), with equality at m = dirs[i], c = 0.
    """
    jacobians = np.stack([jac.a for jac in system.jacobians])
    values, vecs = np.linalg.eigh(np.einsum("ik,kab->iab", dirs, jacobians))
    v = vecs[:, :, -1]
    return values[:, -1], v, np.einsum("ia,kab,ib->ik", v, jacobians, v)


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


def _nearest(atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over all segments between two atoms (a single atom counts), the point
    nearest 0, as the two atoms' indices, their weights and the point."""
    i, j = np.triu_indices(len(atoms))
    start, step = atoms[i], atoms[j] - atoms[i]
    length = np.einsum("pk,pk->p", step, step)
    t = np.clip(-np.einsum("pk,pk->p", start, step) / np.where(length > 0.0, length, 1.0), 0.0, 1.0)
    points = start + t[:, None] * step
    best = int(np.argmin(np.einsum("pk,pk->p", points, points)))
    return np.array([i[best], j[best]]), np.array([1.0 - t[best], t[best]]), points[best]


def _direction_or_witness(system: HyperbolicSystem) -> tuple[np.ndarray, float] | Infeasible:
    """A unit direction with phi < -tol and phi there, or a refusal.

    The scan's best direction is kept whenever it qualifies.  Otherwise the
    atoms of the pencils along +-e_k seed Kelley's cutting-plane method in
    the form of Gilbert, Johnson & Keerthi (1988): with x the point nearest
    0 of the hull of at most three atoms kept, the cuts bound phi below by
    -|x|, at u = -x/|x|.  That is the next direction tried; if it is not
    feasible, its atom joins the two atoms spanning x.  The search stops at
    a feasible direction, at x within tol of 0 or at three atoms whose
    triangle holds 0; it gives up, without a witness, after 200 cuts.
    """
    direction, value = _best_direction(system)
    tol = WITNESS_RTOL * (1.0 + max(np.abs(jac.a).sum() for jac in system.jacobians))
    # exactly sonic systems scan to phi = -1e-16, which is no feasible direction
    if value < -tol:
        return direction, value

    _, vectors, atoms = _top_atoms(system, np.vstack([np.eye(system.d), -np.eye(system.d)]))
    for _ in range(200):
        picks, weights, point = _nearest(atoms)
        if np.linalg.norm(point) <= tol:
            return Infeasible(direction, value, vectors[picks], weights)
        probe = -point / np.linalg.norm(point)
        phi, v, atom = _top_atoms(system, probe[None])
        if phi[0] < -tol:
            return probe, float(phi[0])
        vectors, atoms = np.vstack([vectors[picks], v]), np.vstack([atoms[picks], atom])
        # in the plane, 0 has barycentric coordinates in the kept triangle (a, b, c)
        # proportional to the signed areas of (0, b, c), (0, c, a) and (0, a, b)
        b, c = np.roll(atoms, -1, axis=0), np.roll(atoms, -2, axis=0)
        areas = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0] if system.d == 2 else np.zeros(3)
        if areas.sum() != 0.0 and ((areas >= 0.0).all() or (areas <= 0.0).all()):
            return Infeasible(direction, value, vectors, areas / areas.sum())
    return Infeasible(best_direction=direction, best_value=value)


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
    c_l = c_a - c_b strictly positive; an override must exceed c_b.
    """
    if c_b < 0.0:
        raise ValueError(f"c_b = {c_b} must be nonnegative")
    c_a = float(c_a_override) if c_a_override is not None else (1.0 if c_b == 0.0 else 2.0 * c_b + 1.0)
    if not c_a > c_b:
        raise ValueError(f"c_a = {c_a} must exceed c_b = {c_b}")
    if isinstance(found := _direction_or_witness(system), Infeasible):
        return found
    direction, value = found
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

    if isinstance(found := _direction_or_witness(system), Infeasible):
        return found
    direction, value = found
    remainder_top = max_eigenvalue(SymMatrix(remainder_matrix(system)))
    magnitude = max(remainder_top + c_a, SCALING_MARGIN * c_a) / (-value) * (1.0 + SCALING_MARGIN)
    for _ in range(60):
        if lmi_check_with_remainder(system, magnitude * direction, c_a):
            return LyapunovPotential(m=magnitude * direction, c_a=c_a, c_b=0.0)
        magnitude *= 2.0
    return Infeasible(best_direction=direction, best_value=value)
