"""The solver's certificates against the checks of ``hypstab.oracle``.

Every verdict must carry a certificate that its check accepts: a weight m
for ``weight_holds`` or a dual witness for ``witness_holds``, and the checks
must reject tampered certificates.  The full 401**2 grid scan of conftest is
a one-sided reference: a grid point that passes proves feasibility, and a
miss says nothing beyond its window |m| <= 10.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from conftest import full_grid_scan, random_symmetric, random_system
from hypstab.config import build_system, parse_config
from hypstab.oracle import weight_holds, witness_holds
from hypstab.potential import WITNESS_RTOL, LyapunovPotential, _top_atoms, find_potential
from hypstab.symlin import SymMatrix
from hypstab.sysdef import EulerScenario, HyperbolicSystem, euler_symmetrized

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
# ROADMAP narrow-cone system: speed vectors (A_1[i, i], A_2[i, i]).
NARROW_CONE_SPEEDS = ((0.3498, 0.426), (-1.4986, -1.8225), (-0.9026, -1.0948))


def explicit(*jacobians) -> HyperbolicSystem:
    jacobians = [(a + a.T) / 2.0 for a in jacobians]
    return HyperbolicSystem(tuple(SymMatrix(a) for a in jacobians), np.zeros(jacobians[0].shape), label="explicit")


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def feasible_pair(rng, n):
    """A_1 with spectrum in [1, 2] and |A_2| <= 0.5: m = (-M, 0) works for large M."""
    q = _orthogonal(rng, n)
    a1 = q @ np.diag(rng.uniform(1.0, 2.0, n)) @ q.T
    a2 = random_symmetric(rng, n)
    a2 *= rng.uniform(0.2, 0.5) / np.abs(np.linalg.eigvalsh(a2)).max()
    return explicit(a1, a2)


def infeasible_pair(rng, n):
    """A 2x2 block s*(diag(1, -1), [[0, 1], [1, 0]]) has eigenvalues +-s along
    every direction, so no m makes the pencil negative semidefinite."""
    q = _orthogonal(rng, n)
    s = rng.uniform(0.5, 2.0)
    b1, b2 = np.zeros((n, n)), np.zeros((n, n))
    b1[:2, :2] = s * np.diag([1.0, -1.0])
    b2[:2, :2] = s * np.array([[0.0, 1.0], [1.0, 0.0]])
    b1[2:, 2:] = random_symmetric(rng, n - 2)
    b2[2:, 2:] = random_symmetric(rng, n - 2)
    return explicit(q @ b1 @ q.T, q @ b2 @ q.T)


def euler(ratio, a_bar=2.0, angle=0.6):
    v = ratio * a_bar * np.array([np.cos(angle), np.sin(angle)])
    return euler_symmetrized(EulerScenario(1.0, (v[0], v[1]), a_bar))


def shipped(name):
    return build_system(parse_config((CONFIGS / name).read_text()))


def scaled(seed, factor):
    base = random_system(np.random.default_rng(seed), 2, 4)
    return explicit(factor * base.jacobians[0].a, factor * base.jacobians[1].a)


# Two-dimensional systems that the grid reference can scan.
GRID_SYSTEMS = {
    "supersonic_euler.cfg": lambda: shipped("supersonic_euler.cfg"),
    "subsonic_euler.cfg": lambda: shipped("subsonic_euler.cfg"),
    **{f"euler_{r}": (lambda r=r: euler(r)) for r in (0.95, 0.999, 1.001, 1.05)},
    "narrow_cone": lambda: explicit(*(np.diag(s) for s in np.array(NARROW_CONE_SPEEDS).T)),
    **{f"feasible_n{n}": (lambda n=n: feasible_pair(np.random.default_rng(n), n)) for n in (3, 6, 10)},
    **{f"infeasible_n{n}": (lambda n=n: infeasible_pair(np.random.default_rng(n), n)) for n in (3, 6, 10)},
    "scaled_1e-3": lambda: scaled(5, 1e-3),
    "scaled_1e3": lambda: scaled(6, 1e3),
}
SYSTEMS = {
    **GRID_SYSTEMS,
    **{f"zero_d{d}": (lambda d=d: explicit(*[np.zeros((2, 2))] * d)) for d in (1, 2)},
    "advection_1d": lambda: explicit(np.array([[-0.7]])),
    "split_1d": lambda: explicit(np.diag([1.0, -0.25, 0.5])),
    "advection_1d.cfg": lambda: shipped("advection_1d.cfg"),
    # exactly sonic: 0 lies on the boundary of K, so no weight exists
    **{f"sonic_{k}": (lambda k=k: euler(1.0, a_bar=1.3, angle=2.0 * np.pi * k / 13)) for k in range(13)},
}


def certificate_holds(system, result) -> bool:
    if isinstance(result, LyapunovPotential):
        return weight_holds(system, result.m, result.c_a)
    return witness_holds(system, result.vectors, result.weights)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_verdict_passes_its_check(name):
    system = SYSTEMS[name]()
    for c_a in (None, 0.37):
        assert certificate_holds(system, find_potential(system, 0.0, c_a_override=c_a))


@pytest.mark.parametrize("c", [1.0, 0.37])
@pytest.mark.parametrize("name", sorted(GRID_SYSTEMS))
def test_matches_the_full_grid_scan(name, c):
    """The verdicts agree wherever the grid can see: the grid finds a weight
    exactly when the solver's weight lies within its window."""
    system = GRID_SYSTEMS[name]()
    result = find_potential(system, 0.0, c_a_override=c)
    grid_feasible, witness = full_grid_scan(system, c=c)
    feasible = isinstance(result, LyapunovPotential)
    assert grid_feasible == (feasible and np.abs(result.m).max() <= 10.0)
    assert certificate_holds(system, result)
    if witness is not None:
        assert weight_holds(system, witness, c)


def test_both_verdicts_are_covered():
    verdicts = {name: isinstance(find_potential(make(), 0.0), LyapunovPotential) for name, make in SYSTEMS.items()}
    assert verdicts["supersonic_euler.cfg"] and verdicts["feasible_n10"] and verdicts["advection_1d"]
    assert not verdicts["subsonic_euler.cfg"] and not verdicts["infeasible_n10"] and not verdicts["split_1d"]
    assert not any(verdicts[f"sonic_{k}"] for k in range(13))
    assert not verdicts["zero_d1"] and not verdicts["zero_d2"]
    # feasible, with a weight far outside the grid reference's window
    assert verdicts["narrow_cone"]
    assert np.abs(find_potential(SYSTEMS["narrow_cone"](), 0.0).m).max() > 1000.0


@pytest.mark.parametrize("name", ["supersonic_euler.cfg", "euler_0.999", "infeasible_n6", "scaled_1e3", "narrow_cone"])
def test_cuts_bound_the_top_eigenvalue(name):
    """Each atom the witness search uses is a Kelley cut: c + g . m bounds
    lambda_max(c*Id + sum_k m_k A_k) below, and touches it at g's direction."""
    system = SYSTEMS[name]()
    a1, a2 = (j.a for j in system.jacobians)
    theta = 2.0 * np.pi * np.arange(32) / 32
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    phi, _, atoms = _top_atoms(system, dirs)
    rng = np.random.default_rng(17)
    m = rng.uniform(-10.0, 10.0, (200, 2))
    c = 0.37
    top = np.linalg.eigvalsh(c * np.eye(a1.shape[0]) + m[:, :1, None] * a1 + m[:, 1:, None] * a2)[:, -1]
    scale = 1.0 + c + 10.0 * (np.abs(a1).sum() + np.abs(a2).sum())
    assert (c + m @ atoms.T <= top[:, None] + 1e-12 * scale).all()
    assert np.abs(np.einsum("ik,ik->i", atoms, dirs) - phi).max() <= 1e-12 * scale


def test_rejects_other_dimensions():
    system = SYSTEMS["supersonic_euler.cfg"]()
    result = find_potential(SYSTEMS["subsonic_euler.cfg"](), 0.0)
    vectors, weights = result.vectors, result.weights
    assert witness_holds(SYSTEMS["subsonic_euler.cfg"](), vectors, weights)
    assert not weight_holds(system, [-1.0], 1.0)
    assert not weight_holds(system, [-1.0, 0.0, 0.0], 1.0)
    assert not weight_holds(system, [[-1.0, 0.0]], 1.0)
    assert not witness_holds(SYSTEMS["advection_1d"](), vectors, weights)
    assert not witness_holds(SYSTEMS["infeasible_n6"](), vectors, weights)
    assert not witness_holds(system, vectors[:, :2], weights)
    assert not witness_holds(system, vectors, weights[:-1])
    assert not witness_holds(system, vectors[:0], weights[:0])
    assert not witness_holds(system, None, None)


def test_tampered_certificates_are_rejected():
    feasible = SYSTEMS["supersonic_euler.cfg"]()
    pot = find_potential(feasible, 0.0)
    assert weight_holds(feasible, pot.m, pot.c_a)
    assert not weight_holds(feasible, -pot.m, pot.c_a)
    assert not weight_holds(feasible, 0.99 * pot.m, pot.c_a)
    assert not weight_holds(feasible, np.full(2, np.nan), pot.c_a)

    system = SYSTEMS["infeasible_n3"]()
    res = find_potential(system, 0.0)
    vectors, weights = res.vectors, res.weights
    assert witness_holds(system, vectors, weights)
    # a negative weight on a repeated vector leaves the combination and the sum unchanged
    repeated = np.vstack([vectors, vectors[:1]])
    assert witness_holds(system, repeated, np.append(weights, 0.0))
    assert not witness_holds(system, repeated, np.append(weights + np.eye(weights.size)[0] * 0.25, -0.25))
    assert not witness_holds(system, vectors, 1.01 * weights)
    assert not witness_holds(system, 1.001 * vectors, weights)
    assert not witness_holds(system, vectors, np.full(weights.shape, np.nan))
    assert not witness_holds(system, np.full(vectors.shape, np.nan), weights)
    # another system's witness: same shapes, but its combination does not vanish here
    other = find_potential(SYSTEMS["subsonic_euler.cfg"](), 0.0)
    assert not witness_holds(system, other.vectors, other.weights)
    assert not witness_holds(SYSTEMS["subsonic_euler.cfg"](), vectors, weights)


def test_shifted_stress_set_verdicts_hold():
    """Random systems shifted by A_k -> A_k - p_k Id, which moves K by -p.
    With p = g + depth*u for g the atom at direction u, 0 lies at distance
    depth outside K; with p a point between g and an interior atom
    combination, 0 lies in K.  Depths span 1e-10 to 1."""
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        jacobians = [random_symmetric(rng, n) for _ in range(2)]
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        _, _, g = _top_atoms(explicit(*jacobians), u[None])
        _, _, others = _top_atoms(explicit(*jacobians), rng.normal(size=(3, 2)))
        depth = 10.0 ** rng.uniform(-10.0, 0.0)
        outside = bool(rng.integers(2))
        if outside:
            p = g[0] + depth * u
        else:
            inner = others.mean(axis=0) - g[0]
            p = g[0] + min(1.0, depth / max(np.linalg.norm(inner), 1e-300)) * inner
        system = explicit(*(a - pk * np.eye(n) for a, pk in zip(jacobians, p)))
        result = find_potential(system, 0.0)
        assert certificate_holds(system, result)
        if not outside:
            assert not isinstance(result, LyapunovPotential)
        elif depth > WITNESS_RTOL * (1.0 + max(np.abs(j.a).sum() for j in system.jacobians)):
            assert isinstance(result, LyapunovPotential)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_verdict_is_invariant_under_scaling_and_rotation(name):
    system = SYSTEMS[name]()
    verdict = isinstance(find_potential(system, 0.0), LyapunovPotential)
    rng = np.random.default_rng(99)
    q = _orthogonal(rng, system.n)
    for s in (1e-3, 7.0, 1e3):
        moved = explicit(*(s * q.T @ jac.a @ q for jac in system.jacobians))
        result = find_potential(moved, 0.0)
        assert isinstance(result, LyapunovPotential) == verdict
        assert certificate_holds(moved, result)
