"""The pruned grid oracle against the full grid scan it replaces.

``full_grid_scan`` evaluates every one of the 401**2 grid points in chunks
of rows, as the oracle did before it used Rayleigh cuts; the oracle must
return the same verdict and the same first witness, bit for bit.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from conftest import random_symmetric, random_system
from hypstab import oracle
from hypstab.config import build_system, parse_config
from hypstab.oracle import GRID_POINTS, brute_force_feasible, rayleigh_cuts
from hypstab.symlin import SymMatrix
from hypstab.sysdef import EulerScenario, HyperbolicSystem, euler_symmetrized

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
# ROADMAP narrow-cone system: speed vectors (A_1[i, i], A_2[i, i]).
NARROW_CONE_SPEEDS = ((0.3498, 0.426), (-1.4986, -1.8225), (-0.9026, -1.0948))


def full_grid_scan(system, c=1.0, m_max=10.0, points=GRID_POINTS, chunk_rows=64):
    """Reference: test all grid points, first hit in row-major order."""
    a1 = system.jacobians[0].a
    a2 = system.jacobians[1].a
    n = a1.shape[0]
    axis = np.linspace(-m_max, m_max, points)
    slack = 1e-10 * (1.0 + c)
    eye = c * np.eye(n)
    for start in range(0, points, chunk_rows):
        m1 = axis[start : start + chunk_rows]
        block = (eye + m1[:, None, None, None] * a1 + axis[None, :, None, None] * a2).reshape(-1, n, n)
        top = np.linalg.eigvalsh(block)[:, -1]
        hits = np.flatnonzero(top <= slack)
        if hits.size:
            i, j = divmod(int(hits[0]), points)
            return True, np.array([m1[i], axis[j]])
    return False, None


def explicit(a1, a2) -> HyperbolicSystem:
    a1, a2 = (a1 + a1.T) / 2.0, (a2 + a2.T) / 2.0
    return HyperbolicSystem((SymMatrix(a1), SymMatrix(a2)), np.zeros(a1.shape), label="explicit")


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


SYSTEMS = {
    "supersonic_euler.cfg": lambda: shipped("supersonic_euler.cfg"),
    "subsonic_euler.cfg": lambda: shipped("subsonic_euler.cfg"),
    **{f"euler_{r}": (lambda r=r: euler(r)) for r in (0.95, 0.999, 1.001, 1.05)},
    "narrow_cone": lambda: explicit(*(np.diag(s) for s in np.array(NARROW_CONE_SPEEDS).T)),
    **{f"feasible_n{n}": (lambda n=n: feasible_pair(np.random.default_rng(n), n)) for n in (3, 6, 10)},
    **{f"infeasible_n{n}": (lambda n=n: infeasible_pair(np.random.default_rng(n), n)) for n in (3, 6, 10)},
    "scaled_1e-3": lambda: scaled(5, 1e-3),
    "scaled_1e3": lambda: scaled(6, 1e3),
}


@pytest.mark.parametrize("c", [1.0, 0.37])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_matches_the_full_grid_scan(name, c):
    system = SYSTEMS[name]()
    feasible, witness = brute_force_feasible(system, c=c)
    ref_feasible, ref_witness = full_grid_scan(system, c=c)
    assert feasible == ref_feasible
    if ref_witness is None:
        assert witness is None
    else:
        assert np.array_equal(witness, ref_witness)


def test_both_verdicts_are_covered():
    verdicts = {name: brute_force_feasible(make())[0] for name, make in SYSTEMS.items()}
    assert verdicts["supersonic_euler.cfg"] and verdicts["feasible_n10"]
    assert not verdicts["subsonic_euler.cfg"] and not verdicts["infeasible_n10"]
    assert not verdicts["narrow_cone"]  # the |m| <= 10 blind spot remains


@pytest.mark.parametrize("name", ["supersonic_euler.cfg", "euler_0.999", "infeasible_n6", "scaled_1e3", "narrow_cone"])
def test_cuts_bound_the_top_eigenvalue(name):
    system = SYSTEMS[name]()
    a1, a2 = (j.a for j in system.jacobians)
    rng = np.random.default_rng(17)
    axis = np.linspace(-10.0, 10.0, GRID_POINTS)
    m = axis[rng.integers(GRID_POINTS, size=(200, 2))]
    c = 0.37
    top = np.linalg.eigvalsh(c * np.eye(a1.shape[0]) + m[:, :1, None] * a1 + m[:, 1:, None] * a2)[:, -1]
    cuts = c + m @ rayleigh_cuts(a1, a2).T  # (points, cuts)
    # 1000 times tighter than the margin the oracle allows for rounding
    scale = 1.0 + c + 10.0 * (np.abs(a1).sum() + np.abs(a2).sum())
    assert (cuts <= top[:, None] + 1e-12 * scale).all()


@pytest.mark.parametrize(
    "name, limit",
    [("subsonic_euler.cfg", 0), ("infeasible_n6", 0), ("supersonic_euler.cfg", GRID_POINTS), ("feasible_n10", GRID_POINTS)],
)
def test_evaluates_almost_none_of_the_grid(name, limit, monkeypatch):
    system = SYSTEMS[name]()
    evaluated = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        evaluated.append(np.shape(a)[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(oracle.np.linalg, "eigvalsh", counting)
    feasible, _ = brute_force_feasible(system)
    assert feasible == (limit > 0)
    assert sum(evaluated) <= limit


def test_rejects_other_dimensions():
    with pytest.raises(ValueError):
        brute_force_feasible(random_system(np.random.default_rng(0), 1, 2))
