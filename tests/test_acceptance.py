"""End-to-end acceptance suite.

One test per shipped guarantee, each with its tolerance and runtime budget
pinned in the assertions.  Test names carry the criterion number so the
verbose pytest report reads as a pass/fail line per criterion; run with -s
to see the measured numbers as well.
"""

import time

import numpy as np
import pytest

from hypstab.boundary import (
    SIDE_ORDER,
    assemble_boundary_data,
    boundary_integral,
    characteristic_traces,
    face_weights,
    partition_boundary,
    rectangle_faces,
    scalar_feedback_control,
    weighted_inflow_speed,
)
from hypstab.config import build_control, parse_config
from hypstab.oracle import weight_holds, witness_holds
from hypstab.potential import Infeasible, LyapunovPotential, find_potential, lmi_check
from hypstab.sim import ControlLaw, Grid, default_bump, run
from hypstab.symlin import SymMatrix, assemble_pencil, eigendecompose
from hypstab.sysdef import (
    EulerScenario,
    advection_system,
    euler_eigenstructure,
    euler_symmetrized,
)

from conftest import full_grid_scan, random_symmetric, random_system


def random_scenario(rng: np.random.Generator) -> EulerScenario:
    a_bar = float(rng.uniform(0.5, 2.0))
    ratio = float(rng.uniform(0.2, 3.0))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    v = ratio * a_bar * np.array([np.cos(theta), np.sin(theta)])
    return EulerScenario(float(rng.uniform(0.5, 2.0)), (v[0], v[1]), a_bar)


def test_criterion_1_eigenstructure_crosscheck():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    scenarios = [random_scenario(rng) for _ in range(20)]
    angles = rng.uniform(0.0, 2.0 * np.pi, 100)
    worst_lam, worst_vec = 0.0, 0.0
    for sc in scenarios:
        system = euler_symmetrized(sc)
        for theta in angles:
            nu = np.array([np.cos(theta), np.sin(theta)])
            closed = euler_eigenstructure(sc, nu)
            generic = eigendecompose(assemble_pencil(system.jacobians, nu))
            worst_lam = max(worst_lam, np.abs(closed.eigenvalues - generic.eigenvalues).max())
            for j in range(3):
                a, b = closed.T[:, j], generic.T[:, j]
                worst_vec = max(worst_vec, min(np.abs(a - b).max(), np.abs(a + b).max()))
    elapsed = time.perf_counter() - t0
    assert worst_lam <= 1e-10
    assert worst_vec <= 1e-8
    assert elapsed < 1.0
    print(f"[criterion 1] PASS eigenvalue dev {worst_lam:.2e}, "
          f"eigenvector dev {worst_vec:.2e}, {elapsed:.2f} s")


def test_criterion_2_orthogonality_and_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_ortho, worst_resid = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_symmetric(rng, n) * rng.uniform(0.1, 100.0)
        dec = eigendecompose(SymMatrix(a))
        t = dec.T
        worst_ortho = max(worst_ortho, np.abs(t.T @ t - np.eye(n)).max())
        resid = np.abs(t.T @ a @ t - np.diag(dec.eigenvalues)).max()
        worst_resid = max(worst_resid, resid / (1.0 + np.abs(a).max()))
    elapsed = time.perf_counter() - t0
    assert worst_ortho <= 1e-10
    assert worst_resid <= 1e-8
    assert elapsed < 1.0
    print(f"[criterion 2] PASS orthogonality {worst_ortho:.2e}, "
          f"scaled residual {worst_resid:.2e}, {elapsed:.2f} s")


def test_criterion_3_solver_agrees_with_grid_oracle():
    t0 = time.perf_counter()
    # The reference is the full grid scan of conftest.  Seed picked so that
    # no drawn system needs a weight magnitude beyond its window |m| <= 10
    # and no infeasible one sits within 1e-6 of the feasibility boundary;
    # borderline draws would make the two routes incomparable rather than
    # one of them wrong.
    rng = np.random.default_rng(3030)
    disagreements = 0
    feasible = 0
    for _ in range(50):
        system = random_system(rng, 2, int(rng.integers(1, 4)))
        res = find_potential(system, 0.0, c_a_override=1.0)
        solver_feasible = isinstance(res, LyapunovPotential)
        grid_feasible, witness = full_grid_scan(system, c=1.0)
        if solver_feasible != grid_feasible:
            disagreements += 1
        if solver_feasible:
            feasible += 1
            assert np.abs(res.m).max() <= 10.0
            assert lmi_check(system, res.m, 1.0)
            assert weight_holds(system, res.m, 1.0)
        else:
            assert res.best_value >= 1e-6
            assert witness_holds(system, res.vectors, res.weights)
        if witness is not None:
            assert lmi_check(system, witness, 1.0)
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 30.0
    print(f"[criterion 3] PASS {feasible}/50 feasible, 0 disagreements, {elapsed:.1f} s")


def test_criterion_4_euler_feasibility_boundary():
    t0 = time.perf_counter()
    ratios = np.linspace(0.2, 3.0, 20)
    assert np.abs(ratios - 1.0).min() > 1e-3  # no scenario in the sonic band
    rng = np.random.default_rng(404)
    for ratio in ratios:
        a_bar = float(rng.uniform(0.5, 2.0))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        v = ratio * a_bar * np.array([np.cos(theta), np.sin(theta)])
        system = euler_symmetrized(EulerScenario(1.0, (v[0], v[1]), a_bar))
        res = find_potential(system, 0.0)
        assert isinstance(res, LyapunovPotential) == (ratio > 1.0), ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 4] PASS 20 speed ratios classified correctly, {elapsed:.1f} s")


def test_criterion_5_boundary_partition_exactness():
    t0 = time.perf_counter()
    sc = EulerScenario(1.0, (3.0, 0.0), 1.0)
    part = partition_boundary(euler_symmetrized(sc), rectangle_faces((32, 32), (1.0, 1.0)))
    # Every face of a side shares its outward normal, so each family
    # enters or leaves through whole sides.
    upstream = SIDE_ORDER.index("x1-")
    downstream = SIDE_ORDER.index("x1+")
    everything = set(range(len(SIDE_ORDER)))
    assert len(part) == 128
    assert len(part.sides[upstream]) == len(part.sides[downstream]) == 32

    def entering(i):
        return {s for s in everything if part.inflow[s, i]}

    # slow acoustic family leaves only downstream
    assert everything - entering(0) == {downstream}
    assert entering(0) == everything - {downstream}
    # shear family enters only upstream
    assert entering(1) == {upstream}
    assert everything - entering(1) == everything - {upstream}
    # fast acoustic family: at the upstream face the normal speed -v1 + a
    # is negative once v1 > a, so it enters there too (and only there)
    assert entering(2) == {upstream}
    assert everything - entering(2) == everything - {upstream}

    # membership is exactly the sign of the characteristic speed, here
    # from the closed-form Euler eigenvalues along each side's normal
    for s, side in enumerate(part.sides):
        closed = euler_eigenstructure(sc, side.normal).eigenvalues
        assert np.array_equal(part.inflow[s], closed < 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 5] PASS 128 faces x 3 families classified exactly, {elapsed:.2f} s")


def test_criterion_6_discrete_decay_certificate():
    t0 = time.perf_counter()
    system = euler_symmetrized(EulerScenario(1.0, (3.0, 0.0), 1.0))
    pot = find_potential(system, 0.0)
    assert isinstance(pot, LyapunovPotential) and pot.c_b == 0.0
    grid = Grid((64, 64), (1.0, 1.0))
    rec = run(system, grid, default_bump(grid, 3), pot, ControlLaw.scalar(0.0),
              t_end=1.0, cfl=0.45)

    scale = max(1.0, float(np.abs(rec.boundary).max()))
    assert rec.boundary.min() >= -1e-9 * scale
    dt = rec.times[1] - rec.times[0]
    allowance = 1.0 + 5.0 * dt * 1e-8
    assert np.all(rec.lyapunov[1:] <= rec.lyapunov[:-1] * allowance)
    assert rec.c_fit is not None
    assert rec.c_fit >= 0.8 * pot.c_l
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 6] PASS min boundary {rec.boundary.min():.1e}, "
          f"c_fit {rec.c_fit:.1f} >= {0.8 * pot.c_l:.1f}, "
          f"L {rec.lyapunov[0]:.2e} -> {rec.lyapunov[-1]:.2e}, {elapsed:.1f} s")


def test_criterion_7_feedback_saturates_the_budget_exactly():
    system = euler_symmetrized(EulerScenario(1.0, (3.0, 0.0), 1.0))
    part = partition_boundary(system, rectangle_faces((1, 1), (1.0, 1.0)))
    rows = {"x1-": (0.0, 0.0, 0.0), "x1+": (1.0, 1.0, 0.0), "x2-": (1.0, 0.0, 0.0), "x2+": (1.0, 0.0, 0.0)}
    trace = tuple(np.array([rows[side]]) for side in SIDE_ORDER)
    flat = face_weights(part, None)  # mu = 0: the face areas
    q = characteristic_traces(part, trace)
    inflow_speed = weighted_inflow_speed(part, flat)
    # hand arithmetic: outflow budget 9, total inflow weight 11
    budget = 9.0

    for sign in (1.0, -1.0):
        level = scalar_feedback_control(part, q, flat, inflow_speed, c=sign)
        assert abs(11.0 * level * level - budget) <= 1e-12 * budget
        ghost = assemble_boundary_data(part, q, np.full(3, level))
        assert abs(boundary_integral(part, ghost, flat)) <= 1e-12 * budget

    # control.mode = componentwise runs the same law at C = 1
    law = build_control(parse_config("control.mode = componentwise\n"))
    level = scalar_feedback_control(part, q, flat, inflow_speed, c=law.gain)
    ghost = assemble_boundary_data(part, q, np.full(3, level))
    assert abs(boundary_integral(part, ghost, flat)) <= 1e-12 * budget
    print(f"[criterion 7] PASS injected energy matches the 9/11 budget to 1e-12")


def test_criterion_8_inadmissible_datum_is_detected():
    t0 = time.perf_counter()
    system = euler_symmetrized(EulerScenario(1.0, (3.0, 0.0), 1.0))
    pot = find_potential(system, 0.0)
    grid = Grid((32, 32), (1.0, 1.0))
    rec = run(system, grid, default_bump(grid, 3), pot, ControlLaw.prescribed(5.0),
              t_end=0.25, cfl=0.45)
    negative = int((rec.boundary < 0.0).sum())
    elapsed = time.perf_counter() - t0
    assert negative > 0
    assert elapsed < 10.0
    print(f"[criterion 8] PASS {negative}/{rec.boundary.size} steps flagged, "
          f"min boundary {rec.boundary.min():.1f}, {elapsed:.1f} s")


def smooth_step(x: np.ndarray) -> np.ndarray:
    s = np.clip((x - 0.15) / 0.30, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def test_criterion_9_advection_convergence_to_exact_translation():
    t0 = time.perf_counter()
    system = advection_system(1.0)
    pot = find_potential(system, 0.0)
    t_end = 0.5
    errors = []
    for cells in (64, 128, 256):
        grid = Grid((cells,), (1.0,))
        x = grid.cell_centers()[:, 0]
        rec = run(system, grid, smooth_step(x)[:, None], pot, ControlLaw.zero(),
                  t_end=t_end, cfl=0.45)
        exact = smooth_step(x - t_end)
        errors.append(float(np.sum(np.abs(rec.final_state.w[:, 0] - exact)) / cells))
        assert errors[-1] <= 2.0 / cells  # first-order bound with C = 2
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - t0
    assert all(order >= 0.7 for order in orders)
    assert elapsed < 10.0
    print(f"[criterion 9] PASS L1 errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, "
          f"orders {orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.1f} s")
