import numpy as np
import pytest

from hypstab.boundary import (
    SIDE_ORDER,
    assemble_boundary_data,
    boundary_integral,
    characteristic_traces,
    control_inequality_holds,
    face_weights,
    partition_boundary,
    rectangle_faces,
    scalar_feedback_control,
    weighted_inflow_speed,
)
from hypstab.config import build_control, parse_config
from hypstab.errors import MissingControl, NoInflow, SizeMismatch
from hypstab.potential import LyapunovPotential, find_potential
from hypstab.sim import ControlLaw, Grid, default_bump, run
from hypstab.symlin import DIAG_RESIDUAL_RTOL, ORTHOGONALITY_TOL, SymMatrix, assemble_pencil, eigendecompose
from hypstab.sysdef import EulerScenario, HyperbolicSystem, advection_system, characteristic_transform

# A constant weight: the sim needs a potential, these tests only its m = 0.
FLAT_1D = LyapunovPotential(m=np.zeros(1), c_a=1.0, c_b=0.0)


@pytest.fixture
def toy(supersonic):
    """One-cell box: four one-face sides, hand-checkable budget arithmetic."""
    part = partition_boundary(supersonic, rectangle_faces((1, 1), (1.0, 1.0)))
    rows = {"x1-": (0.0, 0.0, 0.0), "x1+": (1.0, 1.0, 0.0), "x2-": (1.0, 0.0, 0.0), "x2+": (1.0, 0.0, 0.0)}
    trace = tuple(np.array([rows[side]]) for side in SIDE_ORDER)
    return part, trace


def flat(part):
    """Face weights of mu = 0: the face areas."""
    return face_weights(part, None)


def feedback(part, trace, c):
    """scalar_feedback_control with flat weights from physical traces."""
    weights = flat(part)
    q = characteristic_traces(part, trace)
    return scalar_feedback_control(part, q, weights, weighted_inflow_speed(part, weights), c)


def componentwise_law():
    return build_control(parse_config("control.mode = componentwise\n"))


def test_face_validation():
    with pytest.raises(ValueError):
        rectangle_faces((4, 4), (-1.0, 1.0))
    with pytest.raises(SizeMismatch):
        rectangle_faces((4, 4, 4), (1.0, 1.0, 1.0))


def test_rectangle_faces_1d():
    boundary = rectangle_faces((8,), (2.0,))
    assert len(boundary) == 2
    low, high = boundary.sides
    assert low.centers.tolist() == [[0.0]] and high.centers.tolist() == [[2.0]]
    assert low.area == high.area == 1.0
    assert low.normal.tolist() == [-1.0] and high.normal.tolist() == [1.0]


def test_rectangle_faces_2d_geometry():
    boundary = rectangle_faces((4, 2), (1.0, 1.0))
    assert len(boundary) == 2 * (4 + 2)
    assert [(s.axis, s.orientation) for s in boundary.sides] == [(0, -1), (0, 1), (1, -1), (1, 1)]
    assert [len(s) for s in boundary.sides] == [2, 2, 4, 4]
    for s in boundary.sides:
        # measure is the transverse spacing
        assert s.area == pytest.approx(0.5 if s.axis == 0 else 0.25)
        # centers sit on the box edge, mid-cell transversely
        assert np.all(s.centers[:, s.axis] == (1.0 if s.orientation > 0 else 0.0))
        across = s.centers[:, 1 - s.axis]
        assert across.tolist() == ([0.25, 0.75] if s.axis == 0 else [0.125, 0.375, 0.625, 0.875])


def test_partition_supersonic_counts(supersonic):
    part = partition_boundary(supersonic, rectangle_faces((8, 8), (1.0, 1.0)))
    counts_minus = sum(len(s) * mask for s, mask in zip(part.sides, part.inflow))
    # slow acoustic enters everywhere but downstream; shear and fast
    # acoustic enter only upstream
    assert counts_minus.tolist() == [24, 8, 8]
    assert (len(part) - counts_minus).tolist() == [8, 24, 24]
    assert part.has_inflow()


def test_partition_matches_eigenvalue_signs(supersonic):
    part = partition_boundary(supersonic, rectangle_faces((4, 4), (1.0, 1.0)))
    assert part.inflow.shape == (4, part.n)
    for side, eig, inflow in zip(part.sides, part.eigs, part.inflow):
        pencil = sum(nu * jac.a for nu, jac in zip(side.normal, supersonic.jacobians))
        assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(pencil), atol=1e-12)
        assert np.array_equal(inflow, eig.eigenvalues < 0.0)


def test_face_weights_with_potential(supersonic):
    part = partition_boundary(supersonic, rectangle_faces((2, 4), (2.0, 1.0)))
    pot = LyapunovPotential(m=np.array([-1.0, 0.5]), c_a=1.0, c_b=0.0)
    weights = face_weights(part, pot)
    for side, w in zip(part.sides, weights):
        expect = side.area * np.exp(-side.centers[:, 0] + 0.5 * side.centers[:, 1])
        assert w == pytest.approx(expect, rel=1e-15)
    assert [w.tolist() for w in face_weights(part, None)] == [[0.25] * 4, [0.25] * 4, [1.0] * 2, [1.0] * 2]


def test_characteristic_traces_match_closed_form(supersonic, toy):
    part, trace = toy
    q = characteristic_traces(part, trace)
    sc = EulerScenario(1.0, (3.0, 0.0), 1.0)
    for side, q_side, t_side in zip(part.sides, q, trace):
        expect = characteristic_transform(sc, side.normal, t_side[0])
        assert np.allclose(q_side[0], expect, atol=1e-12)
    with pytest.raises(SizeMismatch):
        characteristic_traces(part, trace[:3])


def test_boundary_integral_open_loop_frozen(toy):
    part, trace = toy
    # outflow contributes 8 through x1+, the traced x2 faces cancel, x1- is 0
    assert boundary_integral(part, trace, flat(part)) == pytest.approx(8.0, abs=1e-12)
    assert boundary_integral(part, [np.zeros((1, 3))] * 4, flat(part)) == 0.0


def test_scalar_feedback_frozen(toy):
    part, trace = toy
    # outflow budget 9, inflow weight total 11
    assert weighted_inflow_speed(part, flat(part)) == pytest.approx(-11.0, rel=1e-12)
    u = feedback(part, trace, c=1.0)
    assert u == pytest.approx(np.sqrt(9.0 / 11.0), rel=1e-12)
    assert feedback(part, trace, c=-0.5) == pytest.approx(-u / 2.0, rel=1e-12)


def test_scalar_feedback_saturates_budget(toy):
    part, trace = toy
    u = feedback(part, trace, c=1.0)
    ghost = assemble_boundary_data(part, characteristic_traces(part, trace), np.full(3, u))
    assert abs(boundary_integral(part, ghost, flat(part))) <= 1e-12 * 9.0


def test_componentwise_controls_frozen(toy):
    # control.mode = componentwise is scalar feedback at C = 1
    part, trace = toy
    law = componentwise_law()
    assert law == ControlLaw.scalar(1.0)
    level = feedback(part, trace, c=law.gain)
    assert level == pytest.approx(np.sqrt(9.0 / 11.0), rel=1e-12)
    ghost = assemble_boundary_data(part, characteristic_traces(part, trace), np.full(3, level))
    assert abs(boundary_integral(part, ghost, flat(part))) <= 1e-12 * 9.0


def test_componentwise_skips_characteristics_without_inflow():
    # diag(1, 0) never has an inflow slot for the zero-speed
    # characteristic, which must stay uncontrolled at level 0
    sys_ = advection_system([1.0, 0.0])
    grid = Grid((8,), (1.0,))
    part = partition_boundary(sys_, rectangle_faces(grid.cells_per_axis, grid.lengths))
    assert part.inflow.tolist() == [[True, False], [False, False]]
    rec = run(sys_, grid, default_bump(grid, 2), FLAT_1D, componentwise_law(), t_end=0.1)
    assert rec.controls[:, 0].max() > 0.0
    assert not rec.controls[:, 1].any()


def test_no_inflow_raises():
    sys_ = advection_system(0.0)
    grid = Grid((8,), (1.0,))
    part = partition_boundary(sys_, rectangle_faces(grid.cells_per_axis, grid.lengths))
    assert not part.has_inflow()
    with pytest.raises(NoInflow):
        scalar_feedback_control(part, [np.ones((1, 1))] * 2, flat(part), weighted_inflow_speed(part, flat(part)))
    # the closed loop degrades to all-zero controls instead
    rec = run(sys_, grid, default_bump(grid, 1), FLAT_1D, componentwise_law(), t_end=0.1)
    assert not rec.controls.any()


def test_control_inequality(toy):
    part, trace = toy
    u = feedback(part, trace, c=0.9)
    controls = [np.where(inflow, u, np.nan)[None, :] for inflow in part.inflow]
    assert control_inequality_holds(part, controls, trace, flat(part))
    controls = [np.where(inflow, 5.0, np.nan)[None, :] for inflow in part.inflow]
    assert not control_inequality_holds(part, controls, trace, flat(part))


def test_control_inequality_rejects_missing_values(toy):
    part, trace = toy
    with pytest.raises(MissingControl):
        control_inequality_holds(part, [np.full((1, 3), np.nan)] * 4, trace, flat(part))
    with pytest.raises(SizeMismatch):
        control_inequality_holds(part, [np.zeros((1, 2))] * 4, trace, flat(part))


def test_assemble_is_pure_injection(toy):
    part, trace = toy
    levels = np.array([0.3, 0.2, 0.1])
    q_trace = characteristic_traces(part, trace)
    kept = [q.copy() for q in q_trace]
    ghost = assemble_boundary_data(part, q_trace, levels)
    q_ghost = characteristic_traces(part, ghost)
    for inflow, qt, qg, qk in zip(part.inflow, q_trace, q_ghost, kept):
        assert np.array_equal(qt, qk)
        expect = np.where(inflow, levels, qt)
        assert qg == pytest.approx(expect, abs=1e-12)


def test_repeated_inflow_eigenvalue_pin():
    # A_1 = Q diag(1, 1, 2) Q^T with Q mixing the repeated eigenspace into
    # every coordinate, so side x1- has inflow eigenvalue -1 twice.  Any
    # orthonormal basis of that eigenspace is a valid eigenbasis, and the
    # uniform control's ghost state depends on the one LAPACK returns.
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    a1 = q @ np.diag([1.0, 1.0, 2.0]) @ q.T
    a2 = 0.2 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, -1.0]])
    system = HyperbolicSystem((SymMatrix(a1), SymMatrix(a2)), np.zeros((3, 3)))

    pencil = assemble_pencil(system.jacobians, np.array([-1.0, 0.0]))
    dec = eigendecompose(pencil)
    t, lam = dec.T, dec.eigenvalues
    assert np.abs(lam - [-2.0, -1.0, -1.0]).max() <= 1e-12
    assert np.abs(t.T @ t - np.eye(3)).max() <= ORTHOGONALITY_TOL
    for col in t.T:
        assert col[np.abs(col) > 1e-12][0] > 0.0
    assert np.abs(t.T @ pencil.a @ t - np.diag(lam)).max() <= DIAG_RESIDUAL_RTOL * (1.0 + np.abs(pencil.a).max())
    # the repeated eigenspace itself is basis-free
    assert np.abs(t[:, 1:] @ t[:, 1:].T - q[:, :2] @ q[:, :2].T).max() <= 1e-12

    part = partition_boundary(system, rectangle_faces((4, 4), (1.0, 1.0)))
    assert part.inflow[SIDE_ORDER.index("x1-")].all()

    pot = find_potential(system, 0.0)
    assert isinstance(pot, LyapunovPotential)
    grid = Grid((32, 32), (1.0, 1.0))
    rec = run(system, grid, default_bump(grid, 3), pot, ControlLaw.scalar(1.0), t_end=0.2)
    assert rec.controls[1:].any()
    certificate = np.log(rec.lyapunov) - np.log(rec.lyapunov[0]) + pot.c_l * rec.times
    assert certificate.max() <= 1e-9
