"""Boundary partition and feedback control laws on axis-aligned boxes.

A box has 2 d sides, and the outward normal is constant on each of them, so
one eigendecomposition of the Jacobian pencil along that normal serves every
face of a side.  A characteristic with negative speed there enters the
domain through the whole side and can carry prescribed data (the
controllable part); nonnegative speeds leave the domain and are traced from
the interior.  The weighted flux of |q|^2 through the boundary is the
quantity whose sign the feedback laws protect.

Per-face data (traces, controls, ghost states, weights) travels as one
array per side, in SIDE_ORDER, with one row per face of that side.  The
quadratures take the weights from face_weights as an argument, so a
caller that evaluates them every step computes the weights once.  In the
same way the feedback law and the ghost assembly take the characteristic
traces q from one characteristic_traces call, and the feedback law takes
its denominator from weighted_inflow_speed, a constant of the run.  The
closed loop uses the unchecked forms _project and _inject, and takes
the boundary integral of its ghost states from their characteristic
values, which it already holds, instead of projecting them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingControl, NoInflow, SizeMismatch
from .potential import LyapunovPotential
from .symlin import EigenDecomposition, assemble_pencil, eigendecompose
from .sysdef import HyperbolicSystem

SIDE_ORDER = ("x1-", "x1+", "x2-", "x2+")
INEQUALITY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class BoundarySide:
    """The faces of one box side: outward normal orientation * e_axis,
    face centres (one row per face, ordered by cell index) and the face
    area they share."""

    axis: int
    orientation: int
    centers: np.ndarray
    area: float

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def normal(self) -> np.ndarray:
        normal = np.zeros(self.centers.shape[1])
        normal[self.axis] = float(self.orientation)
        return normal


@dataclass(frozen=True, eq=False)
class BoxBoundary:
    """The sides of a box grid in SIDE_ORDER; len() counts their faces."""

    sides: tuple[BoundarySide, ...]

    def __len__(self) -> int:
        return sum(len(side) for side in self.sides)


def rectangle_faces(cells_per_axis, lengths) -> BoxBoundary:
    """Boundary sides of a box grid, in SIDE_ORDER.

    In one dimension the boundary measure is a point count, so each of the
    two endpoint faces has area 1.
    """
    ns = tuple(int(n) for n in np.atleast_1d(cells_per_axis))
    ls = tuple(float(l) for l in np.atleast_1d(lengths))
    d = len(ns)
    if d not in (1, 2) or len(ls) != d:
        raise SizeMismatch(f"unsupported box description: cells {ns}, lengths {ls}")
    dx = tuple(l / n for l, n in zip(ls, ns))
    if not min(dx) > 0.0:
        raise ValueError(f"cell spacing {dx} must be positive")

    sides = []
    for axis in range(d):
        for orientation in (-1, 1):
            edge = ls[axis] if orientation > 0 else 0.0
            if d == 1:
                centers, area = np.array([[edge]]), 1.0
            else:
                other = 1 - axis
                centers = np.empty((ns[other], 2))
                centers[:, axis] = edge
                centers[:, other] = (np.arange(ns[other]) + 0.5) * dx[other]
                area = dx[other]
            centers.setflags(write=False)
            sides.append(BoundarySide(axis, orientation, centers, area))
    return BoxBoundary(tuple(sides))


@dataclass(frozen=True, eq=False)
class BoundaryPartition(BoxBoundary):
    """Sides with the pencil eigendata along their outward normals.

    inflow[s, i] is True when characteristic i enters the domain through
    side s (negative speed there); it then enters through every face of
    the side, and otherwise leaves through every one.
    """

    eigs: tuple[EigenDecomposition, ...]
    inflow: np.ndarray

    @property
    def n(self) -> int:
        return self.inflow.shape[1]

    def has_inflow(self) -> bool:
        return bool(self.inflow.any())


def partition_boundary(system: HyperbolicSystem, boundary: BoxBoundary) -> BoundaryPartition:
    """Classify every characteristic on every side by the sign of its speed."""
    sides = boundary.sides
    if not sides:
        raise SizeMismatch("boundary has no sides")
    if any(side.centers.shape[1] != system.d for side in sides):
        raise SizeMismatch("face dimension does not match the system")
    eigs = tuple(eigendecompose(assemble_pencil(system.jacobians, side.normal)) for side in sides)
    inflow = np.array([eig.eigenvalues < 0.0 for eig in eigs])
    inflow.setflags(write=False)
    return BoundaryPartition(sides=sides, eigs=eigs, inflow=inflow)


def _per_side(partition: BoundaryPartition, arrays, what: str) -> tuple[np.ndarray, ...]:
    """One (faces, n) array per side, checked against the partition."""
    arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
    expect = tuple((len(side), partition.n) for side in partition.sides)
    got = tuple(a.shape for a in arrays)
    if got != expect:
        raise SizeMismatch(f"{what} shapes {got} do not match {expect}")
    return arrays


def face_weights(
    partition: BoundaryPartition, pot: LyapunovPotential | None
) -> tuple[np.ndarray, ...]:
    """area * exp(mu(center)) per face of each side; a missing weight means mu = 0."""
    if pot is None:
        return tuple(np.full(len(side), side.area) for side in partition.sides)
    return tuple(side.area * np.exp(side.centers @ pot.m) for side in partition.sides)


def characteristic_traces(partition: BoundaryPartition, traces) -> tuple[np.ndarray, ...]:
    """Per-side characteristic variables q = T^T w from physical traces."""
    return _project(partition, _per_side(partition, traces, "trace"))


def _project(partition: BoundaryPartition, traces) -> tuple[np.ndarray, ...]:
    """characteristic_traces without the shape checks."""
    return tuple(trace @ eig.T for trace, eig in zip(traces, partition.eigs))


def boundary_integral(partition: BoundaryPartition, traces, weights) -> float:
    """Midpoint quadrature of sum_i lambda_i q_i^2 exp(mu) over the boundary."""
    return _characteristic_flux(partition, characteristic_traces(partition, traces), weights)


def _characteristic_flux(partition: BoundaryPartition, q_sides, weights) -> float:
    """boundary_integral from the characteristic values q of each side."""
    total = 0.0
    for q, eig, w in zip(q_sides, partition.eigs, weights):
        total += np.sum(w * np.sum(eig.eigenvalues * q * q, axis=1))
    return float(total)


def _outflow_budget(partition: BoundaryPartition, q_plus, weights) -> float:
    """Weighted energy that the traced outgoing characteristics carry out."""
    budget = 0.0
    for q, eig, inflow, w in zip(q_plus, partition.eigs, partition.inflow, weights):
        out = ~inflow
        budget += np.sum(eig.eigenvalues[out] * q[:, out] ** 2 * w[:, None])
    return budget


def control_inequality_holds(partition: BoundaryPartition, controls, trace_plus, weights) -> bool:
    """Check that injected inflow energy stays below the outflow budget.

    ``controls`` holds, per side, the characteristic datum of every face;
    entries of outgoing characteristics are ignored and may be NaN.  A NaN
    on an inflow pair raises MissingControl.  ``trace_plus`` holds the
    physical traces.
    """
    controls = _per_side(partition, controls, "controls")
    lhs = 0.0
    for ctrl, eig, inflow, w in zip(controls, partition.eigs, partition.inflow, weights):
        missing = np.isnan(ctrl).any(axis=0) & inflow
        if missing.any():
            raise MissingControl(f"characteristic {np.argmax(missing) + 1} lacks a control value")
        lhs -= np.sum(eig.eigenvalues[inflow] * ctrl[:, inflow] ** 2 * w[:, None])
    rhs = _outflow_budget(partition, characteristic_traces(partition, trace_plus), weights)
    return lhs <= rhs + INEQUALITY_RTOL * (1.0 + lhs + rhs)


def weighted_inflow_speed(partition: BoundaryPartition, weights) -> float:
    """Sum of lambda_i exp(mu) area over the inflow pairs, <= 0: the
    denominator of scalar_feedback_control, which depends only on the run."""
    return sum(
        np.sum(w[:, None] * eig.eigenvalues[inflow])
        for eig, inflow, w in zip(partition.eigs, partition.inflow, weights)
    )


def scalar_feedback_control(
    partition: BoundaryPartition, q_plus, weights, inflow_speed: float, c: float = 1.0
) -> float:
    """One admissible datum for every inflow characteristic, |c| <= 1.

    ``q_plus`` holds the characteristic traces as characteristic_traces
    returns them and ``inflow_speed`` the sum from weighted_inflow_speed.
    The value saturates the outflow budget at |c| = 1 and scales linearly
    below it.
    """
    if inflow_speed >= 0.0:
        raise NoInflow("no boundary face has an incoming characteristic")
    budget = _outflow_budget(partition, q_plus, weights)
    return float(c * np.sqrt(budget / (-inflow_speed)))


def assemble_boundary_data(
    partition: BoundaryPartition, q_plus, uniform_controls
) -> tuple[np.ndarray, ...]:
    """Physical boundary states per side: traced outflow, prescribed inflow.

    Takes the characteristic traces as characteristic_traces returns them,
    replaces exactly their inflow components with the control values and
    maps back; ``q_plus`` is left unchanged.  Pure injection: outgoing
    components always keep their traced values.
    """
    uniform_controls = np.asarray(uniform_controls, dtype=float)
    if uniform_controls.shape != (partition.n,):
        raise SizeMismatch("uniform controls must have one value per characteristic")
    return _inject(partition, [np.array(q, dtype=float) for q in q_plus], uniform_controls)


def _inject(partition: BoundaryPartition, q_sides, uniform_controls) -> tuple[np.ndarray, ...]:
    """assemble_boundary_data without the check, in place: the inflow
    components of ``q_sides`` are overwritten with the controls, so that
    they hold the characteristic values of the ghost states returned."""
    for q, inflow in zip(q_sides, partition.inflow):
        q[:, inflow] = uniform_controls[inflow]
    return tuple(q @ eig.T.T for q, eig in zip(q_sides, partition.eigs))
