"""Explicit upwind simulation of controlled hyperbolic systems on boxes.

The scheme is first-order dimension-split upwinding by flux-vector
splitting: each axis Jacobian splits as A_k = A+_k + A-_k into its
nonnegative and nonpositive spectral parts, and the axis substep applies
A+_k to backward and A-_k to forward differences of the physical field;
the source term follows as an explicit substep.  Boundary data enters
through ghost states whose incoming characteristic components are
prescribed by the active control law and whose outgoing components copy
the adjacent interior cell.

A run computes the split Jacobians, the energy weights, the inflow
denominator of the feedback law, two padded field buffers and three
scratch arrays once.  A step reads the state from the interior of one
buffer and writes the new state into the interior of the other, each axis
as contiguous passes over the buffer seen as flat rows, and it skips the
flux product of a split half that is exactly zero.  A state that the loop
hands out is therefore overwritten two steps later; snapshots and the
final state are copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .boundary import (
    assemble_boundary_data,
    boundary_integral,
    characteristic_traces,
    face_weights,
    partition_boundary,
    rectangle_faces,
    scalar_feedback_control,
    weighted_inflow_speed,
)
from .errors import DegenerateSeries, NonFinite, SizeMismatch
from .potential import LyapunovPotential
from .sysdef import HyperbolicSystem

DEFAULT_CFL = 0.45
DEFAULT_BUMP_AMPLITUDE = 0.1
# Fit window skips this fraction of the samples (startup transient).
FIT_SKIP_FRACTION = 0.10


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid on an axis-aligned box, 1 or 2 space dimensions."""

    cells_per_axis: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in np.atleast_1d(self.cells_per_axis))
        ls = tuple(float(l) for l in np.atleast_1d(self.lengths))
        if len(ns) not in (1, 2) or len(ls) != len(ns):
            raise SizeMismatch(f"unsupported grid description: cells {ns}, lengths {ls}")
        if any(n < 4 for n in ns):
            raise ValueError(f"need at least 4 cells per axis, got {ns}")
        if any(not (np.isfinite(l) and l > 0.0) for l in ls):
            raise ValueError(f"box lengths {ls} must be positive")
        object.__setattr__(self, "cells_per_axis", ns)
        object.__setattr__(self, "lengths", ls)

    @property
    def d(self) -> int:
        return len(self.cells_per_axis)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.cells_per_axis))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> np.ndarray:
        """Cell center coordinates, shape (*cells_per_axis, d)."""
        axes = [
            (np.arange(n) + 0.5) * h
            for n, h in zip(self.cells_per_axis, self.spacing)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class ControlLaw:
    """Which boundary datum the incoming characteristics receive."""

    mode: str
    gain: float = 0.0
    datum: float | Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("zero", "scalar", "prescribed"):
            raise ValueError(f"unknown control mode {self.mode!r}")
        if self.mode == "scalar" and not -1.0 <= self.gain <= 1.0:
            raise ValueError(f"scalar feedback gain {self.gain} must lie in [-1, 1]")
        if self.mode == "prescribed" and self.datum is None:
            raise ValueError("prescribed mode needs a datum value or callable")

    @classmethod
    def zero(cls) -> "ControlLaw":
        return cls(mode="zero")

    @classmethod
    def scalar(cls, gain: float) -> "ControlLaw":
        return cls(mode="scalar", gain=float(gain))

    @classmethod
    def prescribed(cls, datum) -> "ControlLaw":
        return cls(mode="prescribed", datum=datum)


@dataclass
class SimState:
    """Field values at one instant."""

    t: float
    w: np.ndarray


@dataclass
class RunRecord:
    """Telemetry of a controlled run.

    One row per completed step plus a final row at the end time; c_fit is
    the fitted exponential decay rate of the weighted functional (None when
    the series is degenerate, e.g. identically zero data) and c_l the rate
    certified by the potential.
    """

    times: np.ndarray
    lyapunov: np.ndarray
    boundary: np.ndarray
    controls: np.ndarray
    final_state: SimState
    c_fit: float | None
    c_l: float
    steps: int
    snapshots: tuple = field(default_factory=tuple)


def default_bump(grid: Grid, n: int, amplitude: float = DEFAULT_BUMP_AMPLITUDE) -> np.ndarray:
    """Smooth product-of-sin^2 disturbance, identical in every component."""
    centers = grid.cell_centers()
    bump = np.full(centers.shape[:-1], float(amplitude))
    for k, l in enumerate(grid.lengths):
        bump = bump * np.sin(np.pi * centers[..., k] / l) ** 2
    return np.repeat(bump[..., None], n, axis=-1)


def initial_state(grid: Grid, w0) -> SimState:
    """Initial state at t = 0 from an array or a callable of cell centers."""
    if callable(w0):
        w = np.asarray(w0(grid.cell_centers()), dtype=float)
    else:
        w = np.array(w0, dtype=float)
    if w.shape[:-1] != grid.cells_per_axis or w.ndim != grid.d + 1:
        raise SizeMismatch(f"initial data shape {w.shape} does not match grid {grid.cells_per_axis}")
    if not np.isfinite(w).all():
        raise NonFinite("initial data must be finite")
    return SimState(t=0.0, w=w)


def cell_weights(grid: Grid, pot: LyapunovPotential | None) -> np.ndarray:
    """cell_volume * exp(mu(center)) per cell; a missing weight means mu = 0."""
    if pot is None:
        return np.full(grid.cells_per_axis, grid.cell_volume)
    return grid.cell_volume * np.exp(grid.cell_centers() @ pot.m)


def lyapunov_value(weights: np.ndarray, state, scratch: np.ndarray | None = None) -> float:
    """Midpoint quadrature of |w|^2 exp(mu) over the box, with ``weights``
    from cell_weights.

    The squares go into ``scratch`` (a flat array of at least the field's
    size) when it is given, and one matrix-vector product sums them
    against the weights.
    """
    w = state.w if isinstance(state, SimState) else np.asarray(state, dtype=float)
    out = None if scratch is None else scratch[: w.size].reshape(w.shape)
    squares = np.square(w, out=out)
    return float(np.sum(weights.reshape(-1) @ squares.reshape(-1, w.shape[-1])))


def _split_flux(eig, scale: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """scale * A+ and scale * A- with A+- = T Lambda+- T^T, so A = A+ + A-.

    A half whose speeds are all zero, as on an axis where every speed has
    one sign, is exactly zero and comes back as None.
    """
    lam = eig.eigenvalues
    return tuple(
        scale * ((eig.T * part) @ eig.T.T) if part.any() else None
        for part in (np.maximum(lam, 0.0), np.minimum(lam, 0.0))
    )


class _RunContext:
    """What every step of a run shares, computed once: boundary eigendata,
    the step size, the split axis Jacobians, the energy weights, the inflow
    denominator of the feedback law and the working buffers of the sweep.

    ``padded`` holds two copies of the field with one ghost layer on each
    side, and ``interior`` their interiors.  Seen as flat rows of n values
    (``flat``), a step along axis k moves ``strides[k]`` rows, and the rows
    ``rows`` cover the interior cells together with the ghost cells of the
    other axis beside them.
    """

    def __init__(
        self,
        system: HyperbolicSystem,
        grid: Grid,
        pot: LyapunovPotential | None,
        control: ControlLaw,
        t_end: float,
        cfl: float,
    ) -> None:
        if system.d != grid.d:
            raise SizeMismatch(f"system dimension {system.d} does not match grid {grid.d}")
        self.system = system
        self.grid = grid
        self.control = control
        self.partition = partition_boundary(
            system, rectangle_faces(grid.cells_per_axis, grid.lengths)
        )
        # Axis sweeps use the pencil along +e_k, the normal of side x_k+.
        # That pencil is A_k itself, so its eigenvalues are the wave speeds
        # along axis k: one decomposition per axis suffices.
        axis_eigs = self.partition.eigs[1::2]
        # Pure source dynamics has no wave speed: fall back to unit speed.
        rho_max = max(float(np.abs(eig.eigenvalues).max()) for eig in axis_eigs) or 1.0
        bound = cfl * min(grid.spacing) / rho_max
        self.steps = max(1, math.ceil(t_end / bound * (1.0 - 1e-12)))
        self.dt = t_end / self.steps
        self.split = tuple(
            _split_flux(eig, self.dt / h) for eig, h in zip(axis_eigs, grid.spacing)
        )
        # The source substep multiplies flat rows by S^T, kept contiguous:
        # numpy's matmul into an output array is far slower with a
        # transposed operand.
        self.source_t = np.ascontiguousarray(system.source.T) if system.source.any() else None
        self.cell_weights = cell_weights(grid, pot)
        self.face_weights = face_weights(self.partition, pot)
        self.inflow_speed = weighted_inflow_speed(self.partition, self.face_weights)
        shape = tuple(c + 2 for c in grid.cells_per_axis) + (system.n,)
        self.padded = tuple(np.zeros(shape) for _ in range(2))
        self.interior = tuple(p[(slice(1, -1),) * grid.d] for p in self.padded)
        self.flat = tuple(p.reshape(-1, system.n) for p in self.padded)
        self.strides = tuple(math.prod(shape[k + 1 : -1]) for k in range(grid.d))
        self.rows = slice(self.strides[0], (shape[0] - 1) * self.strides[0])
        # Differences span the update rows plus one step of the widest
        # stride; the two flux products and the energy squares fit in that.
        size = system.n * (self.rows.stop - self.rows.start + self.strides[0])
        self.scratch = tuple(np.empty(size) for _ in range(3))


def _traces(w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boundary cell values of each side, in SIDE_ORDER."""
    if w.ndim == 2:
        return (w[:1], w[-1:])
    return (w[0], w[-1], w[:, 0], w[:, -1])


def _boundary_data(ctx: _RunContext, state: SimState) -> tuple[np.ndarray, tuple]:
    """Controls for the current state and the per-side ghost states they
    give, from one projection of the traces."""
    q = characteristic_traces(ctx.partition, _traces(state.w))
    controls = _uniform_controls(ctx, state, q)
    return controls, assemble_boundary_data(ctx.partition, q, controls)


def _uniform_controls(ctx: _RunContext, state: SimState, q) -> np.ndarray:
    """Per-characteristic uniform control magnitudes for the current state."""
    partition = ctx.partition
    values = np.zeros(partition.n)
    if not partition.has_inflow() or ctx.control.mode == "zero":
        return values
    if ctx.control.mode == "scalar":
        level = scalar_feedback_control(
            partition, q, ctx.face_weights, ctx.inflow_speed, ctx.control.gain
        )
    else:
        datum = ctx.control.datum
        level = float(datum(state.t)) if callable(datum) else float(datum)
    values[partition.inflow.any(axis=0)] = level
    return values


def _along(d: int, k: int, index) -> tuple:
    """Index of the padded buffer: ``index`` on axis k, interior elsewhere."""
    return tuple(index if j == k else slice(1, -1) for j in range(d))


def _axis_sweep(ctx: _RunContext, k: int, ghosts: tuple, src: int, dst: int) -> None:
    """One upwind transport substep along axis k from buffer ``src`` into
    the update rows of buffer ``dst`` (the same buffer updates in place).

    ``ghosts`` holds the physical ghost states of sides x_k- and x_k+.  The
    update is w -= (w - w_prev) dt/h A+ + (w_next - w) dt/h A-, from one
    array of differences across the k-faces.  Cell p of the flat rows has
    its backward difference in row p - s of that array and its forward
    difference in row p, with s the stride of axis k.  The update rows
    also hold ghost cells of the other axis; their values are overwritten
    before any step reads them.
    """
    d = ctx.grid.d
    padded = ctx.padded[src]
    padded[_along(d, k, 0)] = ghosts[0]
    padded[_along(d, k, -1)] = ghosts[1]
    flat, out = ctx.flat[src], ctx.flat[dst][ctx.rows]
    plus, minus = ctx.split[k]
    if plus is None and minus is None:
        if src != dst:
            out[...] = flat[ctx.rows]
        return
    s, lo, hi = ctx.strides[k], ctx.rows.start, ctx.rows.stop
    n = flat.shape[1]
    m = hi - lo
    diff = ctx.scratch[0][: (m + s) * n].reshape(-1, n)
    np.subtract(flat[lo : hi + s], flat[lo - s : hi], out=diff)
    # Between two buffers the flux is formed in the destination rows and
    # subtracted there, which saves a pass through a scratch array.
    flux = out if src != dst else ctx.scratch[2][: m * n].reshape(m, n)
    if plus is None or minus is None:
        half, rows = (plus, diff[:m]) if minus is None else (minus, diff[s:])
        np.matmul(rows, half, out=flux)
    else:
        up = np.matmul(diff[:m], plus, out=ctx.scratch[1][: m * n].reshape(m, n))
        np.add(up, np.matmul(diff[s:], minus, out=flux), out=flux)
    np.subtract(flat[ctx.rows], flux, out=out)


def _advance(ctx: _RunContext, state: SimState) -> tuple[SimState, np.ndarray, tuple]:
    """One explicit step of size ctx.dt; returns the new state, the applied
    controls and the per-side ghost states.

    ``state.w`` is left unchanged.  The new state's field is the interior
    of the buffer that does not hold ``state.w`` (a field held by neither
    is first copied into buffer 0), so it stays valid until the step after
    the next one writes that buffer again.
    """
    controls, ghosts = _boundary_data(ctx, state)
    src = 1 if state.w is ctx.interior[1] else 0
    if state.w is not ctx.interior[src]:
        ctx.interior[src][...] = state.w
    dst = 1 - src
    for k in range(ctx.grid.d):
        _axis_sweep(ctx, k, ghosts[2 * k : 2 * k + 2], src if k == 0 else dst, dst)
    if ctx.source_t is not None:
        rows = ctx.flat[dst][ctx.rows]
        product = np.matmul(rows, ctx.source_t, out=ctx.scratch[1][: rows.size].reshape(rows.shape))
        product *= ctx.dt
        np.subtract(rows, product, out=rows)
    w = ctx.interior[dst]
    t = state.t + ctx.dt
    if not np.isfinite(w).all():
        raise NonFinite(f"non-finite field values after the step ending at t = {t:.6e}")
    return SimState(t=t, w=w), controls, ghosts


def run(
    system: HyperbolicSystem,
    grid: Grid,
    w0,
    pot: LyapunovPotential,
    control: ControlLaw,
    t_end: float,
    cfl: float = DEFAULT_CFL,
    snapshot_times: Sequence[float] = (),
) -> RunRecord:
    """Simulate up to t_end, recording the weighted functional, the
    boundary flux of the applied data, and the control magnitudes."""
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end = {t_end} must be positive")
    ctx = _RunContext(system, grid, pot, control, t_end, cfl)
    state = initial_state(grid, w0)
    steps = ctx.steps

    times = np.empty(steps + 1)
    lyap = np.empty(steps + 1)
    bnd = np.empty(steps + 1)
    ctrl = np.empty((steps + 1, system.n))
    snapshots = []
    queue = sorted(float(s) for s in snapshot_times)

    for i in range(steps):
        new_state, controls, ghosts = _advance(ctx, state)
        times[i] = state.t
        lyap[i] = lyapunov_value(ctx.cell_weights, state, ctx.scratch[0])
        bnd[i] = boundary_integral(ctx.partition, ghosts, ctx.face_weights)
        ctrl[i] = controls
        state = new_state
        while queue and state.t >= queue[0] - 1e-12:
            snapshots.append((state.t, SimState(state.t, state.w.copy())))
            queue.pop(0)

    # Final row: boundary data that would be applied at t_end.
    controls, ghosts = _boundary_data(ctx, state)
    times[steps] = state.t
    lyap[steps] = lyapunov_value(ctx.cell_weights, state, ctx.scratch[0])
    bnd[steps] = boundary_integral(ctx.partition, ghosts, ctx.face_weights)
    ctrl[steps] = controls

    try:
        c_fit = fit_decay_rate(np.column_stack([times, lyap]))
    except DegenerateSeries:
        c_fit = None
    return RunRecord(
        times=times,
        lyapunov=lyap,
        boundary=bnd,
        controls=ctrl,
        final_state=SimState(state.t, state.w.copy()),
        c_fit=c_fit,
        c_l=pot.c_l,
        steps=steps,
        snapshots=tuple(snapshots),
    )


def fit_decay_rate(series) -> float:
    """Least-squares exponential rate of a positive series, sign-flipped.

    The first tenth of the samples is excluded as startup transient; the
    remaining window must hold at least 10 strictly positive values.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SizeMismatch(f"expected rows of (t, L), got shape {arr.shape}")
    start = math.ceil(FIT_SKIP_FRACTION * arr.shape[0])
    window = arr[start:]
    if window.shape[0] < 10:
        raise DegenerateSeries(f"only {window.shape[0]} samples in the fit window")
    t = window[:, 0]
    values = window[:, 1]
    if np.any(values <= 0.0):
        raise DegenerateSeries("series is not strictly positive in the fit window")
    slope = np.polyfit(t, np.log(values), 1)[0]
    return float(-slope)


# Round-trip-safe text of a float.  Python floats from ``tolist`` format
# faster than numpy scalars, with the same digits.
_FLOAT17 = "{:.17g}".format


def write_csv(record: RunRecord, path) -> None:
    """Telemetry as CSV: t, L, boundary_integral, control_1..control_n."""
    n = record.controls.shape[1]
    header = ["t", "L", "boundary_integral"] + [f"control_{i + 1}" for i in range(n)]
    table = np.column_stack([record.times, record.lyapunov, record.boundary, record.controls])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join(map(_FLOAT17, row)) + "\n")


def write_snapshot(grid: Grid, state: SimState, path) -> None:
    """Plain-text dump of the field components at one instant."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# t = {state.t:.17g}\n")
        fh.write(f"# cells = {' '.join(str(n) for n in grid.cells_per_axis)}\n")
        n = state.w.shape[-1]
        for c in range(n):
            fh.write(f"# component {c + 1}\n")
            block = state.w[..., c].tolist()
            for row in [block] if grid.d == 1 else block:
                fh.write(" ".join(map(_FLOAT17, row)) + "\n")
