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
denominator of the feedback law, two padded field buffers, an array for
the squares of the field and three block-sized scratch arrays once.  A
step reads the state from the interior of one buffer and writes the new
state into the interior of the other.  It goes through the buffer one
block of axis-0 rows at a time, about BLOCK_BYTES each, so that a block
stays in cache while every substep and the squares of the energy pass
over it; each pass is contiguous in the buffer seen as flat rows, and the
flux product of a split half that is exactly zero is skipped.  The step
returns the new state's energy, and a finite energy proves the state
finite.  A state that the loop hands out is overwritten two steps later;
snapshots and the final state are copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .boundary import (
    _characteristic_flux,
    _inject,
    _project,
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
# A step works on blocks of padded axis-0 rows of about this many bytes,
# which stay in a 2 MiB L2 cache together with their scratch arrays.
BLOCK_BYTES = 192 * 1024


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


def lyapunov_value(weights: np.ndarray, state, squares: np.ndarray | None = None) -> float:
    """Midpoint quadrature of |w|^2 exp(mu) over the box, with ``weights``
    from cell_weights.

    The squares go into ``squares`` (an array of the field's shape) when
    it is given, and one matrix-vector product sums them against the
    weights.
    """
    w = state.w if isinstance(state, SimState) else np.asarray(state, dtype=float)
    return _weighted_sum(weights, np.square(w, out=squares))


def _weighted_sum(weights: np.ndarray, squares: np.ndarray) -> float:
    """sum_c weights_c |w_c|^2 from the squares of the field."""
    return float(np.sum(weights.reshape(-1) @ squares.reshape(-1, squares.shape[-1])))


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
    (``flat``), a step along axis k moves ``strides[k]`` rows.  ``blocks``
    splits the padded axis-0 rows 1..N1 into ranges [a, b) of equal
    length except the last; a block covers its interior cells together
    with the ghost cells of the other axis beside them.  ``squares`` holds
    the squares of the field for the energy, ``scratch`` three arrays for
    one block's differences and flux products, and ``pair`` the operands
    of the two-row product in _matmul.
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
        cells = grid.cells_per_axis[0]
        per_block = min(cells, max(1, BLOCK_BYTES // self.padded[0][0].nbytes))
        self.blocks = tuple((a, min(a + per_block, cells + 1)) for a in range(1, cells + 1, per_block))
        self.squares = np.empty(grid.cells_per_axis + (system.n,))
        # Differences span a block's rows plus one step of the widest
        # stride; the two flux products fit in that.
        size = system.n * (per_block + 1) * self.strides[0]
        self.scratch = tuple(np.empty(size) for _ in range(3))
        self.pair = np.empty((2, 2, system.n))


def _traces(w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boundary cell values of each side, in SIDE_ORDER."""
    if w.ndim == 2:
        return (w[:1], w[-1:])
    return (w[0], w[-1], w[:, 0], w[:, -1])


def _boundary_data(ctx: _RunContext, state: SimState) -> tuple[np.ndarray, tuple, float]:
    """Controls for the current state, the per-side ghost states they give
    and the boundary integral of those ghost states, from one projection
    of the traces."""
    q = _project(ctx.partition, _traces(state.w))
    controls = _uniform_controls(ctx, state, q)
    ghosts = _inject(ctx.partition, q, controls)
    return controls, ghosts, _characteristic_flux(ctx.partition, q, ctx.face_weights)


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


def _matmul(ctx: _RunContext, rows: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` into ``out``, rounded alike for every row count.

    numpy hands a one-row product to gemv, which rounds differently from
    the gemm that multiplies longer blocks, so a one-row block (only 1-D
    grids have them) is multiplied as two copies of its row.
    """
    if len(rows) > 1:
        return np.matmul(rows, matrix, out=out)
    pair, product = ctx.pair
    pair[...] = rows
    np.matmul(pair, matrix, out=product)
    out[...] = product[:1]
    return out


def _transport(ctx: _RunContext, k: int, src: int, dst: int, lo: int, hi: int) -> None:
    """One upwind transport substep along axis k from the flat rows lo:hi
    of buffer ``src`` into the same rows of buffer ``dst`` (the same
    buffer updates in place).

    The update is w -= (w - w_prev) dt/h A+ + (w_next - w) dt/h A-, from
    one array of differences across the k-faces.  Cell p of the flat rows
    has its backward difference in row p - lo of that array and its
    forward difference in row p - lo + s, with s the stride of axis k, so
    the differences read the rows lo - s .. hi + s - 1.
    """
    flat, out = ctx.flat[src], ctx.flat[dst][lo:hi]
    plus, minus = ctx.split[k]
    if plus is None and minus is None:
        if src != dst:
            out[...] = flat[lo:hi]
        return
    s, n, m = ctx.strides[k], flat.shape[1], hi - lo
    diff = ctx.scratch[0][: (m + s) * n].reshape(-1, n)
    np.subtract(flat[lo : hi + s], flat[lo - s : hi], out=diff)
    # Between two buffers the flux is formed in the destination rows and
    # subtracted there, which saves a pass through a scratch array.
    flux = out if src != dst else ctx.scratch[2][: m * n].reshape(m, n)
    if plus is None or minus is None:
        half, rows = (plus, diff[:m]) if minus is None else (minus, diff[s:])
        _matmul(ctx, rows, half, flux)
    else:
        up = _matmul(ctx, diff[:m], plus, ctx.scratch[1][: m * n].reshape(m, n))
        np.add(up, _matmul(ctx, diff[s:], minus, flux), out=flux)
    np.subtract(flat[lo:hi], flux, out=out)


def _advance(ctx: _RunContext, state: SimState, ghosts: tuple) -> tuple[SimState, float]:
    """One explicit step of size ctx.dt with the per-side ghost states
    ``ghosts``; returns the new state and its weighted energy L.

    ``state.w`` is left unchanged.  The new state's field is the interior
    of the buffer that does not hold ``state.w`` (a field held by neither
    is first copied into buffer 0), so it stays valid until the step after
    the next one writes that buffer again.

    The step runs block by block over ctx.blocks: axis-0 transport from
    the block's rows of the source buffer into the same rows of the
    destination, the ghost columns of axis 1 in those rows, axis-1
    transport in place, the source substep and the squares of the block's
    interior.  Blocks share no state within a step, because the source
    buffer is only read.  The one exception is the axis-1 difference at a
    block edge, which reads the ghost-column slot of the neighbouring row;
    that difference feeds only a ghost-column slot of the block, and every
    step overwrites ghost-column slots with the ghost states before it
    reads them.  One matrix-vector product then sums the squares against
    the weights, as lyapunov_value does, so L is the same to the bit.
    """
    src = 1 if state.w is ctx.interior[1] else 0
    if state.w is not ctx.interior[src]:
        ctx.interior[src][...] = state.w
    dst = 1 - src
    d, s0 = ctx.grid.d, ctx.strides[0]
    ctx.padded[src][_along(d, 0, 0)] = ghosts[0]
    ctx.padded[src][_along(d, 0, -1)] = ghosts[1]
    padded, interior, rows = ctx.padded[dst], ctx.interior[dst], ctx.flat[dst]
    t = state.t + ctx.dt
    for a, b in ctx.blocks:
        lo, hi = a * s0, b * s0
        _transport(ctx, 0, src, dst, lo, hi)
        if d == 2:
            padded[a:b, 0] = ghosts[2][a - 1 : b - 1]
            padded[a:b, -1] = ghosts[3][a - 1 : b - 1]
            _transport(ctx, 1, dst, dst, lo, hi)
        if ctx.source_t is not None:
            block = rows[lo:hi]
            product = _matmul(ctx, block, ctx.source_t, ctx.scratch[1][: block.size].reshape(block.shape))
            product *= ctx.dt
            np.subtract(block, product, out=block)
        # Copied first: a ufunc on the strided interior allocates a buffer.
        squares = ctx.squares[a - 1 : b - 1]
        squares[...] = interior[a - 1 : b - 1]
        np.square(squares, out=squares)
    energy = _weighted_sum(ctx.cell_weights, ctx.squares)
    # The weights are nonnegative, so a finite energy proves every value
    # finite, and only a non-finite one needs the check of the field.
    if not math.isfinite(energy) and not np.isfinite(interior).all():
        raise NonFinite(f"non-finite field values after the step ending at t = {t:.6e}")
    return SimState(t=t, w=interior), energy


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
    boundary flux of the applied data, and the control magnitudes.

    Row i holds the state after i steps and the boundary data applied to
    it; the last row holds the boundary data that would be applied at
    t_end.
    """
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

    energy = lyapunov_value(ctx.cell_weights, state, ctx.squares)
    for i in range(steps + 1):
        ctrl[i], ghosts, bnd[i] = _boundary_data(ctx, state)
        times[i], lyap[i] = state.t, energy
        if i == steps:
            break
        state, energy = _advance(ctx, state, ghosts)
        while queue and state.t >= queue[0] - 1e-12:
            snapshots.append((state.t, SimState(state.t, state.w.copy())))
            queue.pop(0)

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
