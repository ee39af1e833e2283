import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_symmetric, random_system
from hypstab import sim
from hypstab.boundary import boundary_integral, characteristic_traces, control_inequality_holds
from hypstab.config import build_control, parse_config
from hypstab.errors import DegenerateSeries, NonFinite, SizeMismatch
from hypstab.potential import LyapunovPotential, find_potential
from hypstab.sim import (
    ControlLaw,
    Grid,
    RunRecord,
    SimState,
    _RunContext,
    _advance,
    _along,
    _boundary_data,
    _traces,
    cell_weights,
    default_bump,
    fit_decay_rate,
    initial_state,
    lyapunov_value,
    run,
    write_csv,
    write_snapshot,
)
from hypstab.symlin import SymMatrix
from hypstab.sysdef import EulerScenario, HyperbolicSystem, advection_system, euler_symmetrized


@pytest.fixture
def pot2d(supersonic):
    return find_potential(supersonic, 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((2,), (1.0,))
    with pytest.raises(ValueError):
        Grid((8,), (-1.0,))
    with pytest.raises(SizeMismatch):
        Grid((8, 8, 8), (1.0, 1.0, 1.0))
    g = Grid((4, 8), (1.0, 2.0))
    assert g.spacing == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)


def test_grid_centers_frozen():
    g = Grid((4,), (1.0,))
    assert np.allclose(g.cell_centers()[:, 0], [0.125, 0.375, 0.625, 0.875], atol=0.0)


def test_control_law_validation():
    with pytest.raises(ValueError):
        ControlLaw(mode="wild")
    with pytest.raises(ValueError):
        ControlLaw.scalar(1.5)
    with pytest.raises(ValueError):
        ControlLaw(mode="prescribed")
    assert ControlLaw.prescribed(2.0).datum == 2.0
    assert ControlLaw.zero().mode == "zero"


def test_default_bump_shape_and_range():
    g = Grid((16, 16), (1.0, 1.0))
    w = default_bump(g, 3, amplitude=0.1)
    assert w.shape == (16, 16, 3)
    # cell centers straddle the peak on an even grid
    assert 0.09 < w.max() <= 0.1
    assert w.min() >= 0.0
    # all components identical
    assert np.array_equal(w[..., 0], w[..., 2])


def test_initial_state_accepts_callable():
    g = Grid((8,), (1.0,))
    state = initial_state(g, lambda x: np.stack([x[..., 0], -x[..., 0]], axis=-1))
    assert state.t == 0.0
    assert state.w.shape == (8, 2)
    with pytest.raises(SizeMismatch):
        initial_state(g, np.zeros((7, 2)))
    with pytest.raises(NonFinite):
        initial_state(g, np.full((8, 2), np.inf))


def test_lyapunov_value_frozen():
    g = Grid((10, 10), (1.0, 1.0))
    w = np.ones((10, 10, 2))
    assert lyapunov_value(cell_weights(g, None), w) == pytest.approx(2.0, rel=1e-14)
    pot = LyapunovPotential(m=np.array([-1.0, 0.0]), c_a=1.0, c_b=0.0)
    # midpoint quadrature of exp(-x1) on the unit square
    expect = 2.0 * np.sum(np.exp(-(np.arange(10) + 0.5) / 10.0)) / 10.0
    assert lyapunov_value(cell_weights(g, pot), w) == pytest.approx(expect, rel=1e-13)


def test_run_time_step_meets_cfl_bound(supersonic, pot2d):
    # the bound is cfl * dx / rho with rho = |v| + a = 4 from the axis
    # pencils: 0.45 * 0.125 / 4 = 0.0140625, and 8 steps of it end at 0.1125
    g = Grid((8, 8), (1.0, 1.0))
    for t_end, steps in ((0.1, 8), (0.1125, 8), (0.113, 9)):
        rec = run(supersonic, g, default_bump(g, 3), pot2d, ControlLaw.zero(), t_end=t_end, cfl=0.45)
        assert rec.steps == steps
        assert np.allclose(np.diff(rec.times), t_end / steps, rtol=1e-12, atol=0.0)


def test_run_record_shapes(supersonic, pot2d):
    g = Grid((16, 16), (1.0, 1.0))
    rec = run(supersonic, g, default_bump(g, 3), pot2d, ControlLaw.zero(), t_end=0.1)
    assert rec.times.shape == rec.lyapunov.shape == rec.boundary.shape == (rec.steps + 1,)
    assert rec.controls.shape == (rec.steps + 1, 3)
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(0.1, rel=1e-12)
    assert np.all(np.diff(rec.times) > 0.0)
    assert rec.c_l == 1.0


def test_run_decays_monotonically(supersonic, pot2d):
    g = Grid((32, 32), (1.0, 1.0))
    rec = run(supersonic, g, default_bump(g, 3), pot2d, ControlLaw.scalar(0.0), t_end=0.25)
    assert np.all(np.diff(rec.lyapunov) <= 0.0)
    assert rec.c_fit is not None and rec.c_fit > rec.c_l


def test_run_scaling_homogeneity(supersonic, pot2d):
    g = Grid((16, 16), (1.0, 1.0))
    w0 = default_bump(g, 3)
    a = run(supersonic, g, w0, pot2d, ControlLaw.zero(), t_end=0.1)
    b = run(supersonic, g, 2.0 * w0, pot2d, ControlLaw.zero(), t_end=0.1)
    assert b.lyapunov[0] == pytest.approx(4.0 * a.lyapunov[0], rel=1e-14)
    assert b.c_fit == pytest.approx(a.c_fit, abs=1e-6)


def test_run_zero_data_has_no_fit(supersonic, pot2d):
    g = Grid((16, 16), (1.0, 1.0))
    rec = run(supersonic, g, np.zeros((16, 16, 3)), pot2d, ControlLaw.zero(), t_end=0.1)
    assert not rec.lyapunov.any()
    assert rec.c_fit is None


def test_run_snapshots(supersonic, pot2d):
    g = Grid((16, 16), (1.0, 1.0))
    rec = run(
        supersonic, g, default_bump(g, 3), pot2d, ControlLaw.zero(),
        t_end=0.2, snapshot_times=(0.05, 0.15),
    )
    assert len(rec.snapshots) == 2
    for requested, (t, state) in zip((0.05, 0.15), rec.snapshots):
        assert requested <= t < requested + 2.0 * (0.2 / rec.steps)
        assert state.w.shape == (16, 16, 3)
    # |w|^2 of each snapshot and of the final state, recorded with the
    # characteristic-variable sweep: a reused field buffer would move them
    fields = [state.w for _, state in rec.snapshots] + [rec.final_state.w]
    for w, expect in zip(fields, (0.9389157981453803, 0.31372507056214466, 0.10275734149090475)):
        assert np.sum(w * w) == pytest.approx(expect, rel=1e-12)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(fields, 2))


def test_snapshots_on_adjacent_steps_survive_the_buffer_swap(supersonic, pot2d):
    # Steps alternate between two field buffers, so the states of two
    # adjacent steps live in different buffers and each is overwritten two
    # steps later: snapshots taken there must be copies.
    g = Grid((16, 16), (1.0, 1.0))
    dt = 0.2 / 29
    rec = run(
        supersonic, g, default_bump(g, 3), pot2d, ControlLaw.scalar(1.0),
        t_end=0.2, snapshot_times=(7.5 * dt, 8.5 * dt),
    )
    assert rec.steps == 29
    assert [t for t, _ in rec.snapshots] == pytest.approx([8.0 * dt, 9.0 * dt], rel=1e-12)
    # |w|^2 recorded with the one-buffer step that handed out fresh arrays
    fields = [state.w for _, state in rec.snapshots] + [rec.final_state.w]
    for w, expect in zip(fields, (0.9522032106429253, 0.9339047598422341, 0.509297766355241)):
        assert np.sum(w * w) == pytest.approx(expect, rel=1e-12)
        assert w.flags.c_contiguous  # a plain array, not a view into a step buffer
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(fields, 2))


def test_run_componentwise_controls_recorded(supersonic, pot2d):
    g = Grid((16, 16), (1.0, 1.0))
    law = build_control(parse_config("control.mode = componentwise\n"))
    rec = run(supersonic, g, default_bump(g, 3), pot2d, law, t_end=0.05)
    assert rec.controls.shape[1] == 3
    assert np.all(rec.controls >= 0.0)
    assert rec.controls[0].max() > 0.0


def test_1d_outflow_empties_the_domain():
    sys_ = advection_system(1.0)
    pot = find_potential(sys_, 0.0)
    g = Grid((64,), (1.0,))
    rec = run(sys_, g, default_bump(g, 1), pot, ControlLaw.scalar(0.0), t_end=1.5)
    # everything has left through the right endpoint by t = 1.5
    assert rec.lyapunov[-1] <= 1e-16 * rec.lyapunov[0]


def characteristic_sweep(eig, k, w, ghosts, dt, dx):
    """Reference axis substep in characteristic variables q = w T: upwind
    differences per family by the sign of its speed, then map back."""
    lam, t = eig.eigenvalues, eig.T
    g = w @ t
    edge = g.shape[:k] + (1,) + g.shape[k + 1:]
    g_low, g_high = ((ghost @ t).reshape(edge) for ghost in ghosts)
    padded = np.concatenate([g_low, g, g_high], axis=k)
    lead = (slice(None),) * k
    backward = (g - padded[lead + (slice(None, -2),)]) / dx
    forward = (padded[lead + (slice(2, None),)] - g) / dx
    flux = np.maximum(lam, 0.0) * backward + np.minimum(lam, 0.0) * forward
    return w - dt * (flux @ t.T)


def random_loop(seed, cells, lengths, control=ControlLaw.scalar(0.7), source=True):
    """Context and random state of a seeded system with speeds of both
    signs on every axis, a source (unless ``source`` is false), a tilted
    weight and scalar feedback (unless ``control`` says otherwise)."""
    rng = np.random.default_rng(seed)
    grid = Grid(cells, lengths)
    d, n = grid.d, 4
    jac = random_system(rng, d, n).jacobians
    source_term = 0.3 * random_symmetric(rng, n)
    system = HyperbolicSystem(jac, source_term if source else np.zeros((n, n)))
    pot = LyapunovPotential(m=rng.uniform(-1.0, 1.0, d), c_a=1.0, c_b=0.0)
    ctx = _RunContext(system, grid, pot, control, t_end=0.05, cfl=0.45)
    for eig in ctx.partition.eigs:
        assert eig.eigenvalues.min() < 0.0 < eig.eigenvalues.max()
    return ctx, initial_state(grid, rng.standard_normal(grid.cells_per_axis + (n,)))


FLOWS = {"euler+x": (3.0, 0.0), "euler-x": (-3.0, 0.0), "euler+y": (0.0, 3.0), "euler-y": (0.0, -3.0)}


def one_signed_loop(name, cells, lengths, control=ControlLaw.scalar(0.7)):
    """Context and random state of a system with an exactly zero split half:
    supersonic Euler (one axis along the flow), a 1-D system whose speeds
    are all positive, or a zero-Jacobian system driven by its source."""
    rng = np.random.default_rng(sum(map(ord, name)))
    grid = Grid(cells, lengths)
    if name in FLOWS:
        system = euler_symmetrized(EulerScenario(1.0, FLOWS[name], 1.0))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        speeds = np.diag([0.5, 1.0, 2.0]) if name == "one-signed" else np.zeros((3, 3))
        jac = tuple(SymMatrix(q @ speeds @ q.T) for _ in range(grid.d))
        system = HyperbolicSystem(jac, 0.3 * random_symmetric(rng, 3))
    pot = LyapunovPotential(m=rng.uniform(-1.0, 1.0, grid.d), c_a=1.0, c_b=0.0)
    ctx = _RunContext(system, grid, pot, control, t_end=0.05, cfl=0.45)
    return ctx, initial_state(grid, rng.standard_normal(grid.cells_per_axis + (3,)))


def loop(seed, cells, lengths, **kw):
    """random_loop for an integer seed, one_signed_loop for a name."""
    return (random_loop if isinstance(seed, int) else one_signed_loop)(seed, cells, lengths, **kw)


LOOPS = [(seed, (13,), (1.0,)) for seed in (1, 2)] + [(seed, (12, 7), (1.0, 0.6)) for seed in (3, 4)]
ONE_SIGNED_LOOPS = [(name, (12, 7), (1.0, 0.6)) for name in FLOWS] + [
    ("one-signed", (13,), (1.0,)),
    ("pure-source", (12, 7), (1.0, 0.6)),
]


@pytest.mark.parametrize("seed, cells, lengths", LOOPS + ONE_SIGNED_LOOPS)
def test_advance_matches_the_characteristic_sweep(seed, cells, lengths):
    ctx, state = loop(seed, cells, lengths)
    for _ in range(3):
        before = state.w.copy()
        _, ghosts, _ = _boundary_data(ctx, state)
        expect = state.w
        for k, eig in enumerate(ctx.partition.eigs[1::2]):
            expect = characteristic_sweep(eig, k, expect, ghosts[2 * k : 2 * k + 2], ctx.dt, ctx.grid.spacing[k])
        expect = expect - ctx.dt * (expect @ ctx.system.source.T)
        new, _ = _advance(ctx, state, ghosts)
        assert np.array_equal(state.w, before)
        assert new.t == state.t + ctx.dt
        assert np.abs(new.w - expect).max() <= 1e-13 * np.abs(expect).max()
        state = new


@pytest.mark.parametrize("seed, cells, lengths", LOOPS + ONE_SIGNED_LOOPS)
def test_split_flux_sums_to_the_axis_jacobian(seed, cells, lengths):
    # Exact up to rounding against the eigendata T Lambda T^T; against A_k
    # itself only up to the eigensolver's backward error.  A half is None
    # exactly when the axis has no speed of its sign.
    ctx, _ = loop(seed, cells, lengths)
    axes = zip(ctx.partition.eigs[1::2], ctx.system.jacobians, ctx.grid.spacing, ctx.split)
    for eig, jac, h, (plus, minus) in axes:
        scale = ctx.dt / h
        assert (plus is None) == (eig.eigenvalues.max() <= 0.0)
        assert (minus is None) == (eig.eigenvalues.min() >= 0.0)
        zero = np.zeros_like(jac.a)
        total = ((zero if plus is None else plus) + (zero if minus is None else minus)) / scale
        eigen = (eig.T * eig.eigenvalues) @ eig.T.T
        assert np.abs(total - eigen).max() <= 1e-14 * np.abs(eigen).max()
        assert np.linalg.norm(total - jac.a) <= 1e-12 * np.linalg.norm(jac.a)
        if plus is not None:
            assert np.linalg.eigvalsh(plus).min() >= -1e-14 * scale
        if minus is not None:
            assert np.linalg.eigvalsh(minus).max() <= 1e-14 * scale


@pytest.mark.parametrize("gain", [1.0, 0.5])
@pytest.mark.parametrize("seed", ["euler+x", 3])
def test_every_step_meets_the_admissibility_condition(seed, gain):
    # The paper's condition on the boundary data: injected inflow energy
    # never exceeds what the traced outgoing characteristics carry out.
    ctx, state = loop(seed, (12, 7), (1.0, 0.6), control=ControlLaw.scalar(gain))
    part = ctx.partition
    for _ in range(10):
        traces = _traces(state.w)
        controls, ghosts, _ = _boundary_data(ctx, state)
        new, _ = _advance(ctx, state, ghosts)
        per_face = [np.broadcast_to(controls, (len(side), part.n)) for side in part.sides]
        assert control_inequality_holds(part, per_face, traces, ctx.face_weights)
        assert controls.any()
        if gain == 1.0:
            # saturated: a little more injection breaks the condition
            louder = [1.001 * c for c in per_face]
            assert not control_inequality_holds(part, louder, traces, ctx.face_weights)
        state = new


# The step as it was before the two-buffer sweep, kept as a reference:
# one padded buffer copied in from the state and a fresh array out, every
# split half multiplied, the traces projected once for the feedback budget
# and again for the ghost states, and the feedback denominator recomputed.


def reference_boundary_data(ctx, state):
    part, weights, law = ctx.partition, ctx.face_weights, ctx.control
    traces = _traces(state.w)
    controls = np.zeros(part.n)
    if part.has_inflow() and law.mode != "zero":
        if law.mode == "scalar":
            denominator = sum(
                np.sum(w[:, None] * eig.eigenvalues[inflow])
                for eig, inflow, w in zip(part.eigs, part.inflow, weights)
            )
            budget = 0.0
            for q, eig, inflow, w in zip(characteristic_traces(part, traces), part.eigs, part.inflow, weights):
                out = ~inflow
                budget += np.sum(eig.eigenvalues[out] * q[:, out] ** 2 * w[:, None])
            level = float(law.gain * np.sqrt(budget / (-denominator)))
        else:
            level = float(law.datum(state.t)) if callable(law.datum) else float(law.datum)
        controls[part.inflow.any(axis=0)] = level
    ghosts = []
    for q, eig, inflow in zip(characteristic_traces(part, traces), part.eigs, part.inflow):
        q[:, inflow] = controls[inflow]
        ghosts.append(q @ eig.T.T)
    return controls, tuple(ghosts)


class ReferenceBuffers:
    """The one padded field buffer and three scratch arrays of a run."""

    def __init__(self, ctx):
        cells = ctx.grid.cells_per_axis
        self.padded = np.zeros(tuple(c + 2 for c in cells) + (ctx.system.n,))
        self.interior = self.padded[(slice(1, -1),) * ctx.grid.d]
        size = ctx.system.n * max(math.prod(cells) // c * (c + 1) for c in cells)
        self.scratch = tuple(np.empty(size) for _ in range(3))
        # every half multiplied, a zero one as a zero matrix
        zero = np.zeros((ctx.system.n,) * 2)
        self.split = tuple(tuple(zero if half is None else half for half in axis) for axis in ctx.split)


def reference_axis_sweep(ctx, buf, k, ghosts):
    d = ctx.grid.d
    padded = buf.padded
    padded[_along(d, k, 0)] = ghosts[0]
    padded[_along(d, k, -1)] = ghosts[1]
    shape = list(ctx.grid.cells_per_axis) + [padded.shape[-1]]
    shape[k] += 1
    size = math.prod(shape)
    diff, up, down = (scratch[:size].reshape(shape) for scratch in buf.scratch)
    np.subtract(padded[_along(d, k, slice(1, None))], padded[_along(d, k, slice(None, -1))], out=diff)
    rows = diff.reshape(-1, shape[-1])
    plus, minus = buf.split[k]
    np.matmul(rows, plus, out=up.reshape(rows.shape))
    np.matmul(rows, minus, out=down.reshape(rows.shape))
    lead = (slice(None),) * k
    flux = up[lead + (slice(None, -1),)]
    np.add(flux, down[lead + (slice(1, None),)], out=flux)
    if k < d - 1:
        np.subtract(buf.interior, flux, out=buf.interior)
        return None
    return buf.interior - flux


def reference_advance(ctx, buf, state, ghosts):
    buf.interior[...] = state.w
    for k in range(ctx.grid.d):
        w = reference_axis_sweep(ctx, buf, k, ghosts[2 * k : 2 * k + 2])
    if ctx.system.source.any():
        w -= ctx.dt * (w @ ctx.system.source.T)
    return w


REFERENCE_LAWS = {
    "zero": ControlLaw.zero(),
    "scalar0.5": ControlLaw.scalar(0.5),
    "scalar1.0": ControlLaw.scalar(1.0),
    "prescribed": ControlLaw.prescribed(lambda t: 0.2 * math.cos(40.0 * t)),
}
REFERENCE_LOOPS = {
    "d1": (1, (13,), (1.0,), True),
    "d1-nosource": (2, (13,), (1.0,), False),
    "d2": (3, (12, 7), (1.0, 0.6), True),
    "d2-nosource": (4, (12, 7), (1.0, 0.6), False),
}


def assert_steps_match_the_reference(ctx, state, steps=20):
    """Step ``state`` and the reference side by side: states, controls and
    ghost states are bit-identical and L equals the energy of the
    reference state.  The boundary integral, which the step takes from the
    characteristic ghost values instead of projecting the ghost states
    again, agrees to rounding: 1e-12 of sum w |lambda_i| q_i^2."""
    buf = ReferenceBuffers(ctx)
    part, weights = ctx.partition, ctx.face_weights
    expect = state
    for _ in range(steps):
        ref_controls, ref_ghosts = reference_boundary_data(ctx, expect)
        ref_w = reference_advance(ctx, buf, expect, ref_ghosts)
        controls, ghosts, integral = _boundary_data(ctx, state)
        new, energy = _advance(ctx, state, ghosts)
        assert np.array_equal(controls, ref_controls)
        assert all(np.array_equal(a, b) for a, b in zip(ghosts, ref_ghosts))
        scale = sum(
            np.sum(w[:, None] * np.abs(eig.eigenvalues) * q * q)
            for q, eig, w in zip(characteristic_traces(part, ref_ghosts), part.eigs, weights)
        )
        assert abs(integral - boundary_integral(part, ref_ghosts, weights)) <= 1e-12 * scale
        assert np.array_equal(new.w, ref_w)
        assert new.t == expect.t + ctx.dt
        rows = ref_w.reshape(-1, ctx.system.n)
        ref_l = np.einsum("ci,ci,c->", rows, rows, ctx.cell_weights.reshape(-1))
        assert energy == lyapunov_value(ctx.cell_weights, ref_w)
        assert abs(energy - ref_l) <= 1e-13 * ref_l
        state, expect = new, SimState(expect.t + ctx.dt, ref_w)


@pytest.mark.parametrize("law", REFERENCE_LAWS)
@pytest.mark.parametrize("case", REFERENCE_LOOPS)
def test_step_is_bit_identical_to_the_reference_step(case, law):
    seed, cells, lengths, source = REFERENCE_LOOPS[case]
    ctx, state = random_loop(seed, cells, lengths, control=REFERENCE_LAWS[law], source=source)
    assert ctx.system.source.any() == source
    assert len(ctx.blocks) == 1
    assert_steps_match_the_reference(ctx, state)


def padded_row_bytes(cells, n):
    """Bytes of one padded axis-0 row of an n-component field."""
    return 8 * n * math.prod(c + 2 for c in cells[1:])


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("law", REFERENCE_LAWS)
@pytest.mark.parametrize("case", REFERENCE_LOOPS)
def test_blocked_step_is_bit_identical_to_the_reference_step(case, law, rows, monkeypatch):
    # 13 and 12 axis-0 rows: blocks of 1, of 3 (13 = 4 * 3 + 1) and of 5
    # (13 = 5 + 5 + 3, 12 = 5 + 5 + 2), so the last block is uneven in
    # three of the six grids.
    seed, cells, lengths, source = REFERENCE_LOOPS[case]
    monkeypatch.setattr(sim, "BLOCK_BYTES", rows * padded_row_bytes(cells, 4))
    ctx, state = random_loop(seed, cells, lengths, control=REFERENCE_LAWS[law], source=source)
    sizes = [b - a for a, b in ctx.blocks]
    assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < sizes[-1] <= rows
    assert ctx.blocks[0][0] == 1 and ctx.blocks[-1][1] == cells[0] + 1
    assert all(b == a for (_, b), (a, _) in zip(ctx.blocks, ctx.blocks[1:]))
    assert_steps_match_the_reference(ctx, state)


def test_non_finite_value_in_a_later_block_raises(monkeypatch):
    monkeypatch.setattr(sim, "BLOCK_BYTES", 3 * padded_row_bytes((12, 7), 4))
    ctx, state = random_loop(3, (12, 7), (1.0, 0.6), control=ControlLaw.zero())
    assert ctx.blocks == ((1, 4), (4, 7), (7, 10), (10, 13))
    w = state.w.copy()
    w[11, 3, 2] = np.nan
    state = SimState(0.0, w)
    _, ghosts, _ = _boundary_data(ctx, state)
    message = f"non-finite field values after the step ending at t = {ctx.dt:.6e}"
    with pytest.raises(NonFinite, match=f"^{re.escape(message)}$"):
        _advance(ctx, state, ghosts)
    # the first blocks were stepped and are finite: the check failed on a
    # later one
    assert np.isfinite(ctx.interior[1][:9]).all()


def test_steps_allocate_no_field_sized_temporaries(supersonic, pot2d):
    # 256^2 supersonic Euler under saturating feedback: after a warm-up
    # step the loop allocates only block- and boundary-sized arrays.
    grid = Grid((256, 256), (1.0, 1.0))
    ctx = _RunContext(supersonic, grid, pot2d, ControlLaw.scalar(1.0), t_end=1.0, cfl=0.45)
    state = initial_state(grid, default_bump(grid, 3))
    field_bytes = state.w.nbytes
    state, _ = _advance(ctx, state, _boundary_data(ctx, state)[1])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            state, _ = _advance(ctx, state, _boundary_data(ctx, state)[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < field_bytes / 16


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 2.0, 60)
    series = np.column_stack([t, np.exp(-3.0 * t)])
    assert fit_decay_rate(series) == pytest.approx(3.0, abs=1e-9)


def test_fit_decay_rate_degenerate_cases():
    t = np.linspace(0.0, 1.0, 30)
    with pytest.raises(DegenerateSeries):
        fit_decay_rate(np.column_stack([t, np.zeros(30)]))
    with pytest.raises(DegenerateSeries):
        fit_decay_rate(np.column_stack([t[:5], np.exp(-t[:5])]))
    with pytest.raises(SizeMismatch):
        fit_decay_rate(np.zeros((30, 3)))


def test_write_csv_roundtrip(tmp_path, supersonic, pot2d):
    g = Grid((8, 8), (1.0, 1.0))
    rec = run(supersonic, g, default_bump(g, 3), pot2d, ControlLaw.scalar(0.5), t_end=0.05)
    path = tmp_path / "out.csv"
    write_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,L,boundary_integral,control_1,control_2,control_3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (rec.steps + 1, 6)
    # %.17g output reproduces the doubles exactly
    assert np.array_equal(data[:, 0], rec.times)
    assert np.array_equal(data[:, 1], rec.lyapunov)
    assert np.array_equal(data[:, 3:], rec.controls)



# Signed zeros, subnormals, extremes and non-finite values with the text
# both writers must give them.
SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e-300, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, -7.0]
SPECIAL_TEXT = [
    "0", "-0", "4.9406564584124654e-324", "-2.2000000000000002e-308", "1.0000000000000001e+300", "-1e-300",
    "nan", "inf", "-inf", "0.10000000000000001", "0.33333333333333331", "-7",
]


def test_writers_format_special_values(tmp_path):
    table = np.array(SPECIAL).reshape(4, 3)
    text = [SPECIAL_TEXT[3 * i : 3 * i + 3] for i in range(4)]
    rec = RunRecord(
        times=table[:, 0], lyapunov=table[:, 1], boundary=table[:, 2], controls=table[:, ::-1],
        final_state=SimState(0.0, table), c_fit=None, c_l=1.0, steps=3,
    )
    path = tmp_path / "special.csv"
    write_csv(rec, path)
    rows = [",".join(row + row[::-1]) for row in text]
    expected = "t,L,boundary_integral,control_1,control_2,control_3\n" + "".join(f"{row}\n" for row in rows)
    assert path.read_text() == expected

    path = tmp_path / "special.txt"
    words = np.array(SPECIAL_TEXT * 4, dtype=object).reshape(4, 4, 3)
    write_snapshot(Grid((4, 4), (1.0, 1.0)), SimState(0.25, np.array(SPECIAL * 4).reshape(4, 4, 3)), path)
    blocks = ["# component %d\n" % (c + 1) + "".join(" ".join(row) + "\n" for row in words[..., c]) for c in range(3)]
    assert path.read_text() == "# t = 0.25\n# cells = 4 4\n" + "".join(blocks)
    write_snapshot(Grid((4,), (1.0,)), SimState(0.5, table), path)
    blocks = [f"# component {c + 1}\n{' '.join(row[c] for row in text)}\n" for c in range(3)]
    assert path.read_text() == "# t = 0.5\n# cells = 4\n" + "".join(blocks)


def test_write_snapshot_format(tmp_path):
    g = Grid((4,), (1.0,))
    state = initial_state(g, np.arange(8.0).reshape(4, 2))
    path = tmp_path / "snap.txt"
    write_snapshot(g, state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# t = 0"
    assert lines[1] == "# cells = 4"
    assert lines[2] == "# component 1"
    assert [float(v) for v in lines[3].split()] == [0.0, 2.0, 4.0, 6.0]
