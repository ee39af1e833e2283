import itertools

import numpy as np
import pytest

from conftest import random_symmetric, random_system
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
    _boundary_data,
    cell_weights,
    default_bump,
    fit_decay_rate,
    initial_state,
    lyapunov_value,
    run,
    write_csv,
    write_snapshot,
)
from hypstab.sysdef import HyperbolicSystem, advection_system


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


def random_loop(seed, cells, lengths):
    """Context and random state of a seeded system with speeds of both
    signs on every axis, a source, a tilted weight and scalar feedback."""
    rng = np.random.default_rng(seed)
    grid = Grid(cells, lengths)
    d, n = grid.d, 4
    jac = random_system(rng, d, n).jacobians
    system = HyperbolicSystem(jac, 0.3 * random_symmetric(rng, n))
    pot = LyapunovPotential(m=rng.uniform(-1.0, 1.0, d), c_a=1.0, c_b=0.0)
    ctx = _RunContext(system, grid, pot, ControlLaw.scalar(0.7), t_end=0.05, cfl=0.45)
    for eig in ctx.partition.eigs:
        assert eig.eigenvalues.min() < 0.0 < eig.eigenvalues.max()
    return ctx, initial_state(grid, rng.standard_normal(grid.cells_per_axis + (n,)))


LOOPS = [(seed, (13,), (1.0,)) for seed in (1, 2)] + [(seed, (12, 7), (1.0, 0.6)) for seed in (3, 4)]


@pytest.mark.parametrize("seed, cells, lengths", LOOPS)
def test_advance_matches_the_characteristic_sweep(seed, cells, lengths):
    ctx, state = random_loop(seed, cells, lengths)
    for _ in range(3):
        before = state.w.copy()
        _, ghosts = _boundary_data(ctx, state)
        expect = state.w
        for k, eig in enumerate(ctx.partition.eigs[1::2]):
            expect = characteristic_sweep(eig, k, expect, ghosts[2 * k : 2 * k + 2], ctx.dt, ctx.grid.spacing[k])
        expect = expect - ctx.dt * (expect @ ctx.system.source.T)
        new, _, _ = _advance(ctx, state)
        assert np.array_equal(state.w, before)
        assert new.t == state.t + ctx.dt
        assert np.abs(new.w - expect).max() <= 1e-13 * np.abs(expect).max()
        state = new


@pytest.mark.parametrize("seed, cells, lengths", LOOPS)
def test_split_flux_sums_to_the_axis_jacobian(seed, cells, lengths):
    # Exact up to rounding against the eigendata T Lambda T^T; against A_k
    # itself only up to the eigensolver's backward error.
    ctx, _ = random_loop(seed, cells, lengths)
    axes = zip(ctx.partition.eigs[1::2], ctx.system.jacobians, ctx.grid.spacing, ctx.split)
    for eig, jac, h, (plus, minus) in axes:
        scale = ctx.dt / h
        total = (plus + minus) / scale
        eigen = (eig.T * eig.eigenvalues) @ eig.T.T
        assert np.abs(total - eigen).max() <= 1e-14 * np.abs(eigen).max()
        assert np.linalg.norm(total - jac.a) <= 1e-12 * np.linalg.norm(jac.a)
        assert np.linalg.eigvalsh(plus).min() >= -1e-14 * scale
        assert np.linalg.eigvalsh(minus).max() <= 1e-14 * scale


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
