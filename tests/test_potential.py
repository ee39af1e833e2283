import numpy as np
import pytest

from hypstab.errors import SizeMismatch
from hypstab.oracle import brute_force_feasible
from hypstab.potential import (
    Infeasible,
    LyapunovPotential,
    estimate_source_bound,
    find_potential,
    find_potential_with_remainder,
    lmi_check,
    lmi_check_with_remainder,
    potential_value,
    remainder_matrix,
    _pencil_top_eigs,
    _scan_directions,
    _unit_directions,
)
from hypstab.symlin import SymMatrix, max_eigenvalue
from hypstab.sysdef import HyperbolicSystem, advection_system

from conftest import random_system


def test_potential_constants():
    pot = LyapunovPotential(m=np.array([1.0, -2.0]), c_a=3.0, c_b=0.5)
    assert pot.c_l == 2.5
    assert pot.d == 2
    with pytest.raises(ValueError):
        LyapunovPotential(m=np.zeros(2), c_a=0.0, c_b=0.0)
    with pytest.raises(ValueError):
        LyapunovPotential(m=np.zeros(2), c_a=1.0, c_b=-1.0)


def test_potential_value_frozen():
    pot = LyapunovPotential(m=np.array([1.0, 2.0]), c_a=1.0, c_b=0.0)
    assert potential_value(pot, (0.5, 0.25)) == pytest.approx(1.0, abs=0.0)
    with pytest.raises(SizeMismatch):
        potential_value(pot, (0.5,))


def test_lmi_check_hand_case():
    sys_ = advection_system(2.0)
    # 1 + m * 2 <= 0 exactly when m <= -1/2
    assert lmi_check(sys_, [-0.5], 1.0)
    assert lmi_check(sys_, [-3.0], 1.0)
    assert not lmi_check(sys_, [-0.49], 1.0)
    assert not lmi_check(sys_, [1.0], 1.0)


def test_remainder_and_source_bound():
    b = np.array([[1.0, 0.0], [0.0, -2.0]])
    sys_ = HyperbolicSystem((SymMatrix(np.eye(2)),), b)
    assert np.array_equal(remainder_matrix(sys_), np.diag([-2.0, 4.0]))
    # largest eigenvalue of -2 B_sym is 4
    assert estimate_source_bound(sys_) == pytest.approx(4.0, abs=1e-12)
    # dissipative source clamps at zero
    damped = HyperbolicSystem((SymMatrix(np.eye(2)),), np.eye(2))
    assert estimate_source_bound(damped) == 0.0


def test_supersonic_potential_frozen(supersonic):
    pot = find_potential(supersonic, 0.0)
    assert isinstance(pot, LyapunovPotential)
    assert pot.c_a == 1.0 and pot.c_b == 0.0 and pot.c_l == 1.0
    # optimal direction is against the flow; phi* = a - |v| = -2
    assert np.linalg.norm(pot.m) == pytest.approx(0.5005, abs=1e-9)
    assert pot.m[0] == pytest.approx(-0.5005, abs=1e-6)
    assert lmi_check(supersonic, pot.m, pot.c_a)


def test_subsonic_certificate(subsonic):
    res = find_potential(subsonic, 0.0)
    assert isinstance(res, Infeasible)
    # least achievable value is a - |v| = 0.5 > 0
    assert res.best_value == pytest.approx(0.5, abs=1e-9)


def test_advection_potential_frozen():
    pot = find_potential(advection_system(1.0), 0.0)
    assert pot.m[0] == pytest.approx(-1.001, abs=1e-9)
    assert pot.c_l == 1.0


def test_zero_jacobians_infeasible():
    sys_ = HyperbolicSystem((SymMatrix(np.zeros((2, 2))), SymMatrix(np.zeros((2, 2)))), np.zeros((2, 2)))
    res = find_potential(sys_, 0.0)
    assert isinstance(res, Infeasible)
    assert res.best_value == pytest.approx(0.0, abs=1e-15)


def test_source_bound_shifts_margin(supersonic):
    pot = find_potential(supersonic, 1.5)
    # default margin keeps the decay rate positive: c_a = 2 c_b + 1
    assert pot.c_a == pytest.approx(4.0)
    assert pot.c_l == pytest.approx(2.5)
    assert lmi_check(supersonic, pot.m, pot.c_a)


def test_c_a_override(supersonic):
    pot = find_potential(supersonic, 0.0, c_a_override=0.25)
    assert pot.c_a == 0.25 and pot.c_l == 0.25
    assert np.linalg.norm(pot.m) == pytest.approx(0.25 / 2.0 * 1.001, rel=1e-9)
    # an override at or below the source bound cannot certify decay
    assert isinstance(find_potential(supersonic, 0.5, c_a_override=0.5), Infeasible)


def test_repeated_solves_are_bit_identical(supersonic):
    a = find_potential(supersonic, 0.0)
    b = find_potential(supersonic, 0.0)
    assert np.array_equal(a.m, b.m)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_batched_top_eigenvalue_matches_jacobi(d, n):
    rng = np.random.default_rng(100 * d + n)
    sys_ = random_system(rng, d, n)
    dirs = rng.normal(size=(16, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    batched = _pencil_top_eigs(sys_, dirs)
    scale = max(np.abs(jac.a).max() for jac in sys_.jacobians)
    for direction, top in zip(dirs, batched):
        pencil = sum(c * jac.a for c, jac in zip(direction, sys_.jacobians))
        assert abs(top - max_eigenvalue(SymMatrix(pencil))) <= 1e-12 * (1.0 + scale)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scan_of_zero_jacobians_returns_the_first_direction(d):
    zero = SymMatrix(np.zeros((2, 2)))
    sys_ = HyperbolicSystem((zero,) * d, np.zeros((2, 2)))
    assert _scan_directions(sys_, _unit_directions(d)) == 0


def test_remainder_mode_dissipative_source():
    # source u_t = ... - u: remainder -2 I eats the c_a margin at m = 0
    sys_ = HyperbolicSystem((SymMatrix(np.eye(2)),), np.eye(2))
    pot = find_potential_with_remainder(sys_)
    assert np.array_equal(pot.m, np.zeros(1))
    assert pot.c_l == 1.0
    assert lmi_check_with_remainder(sys_, pot.m, pot.c_a, [np.zeros(1)])


def test_remainder_mode_growing_source(supersonic):
    # destabilizing source needs a genuine weight
    sys_ = HyperbolicSystem(supersonic.jacobians, -0.25 * np.eye(3))
    pot = find_potential_with_remainder(sys_)
    assert isinstance(pot, LyapunovPotential)
    assert pot.c_b == 0.0 and pot.c_l == pot.c_a == 1.0
    assert np.linalg.norm(pot.m) > 0.0
    assert lmi_check_with_remainder(sys_, pot.m, pot.c_a, [np.zeros(2)])


def test_remainder_mode_matches_plain_when_source_vanishes(supersonic):
    plain = find_potential(supersonic, 0.0)
    rem = find_potential_with_remainder(supersonic)
    assert np.allclose(plain.m, rem.m, rtol=1e-9, atol=1e-9)


def test_remainder_mode_subsonic_still_infeasible(subsonic):
    assert isinstance(find_potential_with_remainder(subsonic), Infeasible)


def test_solver_agrees_with_grid_oracle_sample():
    # spot check on the first systems of the acceptance sweep's generator;
    # the full 50-system comparison runs in the acceptance suite
    rng = np.random.default_rng(3030)
    for _ in range(8):
        sys_ = random_system(rng, 2, int(rng.integers(1, 4)))
        solver = not isinstance(find_potential(sys_, 0.0, c_a_override=1.0), Infeasible)
        grid, witness = brute_force_feasible(sys_, c=1.0)
        assert solver == grid
        if witness is not None:
            assert lmi_check(sys_, witness, 1.0)


def test_feasible_results_always_satisfy_the_inequality():
    rng = np.random.default_rng(12)
    found = 0
    for _ in range(12):
        sys_ = random_system(rng, 2, 3)
        res = find_potential(sys_, 0.0)
        if isinstance(res, LyapunovPotential):
            found += 1
            assert lmi_check(sys_, res.m, res.c_a)
    assert found > 0
