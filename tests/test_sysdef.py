import numpy as np
import pytest

from hypstab.errors import InvalidScenario, SizeMismatch
from hypstab.symlin import SymMatrix, assemble_pencil, eigendecompose
from hypstab.sysdef import (
    EulerScenario,
    HyperbolicSystem,
    advection_system,
    characteristic_transform,
    euler_eigenstructure,
    euler_symmetrized,
)


def unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        EulerScenario(0.0, (1.0, 0.0), 1.0)
    with pytest.raises(InvalidScenario):
        EulerScenario(1.0, (1.0, 0.0), -2.0)
    with pytest.raises(InvalidScenario):
        EulerScenario(1.0, (1.0, 0.0, 0.0), 1.0)
    assert EulerScenario(1.0, (3.0, 4.0), 1.0).speed == pytest.approx(5.0)


def test_euler_jacobians_frozen():
    sys_ = euler_symmetrized(EulerScenario(1.0, (3.0, 0.0), 1.0))
    assert np.array_equal(sys_.jacobians[0].a, [[3, 1, 0], [1, 3, 0], [0, 0, 3]])
    assert np.array_equal(sys_.jacobians[1].a, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert not sys_.source.any()
    assert (sys_.d, sys_.n) == (2, 3)


def test_system_validation():
    a = SymMatrix(np.eye(2))
    with pytest.raises(SizeMismatch):
        HyperbolicSystem((a, SymMatrix(np.eye(3))), np.zeros((2, 2)))
    with pytest.raises(SizeMismatch):
        HyperbolicSystem((a,), np.zeros((3, 3)))
    with pytest.raises(SizeMismatch):
        HyperbolicSystem((), np.zeros((0, 0)))
    # the grids and boundaries stop at d = 2, and so does the system
    with pytest.raises(SizeMismatch):
        HyperbolicSystem((a, a, a), np.zeros((2, 2)))


def test_source_sym():
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys_ = HyperbolicSystem((SymMatrix(np.eye(2)),), b)
    assert np.array_equal(sys_.source_sym(), [[0.0, 0.5], [0.5, 0.0]])


def test_closed_form_eigenvalues():
    sc = EulerScenario(1.0, (3.0, 0.0), 1.0)
    for nu, expect in [
        (unit(0.0), (2.0, 3.0, 4.0)),
        (np.array([-1.0, 0.0]), (-4.0, -3.0, -2.0)),
        (np.array([0.0, 1.0]), (-1.0, 0.0, 1.0)),
    ]:
        dec = euler_eigenstructure(sc, nu)
        assert np.allclose(dec.eigenvalues, expect, atol=1e-14)


def test_closed_form_matches_pencil_decomposition():
    # dual route: generic LAPACK decomposition of the assembled pencil
    sc = EulerScenario(1.2, (2.0, -1.5), 0.7)
    sys_ = euler_symmetrized(sc)
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, 2.0 * np.pi, 25):
        nu = unit(theta)
        closed = euler_eigenstructure(sc, nu)
        generic = eigendecompose(assemble_pencil(sys_.jacobians, nu))
        assert np.max(np.abs(closed.eigenvalues - generic.eigenvalues)) < 1e-12
        for j in range(3):
            col_a = closed.T[:, j]
            col_b = generic.T[:, j]
            assert min(np.max(np.abs(col_a - col_b)), np.max(np.abs(col_a + col_b))) < 1e-10


def test_characteristic_transform_frozen():
    sc = EulerScenario(1.0, (3.0, 0.0), 1.0)
    q = characteristic_transform(sc, (1.0, 0.0), (1.0, 1.0, 0.0))
    assert np.allclose(q, [0.0, 0.0, np.sqrt(2.0)], atol=1e-15)
    # shear mode only: the (0, -n2, n1) column picks out +v2 here
    q = characteristic_transform(sc, (1.0, 0.0), (0.0, 0.0, 2.0))
    assert np.allclose(q, [0.0, 2.0, 0.0], atol=1e-15)


def test_characteristic_transform_is_isometry():
    sc = EulerScenario(1.0, (1.0, 2.0), 3.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        nu = unit(rng.uniform(0.0, 2.0 * np.pi))
        w = rng.normal(size=3)
        q = characteristic_transform(sc, nu, w)
        assert np.dot(q, q) == pytest.approx(np.dot(w, w), rel=1e-12)
        # consistent with the closed-form eigenvectors
        assert np.allclose(q, euler_eigenstructure(sc, nu).T.T @ w, atol=1e-12)


def test_advection_helper():
    sys_ = advection_system(2.0)
    assert sys_.d == 1 and sys_.n == 1
    assert sys_.jacobians[0].a[0, 0] == 2.0
    diag = advection_system([1.0, 0.0, -3.0])
    assert np.array_equal(diag.jacobians[0].a, np.diag([1.0, 0.0, -3.0]))
