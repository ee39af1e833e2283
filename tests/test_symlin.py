import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab.errors import NoConvergence, NonFinite, NonUnitDirection, NotSymmetric, SizeMismatch
from hypstab.potential import lmi_check
from hypstab.symlin import (
    EigenDecomposition,
    SymMatrix,
    assemble_pencil,
    eigendecompose,
    max_eigenvalue,
)
from hypstab.sysdef import HyperbolicSystem

from conftest import random_symmetric


def test_symmetrizes_roundoff_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
    m = SymMatrix(a)
    assert m.a[0, 1] == m.a[1, 0]


def test_rejects_genuine_asymmetry():
    with pytest.raises(NotSymmetric):
        SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(SizeMismatch):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(NonFinite):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_stored_matrix_is_read_only():
    m = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.a[0, 0] = 5.0


def test_pencil_is_linear_in_direction():
    a1 = SymMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    a2 = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    nu = np.array([0.6, 0.8])
    p = assemble_pencil((a1, a2), nu)
    assert np.allclose(p.a, 0.6 * a1.a + 0.8 * a2.a, atol=1e-15)


def test_pencil_rejects_bad_input():
    a1 = SymMatrix(np.eye(2))
    with pytest.raises(NonUnitDirection):
        assemble_pencil((a1,), np.array([0.5]))
    with pytest.raises(SizeMismatch):
        assemble_pencil((a1, SymMatrix(np.eye(3))), np.array([0.6, 0.8]))
    with pytest.raises(SizeMismatch):
        assemble_pencil((a1,), np.array([1.0, 0.0]))


def test_eigendecompose_known_2x2():
    # [[0,1],[1,0]] has eigenpairs (-1, (1,-1)/sqrt 2) and (1, (1,1)/sqrt 2)
    dec = eigendecompose(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(dec.T, [[r, r], [-r, r]], atol=1e-14)


def test_eigendecompose_sign_convention():
    # first nonzero entry of every column is positive
    rng = np.random.default_rng(5)
    for _ in range(20):
        dec = eigendecompose(SymMatrix(random_symmetric(rng, 4)))
        for col in dec.T.T:
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0.0


def test_eigendecompose_diagonal_is_sorted_identity_transform():
    dec = eigendecompose(SymMatrix(np.diag([3.0, -1.0, 2.0])))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=0.0)
    # columns are signed unit vectors picking out the sorted diagonal
    assert np.allclose(np.abs(dec.T), np.eye(3)[:, [1, 2, 0]], atol=0.0)


def test_eigendecompose_1x1():
    dec = eigendecompose(SymMatrix(np.array([[-7.0]])))
    assert dec.eigenvalues[0] == -7.0
    assert dec.T[0, 0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_eigendecompose_reconstructs_and_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n) * rng.uniform(0.1, 50.0)
    dec = eigendecompose(SymMatrix(a))
    t, lam = dec.T, dec.eigenvalues
    assert np.all(np.diff(lam) >= 0.0)
    assert np.max(np.abs(t.T @ t - np.eye(n))) <= 1e-10
    assert np.max(np.abs(t @ np.diag(lam) @ t.T - a)) <= 1e-8 * (1.0 + np.abs(a).max())
    # independent route: LAPACK eigenvalues
    assert np.max(np.abs(lam - np.linalg.eigvalsh(a))) <= 1e-8 * (1.0 + np.abs(a).max())


def test_decomposition_arrays_are_read_only():
    dec = eigendecompose(SymMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 9.0
    with pytest.raises(ValueError):
        dec.T[0, 0] = 9.0


def test_decomposition_validates_orthogonality():
    with pytest.raises(ValueError):
        EigenDecomposition(eigenvalues=np.zeros(2), T=np.ones((2, 2)))


def test_max_eigenvalue():
    assert max_eigenvalue(SymMatrix(np.diag([-5.0, 2.0]))) == pytest.approx(2.0, abs=1e-14)


def test_negative_semidefinite_boundary():
    # lmi_check accepts c * Id + m A up to a top eigenvalue of 1e-10 * (1 + c)
    def holds(diag, c):
        system = HyperbolicSystem((SymMatrix(np.diag(diag)),), np.zeros((len(diag), len(diag))))
        return lmi_check(system, [1.0], c)

    assert holds([0.0, 1.0], c=-1.0)  # diag(-1, 0) at zero slack
    assert not holds([-1.0, 1e-6], c=0.0)
    assert holds([5e-11], c=0.0)


def test_residual_check_raises_no_convergence(monkeypatch):
    # a basis rotated off the eigenvectors fails the residual check
    lapack_eigh = np.linalg.eigh

    def rotated_eigh(a):
        lam, v = lapack_eigh(a)
        turn = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
        return lam, v @ turn

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", rotated_eigh)
        with pytest.raises(NoConvergence):
            eigendecompose(SymMatrix([[2.0, 1.0], [1.0, 3.0]]))
    # the unrotated basis of a diagonal matrix passes
    assert np.array_equal(eigendecompose(SymMatrix(np.diag([2.0, 1.0]))).eigenvalues, [1.0, 2.0])
