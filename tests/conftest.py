import numpy as np
import pytest

from hypstab.sysdef import EulerScenario, HyperbolicSystem, euler_symmetrized
from hypstab.symlin import SymMatrix


@pytest.fixture
def supersonic():
    return euler_symmetrized(EulerScenario(1.0, (3.0, 0.0), 1.0))


@pytest.fixture
def subsonic():
    return euler_symmetrized(EulerScenario(1.0, (0.5, 0.0), 1.0))


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (n, n))
    return (m + m.T) / 2.0


def random_system(rng: np.random.Generator, d: int, n: int) -> HyperbolicSystem:
    jac = tuple(SymMatrix(random_symmetric(rng, n)) for _ in range(d))
    return HyperbolicSystem(jac, np.zeros((n, n)), label="random")


def full_grid_scan(system: HyperbolicSystem, c: float = 1.0, m_max: float = 10.0, points: int = 401, chunk_rows: int = 64):
    """Reference weight search for d = 2: test every point of the uniform
    points**2 grid on [-m_max, m_max]**2 for c*Id + m_1 A_1 + m_2 A_2 <= 0
    and return (feasible, first witness in row-major order or None).

    A hit proves feasibility; a miss proves nothing beyond the window.
    """
    a1 = system.jacobians[0].a
    a2 = system.jacobians[1].a
    n = a1.shape[0]
    axis = np.linspace(-m_max, m_max, points)
    slack = 1e-10 * (1.0 + c)
    eye = c * np.eye(n)
    for start in range(0, points, chunk_rows):
        m1 = axis[start : start + chunk_rows]
        block = (eye + m1[:, None, None, None] * a1 + axis[None, :, None, None] * a2).reshape(-1, n, n)
        top = np.linalg.eigvalsh(block)[:, -1]
        hits = np.flatnonzero(top <= slack)
        if hits.size:
            i, j = divmod(int(hits[0]), points)
            return True, np.array([m1[i], axis[j]])
    return False, None
