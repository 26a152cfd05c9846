import numpy as np
import pytest

from tfpainleve import (
    assemble_M0,
    build_corrections,
    eig_smallest,
    solve_hastings_mcleod,
    solve_ground_state,
)
from tfpainleve import painleve


@pytest.fixture(scope="session")
def sol():
    return solve_hastings_mcleod()


@pytest.fixture(scope="session")
def profile_floor():
    """``damped_newton``'s rounding floor at a solved profile: where its solve must end."""
    def floor(solution):
        h, v = solution.grid.spacing, solution.nu0[1:-1]
        jac = painleve.layer_operator(h, 3.0 * v * v - solution.grid.nodes[1:-1])
        return painleve._rounding_floor(jac, v)

    return floor


@pytest.fixture(scope="session")
def cset1(sol):
    return build_corrections(sol, 1, order=2)


@pytest.fixture(scope="session")
def cset2(sol):
    return build_corrections(sol, 2, order=2)


@pytest.fixture(scope="session")
def cset3(sol):
    return build_corrections(sol, 3, order=2)


@pytest.fixture(scope="session")
def m0_report(sol):
    return eig_smallest(assemble_M0(sol), 8, label="M0")


@pytest.fixture(scope="session")
def gs1_eps01(cset1):
    return solve_ground_state(0.1, cset1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1709)
