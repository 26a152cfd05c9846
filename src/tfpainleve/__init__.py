"""Numerical toolkit for the boundary layer of harmonically trapped ground states.

The package solves the Painleve-II connection problem that governs the layer
profile near the classical turning surface, builds the correction hierarchy on
top of it, assembles composite approximations of the full ground state, and
studies the small-eigenvalue scaling of the linearized operator, with
Bohr-Sommerfeld quadrature as an independent cross-check.
"""

__version__ = "0.1.0"

from .grids import (
    SingularPivotError,
    Grid1D,
    TridiagonalOperator,
    solve_tridiagonal,
    first_difference,
    second_difference,
    to_boundary_layer,
    uniform_grid,
)
from .painleve import (
    ConvergenceError,
    PainleveSolution,
    bn_coefficients,
    tail_plus,
    tail_minus,
    solve_hastings_mcleod,
)
from .corrections import (
    CorrectionSet,
    nu0_second_derivative,
    assemble_F1,
    assemble_Fn,
    build_corrections,
    composite_nu,
    tail_fit_window,
)
from .groundstate import (
    GroundState,
    RemainderTable,
    default_grid,
    solve_ground_state,
    energy,
    energy_of,
    composite_eta,
    remainder_study,
)
from .spectrum import (
    SpectrumReport,
    ScalingTable,
    assemble_M0,
    assemble_Lplus,
    eig_smallest,
    scaling_study,
)
from .semiclassics import (
    PotentialProfile,
    from_function,
    from_solution,
    action,
    bs_eigenvalue,
)

__all__ = [
    "SingularPivotError",
    "Grid1D",
    "TridiagonalOperator",
    "solve_tridiagonal",
    "first_difference",
    "second_difference",
    "to_boundary_layer",
    "uniform_grid",
    "ConvergenceError",
    "PainleveSolution",
    "bn_coefficients",
    "tail_plus",
    "tail_minus",
    "solve_hastings_mcleod",
    "CorrectionSet",
    "nu0_second_derivative",
    "assemble_F1",
    "assemble_Fn",
    "build_corrections",
    "composite_nu",
    "tail_fit_window",
    "GroundState",
    "RemainderTable",
    "default_grid",
    "solve_ground_state",
    "energy",
    "energy_of",
    "composite_eta",
    "remainder_study",
    "SpectrumReport",
    "ScalingTable",
    "assemble_M0",
    "assemble_Lplus",
    "eig_smallest",
    "scaling_study",
    "PotentialProfile",
    "from_function",
    "from_solution",
    "action",
    "bs_eigenvalue",
]
