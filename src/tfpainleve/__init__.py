"""Numerical toolkit for the boundary layer of harmonically trapped ground states.

The package solves the Painleve-II connection problem that governs the layer
profile near the classical turning surface, builds the correction hierarchy on
top of it, assembles composite approximations of the full ground state, and
studies the small-eigenvalue scaling of the linearized operator, with
Bohr-Sommerfeld quadrature as an independent cross-check.
"""

import os
import sys

__version__ = "0.1.0"

# one OpenBLAS thread starts faster, and the only BLAS call here is a small gemv
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    assemble_M0,
)
from .corrections import (
    CorrectionSet,
    assemble_Fn,
    build_corrections,
    composite_nu,
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
    "assemble_M0",
    "CorrectionSet",
    "assemble_Fn",
    "build_corrections",
    "composite_nu",
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
    "assemble_Lplus",
    "eig_smallest",
    "scaling_study",
    "PotentialProfile",
    "from_function",
    "from_solution",
    "action",
    "bs_eigenvalue",
]
