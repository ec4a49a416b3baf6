"""Numerical laboratory for the classical limit of a nucleon-meson model.

Two sides of one model: a coupled nonlinear field system (z1 on a periodic
grid, z2 on its dual modes) and a scaled truncated Fock-space quantisation
of the same Hamiltonian.  The package builds both, evolves both, minimises
both energies, and measures how the quantum side approaches the classical
one as the scaling parameter epsilon decreases.
"""

__version__ = "0.1.0"

from .discretization import (
    Grid,
    ModelParams,
    coupling_weight,
    dispersion,
    one_body_hamiltonian,
)
from .classical_energy import evaluate_h, minimize_constrained
from .classical_dynamics import FieldState, Trajectory, flow, free_flow
from .fock_space import (
    FockBasis,
    coherent_state,
    sector_basis,
    truncated_basis,
)
from .quantum_dynamics import (
    FactoredHamiltonian,
    duhamel_check,
    propagate,
)
from .ground_state import lowest_eigenpair, theorem2_sweep
from .limit_harness import theorem1_sweep
from .errors import (
    ConfigInvalid,
    ConvergenceFailure,
    MaxIterationsExceeded,
    NelsonLabError,
    StepSizeRejected,
    TruncationInsufficient,
)

__all__ = [
    "__version__",
    "Grid",
    "ModelParams",
    "coupling_weight",
    "dispersion",
    "one_body_hamiltonian",
    "evaluate_h",
    "minimize_constrained",
    "FieldState",
    "Trajectory",
    "flow",
    "free_flow",
    "FockBasis",
    "coherent_state",
    "sector_basis",
    "truncated_basis",
    "FactoredHamiltonian",
    "duhamel_check",
    "propagate",
    "lowest_eigenpair",
    "theorem2_sweep",
    "theorem1_sweep",
    "ConfigInvalid",
    "ConvergenceFailure",
    "MaxIterationsExceeded",
    "NelsonLabError",
    "StepSizeRejected",
    "TruncationInsufficient",
]
