"""Reduced-order modeling of the 2D shallow water equations.

Three reduction strategies (plain POD-Galerkin, a tensorial variant with
precomputed coefficient tensors, and POD/DEIM hyper-reduction) built on top
of an implicit alternating-direction finite-difference reference solver,
plus a benchmark harness comparing their accuracy and cost.
"""

from swerom.bench import ExperimentConfig, RunReport, run_experiment
from swerom.deim import (
    DeimTermOperator,
    build_deim_term_operator,
    deim_operators_from_snapshots,
    deim_select_points,
    deim_tensor_coefficients,
)
from swerom.errors import FileFormatError, NonConvergenceError
from swerom.flops import flop_count
from swerom.heap import fix_thresholds
from swerom.metrics import relative_error_series, rmse_final
from swerom.model import (
    DEFAULT_CONSTANTS,
    DifferenceOperators,
    FieldState,
    Grid,
    PhysicalConstants,
    build_grid,
    build_operators,
    coriolis_field,
    initial_state,
)
from swerom.pod import PodBasis, build_state_bases, center_snapshots, energy_index
from swerom.rom import (
    ReducedModel,
    ReducedSpace,
    TensorCoefficients,
    build_tensor_coefficients,
    project_initial,
    reduced_jacobian,
    standard_pod_nonlinear,
    tensorial_nonlinear,
)
from swerom.snapshots import SnapshotSet, load_snapshots, save_snapshots
from swerom.solver import FullSolver, SolverConfig, run_full

__version__ = "0.1.0"

# pinned once per process: see swerom.heap
fix_thresholds()

__all__ = [
    "DEFAULT_CONSTANTS",
    "DeimTermOperator",
    "DifferenceOperators",
    "ExperimentConfig",
    "FieldState",
    "FileFormatError",
    "FullSolver",
    "Grid",
    "NonConvergenceError",
    "PhysicalConstants",
    "PodBasis",
    "ReducedModel",
    "ReducedSpace",
    "RunReport",
    "SnapshotSet",
    "SolverConfig",
    "TensorCoefficients",
    "build_deim_term_operator",
    "build_grid",
    "build_operators",
    "build_state_bases",
    "build_tensor_coefficients",
    "center_snapshots",
    "coriolis_field",
    "deim_operators_from_snapshots",
    "deim_select_points",
    "deim_tensor_coefficients",
    "energy_index",
    "flop_count",
    "initial_state",
    "load_snapshots",
    "project_initial",
    "reduced_jacobian",
    "relative_error_series",
    "rmse_final",
    "run_experiment",
    "run_full",
    "save_snapshots",
    "standard_pod_nonlinear",
    "tensorial_nonlinear",
    "__version__",
]
