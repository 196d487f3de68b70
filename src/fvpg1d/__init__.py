"""Finite volumes on the unit interval through a mixed Petrov-Galerkin lens.

Three discretizations of -u'' = f with homogeneous Dirichlet data share one
set of unknowns (cell values for u, vertex values for the gradient): the
heuristic finite-volume scheme, the classical mixed scheme, and a
Petrov-Galerkin scheme whose test space is generated by a weighting shape
function psi.  The package cross-checks the schemes against each other,
measures convergence orders, and estimates the discrete inf-sup constant
that separates stable weighting functions from unstable ones.
"""

from .mesh import (Mesh, RegularFamilySpec, build_random_regular, build_uniform,
                   validate_regular)
from .weighting import (ConditionReport, MomentTable, StabilityConstants,
                        WeightingFunction, builtin_affine, builtin_spline,
                        check_fv_compat, check_interp_compat, check_localization,
                        check_orthogonality, condition_report, design_cubic,
                        moments, perturbed_family, stability_constants)
from .assembly import (SaddleSystem, SourceFunction, assemble_fv, assemble_mass_pg,
                       gauss_legendre, project_rhs, saddle_classical, saddle_pg)
from .solver import DiscreteSolution, SolverError, residual, solve_fv, solve_mixed
from .analysis import (ConvergenceTable, ErrorReport, InfSupReport,
                       ManufacturedProblem, convergence_study, discrete_norm_q,
                       error_norms, fit_rate, get_problem, infsup_constant,
                       infsup_sweep, infsup_witness_sup, interp_p0, interp_p1,
                       loglog_slope, mesh_sequence, quadratic_problem, run_scheme,
                       sin_problem, zero_problem)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "RegularFamilySpec", "build_uniform", "build_random_regular",
    "validate_regular",
    "WeightingFunction", "MomentTable", "StabilityConstants", "ConditionReport",
    "gauss_legendre", "moments", "stability_constants", "condition_report",
    "check_localization", "check_orthogonality", "check_fv_compat",
    "check_interp_compat", "builtin_affine", "builtin_spline", "design_cubic",
    "perturbed_family",
    "SourceFunction", "SaddleSystem", "assemble_mass_pg", "project_rhs", "assemble_fv",
    "saddle_classical", "saddle_pg",
    "SolverError", "DiscreteSolution", "solve_fv", "solve_mixed", "residual",
    "ManufacturedProblem", "ErrorReport", "ConvergenceTable", "InfSupReport",
    "sin_problem", "quadratic_problem", "zero_problem", "get_problem",
    "interp_p0", "interp_p1", "error_norms", "discrete_norm_q",
    "infsup_constant", "infsup_witness_sup", "fit_rate", "loglog_slope",
    "mesh_sequence", "run_scheme", "convergence_study", "infsup_sweep",
    "__version__",
]
