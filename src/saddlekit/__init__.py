"""Saddle-point search on smooth energy surfaces.

The core iteration repeatedly minimizes a locally reversed objective whose
unique nearby minimizer steps quadratically toward an index-1 (or index-m)
saddle, in flat space or on the unit sphere.  A gentlest-ascent integrator
and a Newton root finder are included as baselines, together with benchmark
surfaces and an experiment harness (see ``saddlekit.harness`` and the
``saddlekit`` command line).
"""

from .errors import (
    ConvexRegionError,
    CoefficientError,
    DimensionError,
    EigensolveError,
    ModelRegionError,
    OffManifoldError,
    OrderEstimateError,
    SubsolveError,
)
from .potentials import (
    MorseClusterSpec,
    PotentialModel,
    build_morse_lattice,
    from_quadratic,
    make_builtin,
    write_xyz,
)
from .eigen import Hessian, MinModeResult, dense_eigensolve, min_modes, stationary_index
from .objective import (
    ModifiedObjective,
    build_flat,
    build_index_m,
    build_manifold,
    build_sphere_naive,
)
from .subsolve import InnerSolve, SubsolveConfig, minimize, sd_single_step
from .manifold import (
    TangentProjector,
    constrained_index,
    solve_constrained_subproblem,
    tangent_projector,
)
from .search import (
    ConvergenceRecord,
    SearchConfig,
    SearchState,
    estimate_order,
    initial_state,
    jacobian_of_step_map,
    newton_stationary,
    run,
    step,
)
from . import gad

__version__ = "0.1.0"
