"""Generalized top-k / k-support norms and the geometry of their unit balls.

The package and its command line need numpy only; the test suite needs the
``test`` extra as well.

Submodules
----------
core
    Supports, projections, level-index machinery.
norms
    lp / top-(q,k) / k-support norm evaluation, its primal decomposition and
    the exact top-ball projection.
faces
    Optimal supports as a lattice interval, exposed faces, normal cones.
polytopes
    Exact rational combinatorics of the p = inf case.
solver
    Accelerated proximal-gradient solver for k-support-penalized minimization.
oracles
    Independent brute-force ground truth for tests and verification,
    including the face of a finite atom set (``atomset_face``).
cli
    Command-line interface (``ksupport`` entry point).
"""

from .core import (
    ConvergenceError,
    InvalidInputError,
    LevelIndexData,
    ScaleLimitError,
    Tolerance,
    ZeroVectorError,
    k_subsets,
    l0,
    level_index,
    project_support,
    support_of,
)
from .faces import (
    FaceDescription,
    SupportLattice,
    exposed_face_sp,
    normal_cone_membership,
    optimal_support_lattice_bounds,
    optimal_supports,
    support_lattice,
    v_p,
)
from .norms import (
    EvalReport,
    NormSpec,
    ksupport_decomposition,
    ksupport_norm,
    ksupport_value,
    lp_norm,
    project_top_ball,
    top_norm,
)
from .oracles import atomset_face, ksupport_norm_oracle
from .polytopes import (
    FanRefinementReport,
    RationalPolytope,
    enumerate_proper_faces_top1k,
    facet_from_sign_vector,
    fan_refinement_check,
    is_hypersimplex,
    ksup_inf_ball,
    top1k_ball,
)
from .solver import (
    SmoothObjective,
    SolveOptions,
    SolveReport,
    ZeroGradientError,
    certify_optimality,
    check_gradient,
    identified_support,
    lmo_sp_ball,
    logistic_objective,
    quadratic_objective,
    solve_penalized,
)

__version__ = "0.1.0"
