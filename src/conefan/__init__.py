"""conefan: exact rational convex geometry for graded monomial-ideal systems.

Everything is exact: scalars are arbitrary-precision rationals, equality
tests are structural on canonical forms, and no tolerance appears anywhere.
The heavy pivot loops run on fraction-free integer rows in plain Python
(see conefan._kernel).
"""

from .errors import (
    BudgetExceededError,
    CapExceededError,
    ConefanError,
    EmptyPolyhedronError,
    InputError,
    InternalError,
    NotInConeError,
    NotPointedError,
    NotPointedSupportError,
    StabilizationError,
)
from .fans import (
    Cone,
    Fan,
    caratheodory_reduce,
    common_refinement,
    cone_from_generators,
    cone_from_normals,
    every_cost_linear_on,
    independent_subsets,
    intersect,
    is_cost_linear_on,
    is_face,
    is_smooth,
    linearity_fan,
    normal_fan,
    origin_cone,
    refines,
    smooth_refine,
)
from .graded import (
    ExponentCertificate,
    GradedSystem,
    LimitCheck,
    MonomialIdeal,
    VerificationReport,
    asymptotic_limit_check,
    asymptotic_newton,
    asymptotic_valuation,
    closure_equal,
    expand_degree,
    ideal_power,
    ideal_product,
    ideal_sum,
    newton_hform,
    newton_polyhedron,
    stabilizing_exponent,
    verify_closure_identity,
    weight_valuation,
    weight_vector,
)
from .linalg import (
    LinearSolution,
    hermite_basis_det,
    kernel_basis,
    linear_solve,
    primitive,
    rank,
)
from .lp import (
    CostOptimum,
    DualityCheck,
    LpInstance,
    LpOutcome,
    duality_check,
    price_polyhedron,
    representation_cost,
    simplex_solve,
)
from .polyhedra import (
    UNBOUNDED,
    HPolyhedron,
    MinimizeResult,
    VRepresentation,
    canonical_h,
    canonical_vrep,
    contains,
    decompose_weyl,
    dual_description,
    minimize_linear,
    minkowski_sum,
    project,
    same_point_set,
    scale_polyhedron,
    vrep_to_h,
)
from .rational import PLUS_INFINITY, PlusInfinity, frac, is_finite

__version__ = "0.1.0"

# The kernel implementation in use; there is one, in plain Python.
KERNEL_BACKEND = "python"
