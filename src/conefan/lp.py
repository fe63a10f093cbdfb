"""Exact linear programming with verified certificates.

simplex_solve handles the standard form min c.x, A x = b, x >= 0 and always
returns a certified outcome: a zero-gap primal/dual pair, a Farkas
certificate, or an improving ray.  On top of it sit the minimum-cost
representation function (the value of representing a target vector as a
nonnegative combination of generators with per-generator costs) and its
dual polyhedron of price vectors, whose linear maximum must agree with the
primal value; duality_check computes both sides through independent code
paths (simplex vs. vertex enumeration) and compares them bit-exactly.

representation_cost validates its inputs once and hands them to the
simplex core (_simplex.solve_int) as integer rows: int entries stay int
(a row of ints enters over denominator 1), other rationals are cleared
row by row, and only the returned value and witness are Fractions.  The
check that finds every entry a plain int also decides that the rows need
no clearing, so an all-int LP is built by one transposition.  It
keeps no memo: every call validates its arguments and solves one LP,
because no workload asks for the same representation cost twice.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from . import _simplex
from ._value import Frozen
from .errors import InputError, InternalError, NotInConeError
from .polyhedra import HPolyhedron, minimize_linear, UNBOUNDED
from .rational import Mat, Vec, _check_lengths, mat, qvec, vec, vneg


class LpInstance(Frozen):
    """min <cost, x> subject to matrix x = rhs and x >= 0."""

    cost: Vec
    matrix: Mat  # rows are constraints, columns are variables
    rhs: Vec

    def __post_init__(self):
        if len(self.matrix) != len(self.rhs):
            raise InputError("constraint count must match rhs length")
        for row in self.matrix:
            if len(row) != len(self.cost):
                raise InputError("matrix width must match cost length")

    @staticmethod
    def make(cost, matrix, rhs) -> "LpInstance":
        return LpInstance(vec(cost), mat(matrix), vec(rhs))


class LpOutcome(Frozen):
    """Solver outcome; all certificates are re-verified before return.

    optimal:    value, primal, dual with cost.primal == rhs.dual exactly
    infeasible: dual holds a Farkas certificate (A^T y <= 0, rhs.y > 0)
    unbounded:  primal holds an improving ray (A d = 0, d >= 0, cost.d < 0)
    """

    status: str
    value: Fraction | None = None
    primal: Vec | None = None
    dual: Vec | None = None


def simplex_solve(inst: LpInstance) -> LpOutcome:
    res = _simplex.solve_standard(inst.cost, inst.matrix, inst.rhs)
    if res.status == "optimal":
        return LpOutcome("optimal", value=res.value, primal=res.x, dual=res.y)
    if res.status == "infeasible":
        return LpOutcome("infeasible", dual=res.y)
    return LpOutcome("unbounded", primal=res.ray)


def _checked(v) -> tuple[tuple, bool]:
    """(v as a tuple, whether every entry is a plain int); a vector with
    any other entry goes through qvec, which keeps its ints and coerces
    the rest by frac, so bools, floats and bad strings raise InputError."""
    v = tuple(v)
    for x in v:
        if type(x) is not int:
            return qvec(v), False
    return v, True


class CostOptimum(Frozen):
    value: Fraction
    witness: Vec  # nonnegative coefficients reproducing the target


def representation_cost(
    generators: Sequence[Sequence], costs: Sequence, target: Sequence
) -> CostOptimum:
    """Minimum of <costs, t> over t >= 0 with sum_i t_i generators_i = target.

    Raises NotInConeError when the target lies outside the cone spanned by
    the generators.  The witness is an optimal coefficient vector of
    Fractions, so the infimum is always attained at a rational point.
    Int entries stay int on the way to the simplex; every other entry is
    coerced by frac, and bools and floats raise InputError before any LP
    is solved.
    """
    gens = []
    exact = True  # every entry a plain int
    for g in generators:
        g, ints = _checked(g)
        gens.append(g)
        exact = exact and ints
    costs, ints = _checked(costs)
    exact = exact and ints
    target, ints = _checked(target)
    exact = exact and ints
    if len(costs) != len(gens):
        raise InputError("need one cost per generator")
    if any(c < 0 for c in costs):
        raise InputError("costs must be nonnegative")
    n = len(target)
    if any(len(g) != n for g in gens):
        raise InputError("generator dimension mismatch")
    if not gens:
        if all(x == 0 for x in target):
            return CostOptimum(Fraction(0), ())
        raise NotInConeError("target is nonzero but there are no generators")
    # row i of A is coordinate i of every generator; rows of plain ints
    # are already the integer form of _simplex._int_lp, over denominator 1
    if exact:
        rows = [[*col, t] for col, t in zip(zip(*gens), target)]
        lp = (rows, [1] * n, list(costs), 1)
    else:
        lp = _simplex._int_lp(costs, zip(*gens), target)
    res = _simplex.solve_int(lp)
    if res.status == "infeasible":
        raise NotInConeError(
            "target admits no nonnegative representation in the generators"
        )
    if res.status != "optimal":
        raise InternalError("nonnegative costs cannot be unbounded")
    return CostOptimum(res.value, res.x)


def price_polyhedron(
    generators: Sequence[Sequence], costs: Sequence, ambient_dim: int = None
) -> HPolyhedron:
    """Dual feasible region {y : <g_i, y> <= costs_i for every generator}.

    By LP duality the maximum of <target, y> over this polyhedron equals
    representation_cost(generators, costs, target) for every target in the
    cone of the generators.  There is one row per nonzero generator, scaled
    to primitive integers by HPolyhedron.from_rows; with no generators the
    region is the whole space (ambient_dim required then).  A given
    ambient_dim must be the generators' length.
    """
    gens = tuple(vec(g) for g in generators)
    costs = vec(costs)
    if len(costs) != len(gens):
        raise InputError("need one cost per generator")
    _check_lengths(gens, "generator dimension mismatch")
    if not gens:
        if ambient_dim is None:
            raise InputError("ambient dimension required without generators")
        return HPolyhedron((), (), ambient_dim)
    if ambient_dim not in (None, len(gens[0])):
        raise InputError(
            f"ambient_dim {ambient_dim} differs from the generators' length {len(gens[0])}"
        )
    return HPolyhedron.from_rows(zip(gens, costs), (), len(gens[0]))


class DualityCheck(Frozen):
    primal_value: Fraction
    dual_value: Fraction
    gap_zero: bool
    maximizer: Vec


def duality_check(
    generators: Sequence[Sequence], costs: Sequence, target: Sequence
) -> DualityCheck:
    """Compare the representation cost against its dual maximum.

    The dual side is evaluated independently of the simplex: the price
    polyhedron is converted to vertices and the linear functional is
    maximized by enumeration, so a zero gap cross-validates both routes.
    """
    target = vec(target)
    primal = representation_cost(generators, costs, target)
    Q = price_polyhedron(generators, costs, ambient_dim=len(target))
    res = minimize_linear(Q, vneg(target))
    if res is UNBOUNDED:
        raise InternalError(
            "dual unbounded although the primal is feasible"
        )
    dual_value = -res.value
    return DualityCheck(
        primal_value=primal.value,
        dual_value=dual_value,
        gap_zero=primal.value == dual_value,
        maximizer=res.argmin,
    )
