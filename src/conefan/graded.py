"""Monomial ideals, Newton polyhedra, and graded systems of ideals.

A graded system is defined by finitely many generator degrees m_i with
attached monomial ideals; the ideal in any degree m is the sum over all
nonnegative integer combinations sum l_i m_i = m of the corresponding
products.  Weight (monomial) valuations detect integral closure via Newton
polyhedra, and the asymptotic valuation of a degree is the value of an
exact linear program over the rational representations of that degree.

verify_closure_identity runs the full pipeline: build the linearity fan of
the degrees, optionally refine it to a smooth fan, find a stabilizing
exponent for every ray, then check on every maximal cone that the closure
of the ideal in degree d*sum(p_i e_i) equals the closure of the product of
the ray ideals raised to the p_i, together with the valuation identities
that force that equality.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul

from ._dd import cone_generators
from ._value import Frozen
from .errors import (
    BudgetExceededError,
    CapExceededError,
    InputError,
    InternalError,
    NotInConeError,
    StabilizationError,
)
from .fans import (
    Cone,
    Fan,
    _cut_frame,
    cone_from_generators,
    linearity_fan,
    origin_cone,
    smooth_refine,
)
from .linalg import _basis_table
from .lp import representation_cost
from .polyhedra import (
    DEFAULT_DIM_CAP,
    HPolyhedron,
    VRepresentation,
    _hform_from_dd,
    _lift_point,
    dual_description,
    scale_polyhedron,
)
from .rational import (
    PLUS_INFINITY,
    IntVec,
    PlusInfinity,
    idot,
    is_finite,
    ivec,
    primitive_int_vector,
)

EXPAND_NODE_BUDGET = 10**6
Valuation = Fraction | PlusInfinity


def _minimalize(exponents) -> tuple[IntVec, ...]:
    """Unique minimal generating set: drop exponents divisible by another.

    Bitset Pareto filter.  Each coordinate ANDs into below[j] the bits of
    the points at or before pts[j] in that coordinate's order.  pts is
    sorted and the sort is stable, so a divisor of pts[j] comes before it
    in every order; bit k thus survives all coordinates exactly when
    pts[k] divides pts[j], and the distinct point pts[j] is minimal iff
    only its own bit is left.
    """
    pts = sorted(set(exponents))
    below = [(1 << len(pts)) - 1] * len(pts)
    for i in range(len(pts[0]) if pts else 0):
        mask = 0
        for k in sorted(range(len(pts)), key=lambda j: pts[j][i]):
            mask |= 1 << k
            below[k] &= mask
    return tuple(p for k, p in enumerate(pts) if below[k] == 1 << k)


class MonomialIdeal(Frozen):
    """Monomial ideal given by its minimal generator exponents."""

    ambient: int
    gens: tuple[IntVec, ...]

    @staticmethod
    def from_exponents(ambient: int, exponents: Sequence[Sequence]) -> "MonomialIdeal":
        rows = []
        for e in exponents:
            row = ivec(e)
            if len(row) != ambient:
                raise InputError("exponent length must match the ambient")
            if any(x < 0 for x in row):
                raise InputError("exponents must be nonnegative")
            rows.append(row)
        return MonomialIdeal(ambient, _minimalize(rows))

    @staticmethod
    def zero(ambient: int) -> "MonomialIdeal":
        return MonomialIdeal(ambient, ())

    @staticmethod
    def unit(ambient: int) -> "MonomialIdeal":
        return MonomialIdeal(ambient, ((0,) * ambient,))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.ambient,)

    def contains_exponent(self, e: Sequence[int]) -> bool:
        """Monomial membership: some generator divides x^e."""
        if len(e) != self.ambient:
            raise InputError("exponent length must match the ambient")
        return any(all(g[i] <= e[i] for i in range(self.ambient)) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_exponent(g) for g in other.gens)


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if I.ambient != J.ambient:
        raise InputError("ideal product needs matching ambients")
    if I.is_zero or J.is_zero:
        return MonomialIdeal.zero(I.ambient)
    if I.is_unit:
        return J
    if J.is_unit:
        return I
    sums = [
        tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens
    ]
    return MonomialIdeal(I.ambient, _minimalize(sums))


def _check_ints(*params) -> None:
    """InputError unless each (name, value, least) holds an int of at
    least least (None: no bound); True would run as 1 but be reported as
    true, and 2.5 would fail deep inside with a bare TypeError."""
    for name, value, least in params:
        if type(value) is not int:
            raise InputError(f"{name} must be an int, got {value!r}")
        if least is not None and value < least:
            raise InputError(f"{name} must be at least {least}, got {value}")


def ideal_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^k for an int k >= 0 (not a bool or a float), by repeated
    squaring."""
    _check_ints(("k", k, 0))
    if k == 0:
        return MonomialIdeal.unit(I.ambient)
    half = ideal_power(I, k // 2)
    out = ideal_product(half, half)
    if k % 2:
        out = ideal_product(out, I)
    return out


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if I.ambient != J.ambient:
        raise InputError("ideal sum needs matching ambients")
    return MonomialIdeal(I.ambient, _minimalize(I.gens + J.gens))


def _minkowski_points(parts, n: int) -> set:
    """Candidate vertices of the weighted Minkowski sum sum_k k * conv(V_k)
    over (V_k, k) parts of integer points and nonnegative integer weights:
    every sum of one k-scaled point per part, as an integer tuple."""
    points = {(0,) * n}
    for verts, k in parts:
        if k == 0:
            continue
        points = {
            tuple(c[t] + k * v[t] for t in range(n)) for c in points for v in verts
        }
    return points


def _orthant_hull(points, n: int) -> HPolyhedron:
    """Canonical H-form of conv(points) + nonnegative orthant, for a
    nonempty point set.

    The callers pass minimal points; a point dominating another would only
    add a redundant generator, which leaves the facets as they are.  The
    points are integer tuples, and the homogenized generators are the
    integer rows (v | 1) for the points and (e_i | 0) for the orthant
    rays.  Their sorted tuple goes to the double description, whose rays
    are the primitive facet rows of the returned HPolyhedron.  The hull
    contains a translate of the orthant, so a lineality space in its dual
    cone is an internal failure.  Like dual_description, it raises
    CapExceededError above DEFAULT_DIM_CAP coordinates.
    """
    if n > DEFAULT_DIM_CAP:
        raise CapExceededError(
            f"orthant hull capped at dimension {DEFAULT_DIM_CAP}, got {n}"
        )
    rows = {_lift_point(v) for v in points}
    rows.update(tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n))
    lin, rays = cone_generators(tuple(sorted(rows)), n + 1)
    if lin:
        raise InternalError("orthant hull is not full-dimensional")
    return _hform_from_dd(lin, rays, n)


def _orthant_vertices(h: HPolyhedron, points) -> tuple[IntVec, ...]:
    """Vertices of h = _orthant_hull(points), read off facet incidences,
    in sorted order.

    Every vertex is one of the points.  A point c is a vertex exactly when
    no other point is tight on every facet row that c is tight on: a
    vertex's tight rows cut out {c} alone, and any other point's minimal
    face has dimension >= 1 and contains a vertex v != c (h is pointed),
    tight wherever c is.  So c is a vertex iff no mask but its own
    contains its tight-row mask.
    """
    pts = sorted(set(points))
    masks = [
        sum(1 << k for k, (w, b) in enumerate(h.inequalities) if idot(w, c) == b)
        for c in pts
    ]
    return tuple(
        c
        for c, mask in zip(pts, masks)
        if sum(other & mask == mask for other in masks) == 1
    )


def _check_inside(points, h: HPolyhedron, t: Fraction, what: str) -> None:
    """InternalError (what, then the point and the row it breaks) unless
    every integer point a meets each facet row (w | b) of t * h, q <w, a>
    <= p b for t = p/q.  Every caller's containment is a theorem."""
    p, q = t.numerator, t.denominator
    # the hottest loop of a passing verify: the points are scaled once, and
    # map keeps the dot products in C
    scaled = [[q * x for x in a] for a in points]
    for w, b in h.inequalities:
        bound = p * b
        for a, qa in zip(points, scaled):
            if sum(map(mul, w, qa)) > bound:
                raise InternalError(f"{what}: its point {a} breaks <{w}, x> <= {t * b}")


def _missing_vertex(points, vertices, t: Fraction):
    """The first vertex t v of t * h, over h's sorted vertices v, that is
    none of the integer points, as Fractions; else None.  For points in
    t * h, None means conv(points) + orthant == t * h: a point a <= t v,
    a != t v, in t * h makes t v the midpoint of a and 2 t v - a, no vertex
    (McConnell, Mehlhorn, Naeher and Schweitzer, Certifying algorithms, 2011)."""
    p, q = t.numerator, t.denominator
    have = {tuple(q * x for x in a) for a in points}
    missing = (v for v in vertices if tuple(p * x for x in v) not in have)
    return next((tuple(t * x for x in v) for v in missing), None)


def newton_polyhedron(I: MonomialIdeal) -> VRepresentation:
    """conv(generator exponents) + nonnegative orthant, canonicalized."""
    return dual_description(newton_hform(I))


def newton_hform(I: MonomialIdeal) -> HPolyhedron:
    """Canonical H-form of the Newton polyhedron of a nonzero ideal."""
    if I.is_zero:
        raise InputError("the zero ideal has no Newton polyhedron")
    return _orthant_hull(I.gens, I.ambient)


def closure_equal(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Integral closures agree, i.e. the Newton polyhedra coincide."""
    if I.is_zero or J.is_zero:
        return I.is_zero and J.is_zero
    return newton_hform(I) == newton_hform(J)


def _facets(h: HPolyhedron):
    """(w, v) for each facet row (a | b) of an orthant hull h, conv(points)
    + orthant or a positive multiple of one: the facet weight w = -a / g
    and v = -b / g, the least <w, x> over h, with g the gcd of a.  h is
    closed upward, so every normal a is nonzero and <= 0, and every row is
    tight on h."""
    for a, b in h.inequalities:
        g = gcd(*a)
        yield tuple(-x // g for x in a), Fraction(-b, g)


def _least(points, w: Sequence[int]) -> int:
    """min <w, p> over integer points: for w >= 0, the least <w, x> over
    their orthant hull, which is v_w of an ideal with these exponents."""
    return min(sum(map(mul, w, p)) for p in points)


def _nonnegative_weight(w: Sequence) -> IntVec:
    """A weight as an integer vector: nonnegative, not all zero."""
    wv = ivec(w)
    if any(x < 0 for x in wv):
        raise InputError("weights must be nonnegative")
    if all(x == 0 for x in wv):
        raise InputError("the zero weight is not a valuation")
    return wv


def weight_vector(w: Sequence) -> IntVec:
    """Validated primitive nonnegative weight, not all zero."""
    return primitive_int_vector(_nonnegative_weight(w))


def weight_valuation(w: Sequence[int], I: MonomialIdeal) -> Valuation:
    """min over generators of <w, exponent>; PlusInfinity on the zero ideal.
    w is checked as asymptotic_valuation checks it."""
    wv = _nonnegative_weight(w)
    if len(wv) != I.ambient:
        raise InputError("weight length must match the ambient")
    if I.is_zero:
        return PLUS_INFINITY
    return Fraction(_least(I.gens, wv))


class GradedSystem(Frozen):
    """Finitely generated graded system of monomial ideals.

    degrees[i] is the grading degree of generator i and ideals[i] its
    ideal; the ideal in any other degree is derived by expand_degree.  The
    degrees must span a strongly convex cone, which makes the number of
    representations of every degree finite.  Every ideal must be as
    MonomialIdeal.from_exponents makes it.  The live degrees' table of
    bases (_live_table), read by every P(e) and by verify's cuts, is built
    once, on first use, never by create.
    """

    grading_rank: int
    ambient: int
    degrees: tuple[IntVec, ...]
    ideals: tuple[MonomialIdeal, ...]
    # cone(degrees), a functional positive on every degree, for each
    # suffix i (0 <= i <= r) the normals of the cone spanned by degrees[i:]
    # with nonzero ideal, the theta-weight of each degree, for each degree
    # i < r its pairings with the normals of suffix i + 1 (the tables of
    # _representations), and for each ideal the vertices of its Newton
    # polyhedron (() for a zero ideal); the fields determine them, so they
    # take no part in equality or hashing (their names start with "_")
    _cone: Cone
    _theta: IntVec
    _suffix_normals: tuple[tuple[IntVec, ...], ...]
    _weights: IntVec
    _slopes: tuple[IntVec, ...]
    _vertex_lists: tuple[tuple[IntVec, ...], ...]

    @staticmethod
    def create(
        grading_rank: int,
        ambient: int,
        degrees: Sequence[Sequence],
        ideals: Sequence[MonomialIdeal],
    ) -> "GradedSystem":
        if grading_rank < 1 or ambient < 1:
            raise InputError("grading rank and ambient must be positive")
        degs = tuple(ivec(d) for d in degrees)
        ids = tuple(ideals)
        if len(degs) != len(ids):
            raise InputError("need one ideal per degree")
        if not degs:
            raise InputError("a graded system needs at least one generator")
        for d in degs:
            if len(d) != grading_rank:
                raise InputError("degree length must match the grading rank")
            if all(x == 0 for x in d):
                raise InputError("generator degrees must be nonzero")
        for i, I in enumerate(ids):
            if I.ambient != ambient:
                raise InputError("ideal ambient mismatch")
            # a directly built ideal skips from_exponents' checks
            canon = MonomialIdeal.from_exponents(ambient, I.gens)
            if I != canon:
                raise InputError(f"ideal {i} is not its minimal generators {canon.gens}")
        cone = cone_from_generators(degs)  # raises NotPointedError if not pointed
        theta = _positive_functional(cone, degs)
        suffix_normals = tuple(
            _live_cone(degs[i:], ids[i:], grading_rank).normals
            for i in range(len(degs) + 1)
        )
        weights = tuple(idot(theta, d) for d in degs)
        slopes = tuple(
            tuple(idot(u, d) for u in suffix_normals[i + 1])
            for i, d in enumerate(degs)
        )
        vertex_lists = tuple(
            () if I.is_zero else _orthant_vertices(newton_hform(I), I.gens)
            for I in ids
        )
        return GradedSystem(
            grading_rank,
            ambient,
            degs,
            ids,
            cone,
            theta,
            suffix_normals,
            weights,
            slopes,
            vertex_lists,
        )

    @cached_property
    def _live_table(self) -> tuple:
        """_basis_table of the live degrees; a run reads it after DEFAULT_DIM_CAP."""
        return _basis_table(self.nonzero_part()[0])

    def degree_cone(self) -> Cone:
        return self._cone

    def nonzero_part(self) -> tuple[tuple[IntVec, ...], tuple[MonomialIdeal, ...]]:
        pairs = [
            (d, I) for d, I in zip(self.degrees, self.ideals) if not I.is_zero
        ]
        return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _live_cone(degrees, ideals, grading_rank: int) -> Cone:
    """Cone of the degrees whose ideal is nonzero; the origin if none."""
    live = [d for d, I in zip(degrees, ideals) if not I.is_zero]
    return cone_from_generators(live) if live else origin_cone(grading_rank)


def _positive_functional(cone: Cone, degrees: tuple[IntVec, ...]) -> IntVec:
    """Integer functional strictly positive on every generator degree."""
    theta = tuple(sum(col) for col in zip(*cone.normals))
    if not all(idot(theta, d) > 0 for d in degrees):
        raise InternalError("dual normals failed to give a positive functional")
    return theta


def _grading_degree(sys: GradedSystem, m: Sequence[int]) -> IntVec:
    """A degree as an integer vector (bools rejected), checked against the
    grading rank before any work is done on it."""
    m = ivec(m)
    if len(m) != sys.grading_rank:
        raise InputError("degree length must match the grading rank")
    return m


def expand_degree(sys: GradedSystem, m: Sequence[int]) -> MonomialIdeal:
    """Ideal in degree m: sum over all representations sum l_i m_i = m of
    the products prod ideals_i^{l_i}; the zero ideal when none exists.

    Each ideals_i^l is formed once per call, by ideal_power's squaring
    chain from the powers already in the table, and so is the product over
    each representation prefix: _representations lists its output in
    lexicographic order, so the representations sharing a prefix follow
    one another, and products[k] holds the product over the first k
    entries of the last one until a representation differs there.
    """
    m = _grading_degree(sys, m)
    unit = MonomialIdeal.unit(sys.ambient)
    powers: dict[tuple[int, int], MonomialIdeal] = {}

    def power(i: int, l: int) -> MonomialIdeal:
        if (i, l) not in powers:
            if l == 0:
                powers[i, l] = unit
            else:
                half = power(i, l // 2)
                out = ideal_product(half, half)
                powers[i, l] = ideal_product(out, sys.ideals[i]) if l % 2 else out
        return powers[i, l]

    products = [unit]
    last: IntVec = ()
    gens: list[IntVec] = []
    for rep in _representations(sys, m):
        k = next((k for k, (a, b) in enumerate(zip(last, rep)) if a != b), 0)
        del products[k + 1 :]
        for i in range(k, len(rep)):
            products.append(ideal_product(products[-1], power(i, rep[i])))
        last = rep
        gens.extend(products[-1].gens)
    if not gens:
        return MonomialIdeal.zero(sys.ambient)
    return MonomialIdeal(sys.ambient, _minimalize(gens))


def _scaled_degree(m: Sequence[int], k: int) -> IntVec:
    return tuple(k * x for x in ivec(m))


def _representations(sys: GradedSystem, m: IntVec) -> tuple[IntVec, ...]:
    """All l in Z_{>=0}^r with sum l_i * degrees_i = m and l_i = 0 wherever
    ideals_i is zero (such terms contribute the zero ideal), in
    lexicographic order.

    The one enumeration behind expand_degree, the degree Newton forms and
    the degree valuations.  A branch survives only while the remainder
    lies in the cone of the remaining live degrees (sys._suffix_normals):
    at each level the exponents keeping it there form an interval, read
    off the suffix normals and capped by the remaining theta-weight, and
    the last exponent is solved for directly.  EXPAND_NODE_BUDGET bounds
    the search nodes; every node's remainder is a nonnegative rational
    combination of the degrees still to come.  The theta-weights and the
    slopes <u, degrees[i]> for every normal u of the cone after level i
    depend only on the system, which keeps them (sys._weights,
    sys._slopes).
    """
    theta = sys._theta
    degrees = sys.degrees
    suffix = sys._suffix_normals
    last = len(degrees) - 1
    weights = sys._weights
    slopes = sys._slopes
    found: list[IntVec] = []
    nodes = 0

    def dfs(idx, remaining, remaining_weight, prefix):
        nonlocal nodes
        nodes += 1
        if nodes > EXPAND_NODE_BUDGET:
            raise BudgetExceededError(
                f"representation enumeration exceeded {EXPAND_NODE_BUDGET} nodes"
            )
        d = degrees[idx]
        if idx == last:
            l = 0
            if not sys.ideals[idx].is_zero:
                j = next(j for j, x in enumerate(d) if x)
                l = remaining[j] // d[j]
            if l >= 0 and all(r == l * x for r, x in zip(remaining, d)):
                found.append(tuple(prefix) + (l,))
            return
        lo = 0
        hi = 0 if sys.ideals[idx].is_zero else remaining_weight // weights[idx]
        # remaining - l * d stays in the next suffix cone iff
        # l * <u, d> <= <u, remaining> for every normal u
        for u, slope in zip(suffix[idx + 1], slopes[idx]):
            at = idot(u, remaining)
            if slope > 0:
                hi = min(hi, at // slope)
            elif slope < 0:
                lo = max(lo, -(-at // slope))
            elif at < 0:
                return
        for l in range(lo, hi + 1):
            prefix.append(l)
            dfs(
                idx + 1,
                tuple(r - l * x for r, x in zip(remaining, d)),
                remaining_weight - l * weights[idx],
                prefix,
            )
            prefix.pop()

    if all(idot(u, m) >= 0 for u in suffix[0]):
        dfs(0, m, idot(theta, m), [])
    return tuple(found)


def _degree_points(sys: GradedSystem, m: Sequence[int]) -> tuple[IntVec, ...]:
    """Minimal candidate points of the degree-m ideal's Newton polyhedron,
    from representation data; () encodes the zero ideal.

    Since the degree-m ideal is the sum over representations l of the
    products prod ideals_i^{l_i}, its Newton polyhedron is the convex hull
    of the Minkowski sums sum l_i * NP(ideals_i) plus the orthant, which
    only involves the (scale-invariant) vertex sets: it is conv(points) +
    orthant for the returned points.
    """
    m = _grading_degree(sys, m)
    # a zero ideal has no Newton polyhedron, but every representation
    # gives it exponent 0, which _minkowski_points skips
    points: set = set()
    for rep in _representations(sys, m):
        points |= _minkowski_points(zip(sys._vertex_lists, rep), sys.ambient)
    return _minimalize(points)


def _degree_newton_hform(sys: GradedSystem, m: Sequence[int]) -> HPolyhedron | None:
    """Newton polyhedron of the degree-m ideal: the orthant hull of its
    _degree_points.  Agrees exactly with newton_hform(expand_degree(sys,
    m)); None encodes the zero ideal.  The test suite's reference: a
    verify run hulls a degree ideal only to explain a failing tuple
    (_check_tuple).
    """
    points = _degree_points(sys, m)
    return _orthant_hull(points, sys.ambient) if points else None


def asymptotic_valuation(
    sys: GradedSystem, w: Sequence[int], m: Sequence[int]
) -> Valuation:
    """Asymptotic value of the weight valuation on the system at degree m.

    Computed as the exact linear program min sum l_i * v_w(ideals_i) over
    rational l >= 0 with sum l_i m_i = m; generators with zero ideal carry
    infinite cost and are excluded.  The weight must have the ambient's
    length, be nonnegative and not be all zero; it is not made primitive,
    since the value scales with w.  Both vectors are checked before any
    LP, and each call solves at most one (there is no memo).  Raises
    NotInConeError for m outside the degree cone; returns PlusInfinity
    when m is reachable only through zero ideals.
    """
    w = _nonnegative_weight(w)
    if len(w) != sys.ambient:
        raise InputError("weight length must match the ambient")
    m = _grading_degree(sys, m)
    if all(x == 0 for x in m):
        return Fraction(0)
    if not sys.degree_cone().contains_point(m):
        raise NotInConeError(f"degree {m} lies outside the degree cone")
    degrees, ideals = sys.nonzero_part()
    if not degrees:
        return PLUS_INFINITY
    # weight_valuation's minima, left as ints for the integer LP
    costs = [_least(I.gens, w) for I in ideals]
    try:
        return representation_cost(degrees, costs, m).value
    except NotInConeError:
        return PLUS_INFINITY


class LimitCheck(Frozen):
    lp_value: Valuation
    sequence: tuple[Valuation, ...]  # v_w(a_{l m}) / l for l = 1..L
    consistent: bool


def asymptotic_limit_check(
    sys: GradedSystem, w: Sequence[int], m: Sequence[int], L: int
) -> LimitCheck:
    """Certify the asymptotic valuation against the finite sequence.

    Every finite term v_w(a_{l m})/l must dominate the LP value, and the
    minimum over l <= L must attain it whenever any a_{l m} is nonzero.
    The horizon L must be an int of at least 1.
    """
    _check_ints(("L", L, 1))
    lp_value = asymptotic_valuation(sys, w, m)
    seq: list[Valuation] = []
    for l in range(1, L + 1):
        I = expand_degree(sys, _scaled_degree(m, l))
        val = weight_valuation(w, I)
        seq.append(val / l if is_finite(val) else PLUS_INFINITY)
    finite = [t for t in seq if is_finite(t)]
    if is_finite(lp_value):
        consistent = not finite or min(finite) == lp_value
    else:
        consistent = not finite
    return LimitCheck(lp_value, tuple(seq), consistent)


def asymptotic_newton(sys: GradedSystem, m: Sequence[int]) -> HPolyhedron:
    """Limit Newton polyhedron of degree m.

    The polyhedron whose support function in every nonnegative direction w
    equals asymptotic_valuation(sys, w, m): the projection to exponent
    space of the lift {(l, u, x) : l >= 0, sum l_i m_i = m, u a convex
    splitting of each l_i over the Newton polyhedron vertices of ideal i,
    x >= sum u_ij V_ij}.  It is (conv(C) + orthant) / L for the integer
    points C and the integer L of _limit_points, so the integer hull that
    a run keeps (_RunPolyhedra.limit_hull) is scaled once; this call keeps
    nothing.
    """
    h, _, s = _RunPolyhedra(sys).limit_hull(_grading_degree(sys, m))
    return scale_polyhedron(h, s)


def _limit_points(sys: GradedSystem, m: Sequence[int]) -> tuple[tuple[IntVec, ...], int]:
    """(C, L) with asymptotic_newton(sys, m) = (conv(C) + orthant) / L, C
    minimal integer points.

    The lift's projection is the hull of the weighted Minkowski sums at
    the vertices of the representation polytope {l >= 0 : sum l_i m_i =
    m}, plus the orthant (checked against the literal lift projection in
    the test suite).  Those vertices are the polytope's basic solutions,
    from _basic_solutions; with L the lcm of their denominators, C holds
    the integer points sum (L l_i) v_i.
    """
    m = _grading_degree(sys, m)
    n = sys.ambient
    degrees, _ = sys.nonzero_part()
    if all(x == 0 for x in m):
        return ((0,) * n,), 1
    if not degrees:
        raise NotInConeError(f"degree {m} is reachable only through zero ideals")
    if len(degrees) > DEFAULT_DIM_CAP:
        raise CapExceededError(
            f"representation polytope capped at dimension {DEFAULT_DIM_CAP}, "
            f"got {len(degrees)}"
        )
    vertices = _basic_solutions(sys, m)
    if not vertices:
        raise NotInConeError(
            f"degree {m} admits no representation with nonzero ideals"
        )
    den = lcm(*(lam[-1] for lam in vertices))
    # a nonzero ideal's vertex list is nonempty, so these pair with degrees
    vertex_lists = [v for v in sys._vertex_lists if v]
    points: set = set()
    for lam in vertices:
        scale = den // lam[-1]
        points |= _minkowski_points(
            zip(vertex_lists, [scale * x for x in lam[:-1]]), n
        )
    return _minimalize(points), den


def _basic_solutions(sys: GradedSystem, m: IntVec) -> set[IntVec]:
    """Vertices of the representation polytope {l >= 0 : sum l_i d_i = m}
    over the live degrees d_i, each as the reduced integer row (q l | q)
    of its least denominator q.

    A positive functional on the degrees bounds the polytope, so its
    vertices are its basic feasible solutions (Schrijver, Theory of Linear
    and Integer Programming, 1986, 8.5): l_B = adj(D_SB) m_S / det(D_SB)
    over the bases B of the degrees' span in sys._live_table, where it is
    nonnegative and solves the coordinates off the frame S too, which it
    does not for m outside the span.
    """
    degrees = sys.nonzero_part()[0]
    coord_rows = tuple(zip(*degrees))
    _, frame, bases = sys._live_table
    m_frame = [m[i] for i in frame]
    out = set()
    for basis, adj, det in bases:
        nums = [idot(row, m_frame) for row in adj]
        if any(x < 0 for x in nums) or any(
            idot(nums, [row[j] for j in basis]) != det * mi
            for row, mi in zip(coord_rows, m)
        ):
            continue
        lam = [0] * len(degrees) + [det]
        for j, x in zip(basis, nums):
            lam[j] = x
        out.add(primitive_int_vector(lam))
    return out


class _RunPolyhedra:
    """The Newton-polyhedron data of one system, kept for one verify run
    and dropped with it, each computed on first use:

    - points(m): the minimal candidate points of a_m (_degree_points);
    - the limit polyhedron P(e), as its integer orthant hull h, the 1/L
      that scales h to P(e) and the vertices of h (_orthant_vertices), per
      primitive direction e; P(t e) = t P(e) exactly, since the
      representation polytope scales by t.

    missing_vertex(m, k) decides NP(a_{k m}) = k P(m) from points(k m),
    checked inside the one hull of P(m) first; no degree ideal is hulled
    for it, and the tuple check decides a passing tuple the same way.
    lattice_vertices(m) gives the vertices of P(m) as integer points where
    P(m) = NP(a_m), which is how the tuple check builds a product from
    the rays' vertices with no double description per factor.  The keys
    are the integer degrees the run derives itself.  asymptotic_newton
    builds one of these for a single call, so each limit polyhedron is
    assembled in one place.
    """

    def __init__(self, sys: GradedSystem):
        self.sys = sys
        # the module functions are looked up at call time
        self.points = cache(lambda m: _degree_points(sys, m))
        self._limits = cache(self._primitive_limit)

    def _primitive_limit(self, e: IntVec):
        points, den = _limit_points(self.sys, e)
        h = _orthant_hull(points, self.sys.ambient)
        return h, _orthant_vertices(h, points), Fraction(1, den)

    def limit_hull(self, m: IntVec) -> tuple[HPolyhedron, tuple[IntVec, ...], Fraction]:
        """(h, vertices of h, s) with P(m) = s * h."""
        e = primitive_int_vector(m)
        t = next((x // y for x, y in zip(m, e) if y), 1)
        h, vertices, s = self._limits(e)
        return h, vertices, t * s

    def lattice_vertices(self, m: IntVec) -> list[IntVec]:
        """The vertices of P(m) as integer points, for an m with P(m) =
        NP(a_m), whose vertices are generator exponents; a vertex off the
        lattice is an internal failure."""
        _, vertices, s = self.limit_hull(m)
        p, q = s.numerator, s.denominator
        if any(p * x % q for v in vertices for x in v):
            raise InternalError(
                f"the limit polyhedron of {m} has a vertex off the lattice"
            )
        return [tuple(p * x // q for x in v) for v in vertices]

    def missing_vertex(self, m: IntVec, k: int):
        """_missing_vertex of a_{k m}'s points in k P(m), after _check_inside."""
        h, vertices, s = self.limit_hull(m)
        km = _scaled_degree(m, k)
        what = f"the Newton polyhedron in degree {km} is not inside {k} times"
        _check_inside(self.points(km), h, k * s, f"{what} the limit polyhedron of {m}")
        return _missing_vertex(self.points(km), vertices, k * s)


class ExponentCertificate(Frozen):
    """Stabilizing exponent: overall lcm, per-ray values, and per-ray
    documentation of the bounded ideal-level power checks."""

    value: int
    per_ray: tuple[tuple[IntVec, int], ...]
    ideal_level: tuple[tuple[IntVec, str], ...] = ()


def stabilizing_exponent(
    sys: GradedSystem, fan: Fan, cap: int = 64, power_checks: int = 8
) -> ExponentCertificate:
    """Smallest per-ray exponents d with Newton(a_{d e}) = d * limit
    polyhedron of e, which implies closure equality of a_{d l e} with
    (a_{d e})^l for every l; the overall exponent is their lcm.

    The polyhedral identity pins the closure-level statement for every
    multiple (which is what the verified identity needs).  The stronger
    ideal-level power equality cannot be certified for all l at desk
    scale; its outcome up to power_checks is recorded per ray in
    ideal_level without gating the exponent.  A ray outside the cone of
    the degrees with a nonzero ideal, where every a_m is zero, raises
    StabilizationError saying so.  cap (at least 1) and power_checks (at
    least 0) are checked as verify_closure_identity checks them.
    """
    _check_ints(("cap", cap, 1), ("power_checks", power_checks, 0))
    return _stabilize(_RunPolyhedra(sys), fan, cap, power_checks)


def _stabilize(
    forms: _RunPolyhedra, fan: Fan, cap: int, power_checks: int
) -> ExponentCertificate:
    """stabilizing_exponent on the polyhedra of one run.

    Only multiples of q, the lcm of the denominators of P(e)'s vertices,
    are tried: NP(a_{d e}) = d P(e) has integer vertices, so q | d and the
    first stable d is unchanged.  A q above the cap fails at once, naming q.

    Each equality NP(a_{d e}) = d P(e) is decided from the degree's points
    against the one hull of P(e) (_RunPolyhedra.missing_vertex); no degree
    ideal is hulled.  It implies NP(a_{d l e}) = d l P(e) for every l >= 1,
    so no multiple is checked: a_{d e}^l lies in a_{d l e}, which gives
    l NP(a_{d e}) within NP(a_{d l e}), and every finite level lies in its
    limit, NP(a_{d l e}) within d l P(e) = l NP(a_{d e}).  A ray with no
    stable d names a vertex of d P(e) missing at the last d tried.
    """
    sys = forms.sys
    cone = sys.degree_cone()
    per_ray = []
    ideal_level = []
    for ray in fan.rays():
        if not cone.contains_point(ray):
            raise InputError(f"fan ray {ray} lies outside the degree cone")
        # P(e) first: a ray whose ideals are all zero has none
        try:
            _, vertices, s = forms.limit_hull(ray)
        except NotInConeError as exc:
            raise StabilizationError(
                ray,
                cap,
                f"fan ray {ray} lies outside the cone of the degrees "
                "with a nonzero ideal, so its ideals are all zero",
            ) from exc
        # q: the lcm of the denominators of P(e)'s vertices s * v
        den = s.denominator
        q = lcm(*(den // gcd(den, x) for v in vertices for x in v))
        if q > cap:
            raise StabilizationError(
                ray,
                cap,
                f"no stabilizing exponent <= {cap} found for ray {ray}: "
                f"the vertex denominators of its limit polyhedron have lcm {q}",
            )
        for d in range(q, cap + 1, q):
            missing = forms.missing_vertex(ray, d)
            if missing is None:
                break
        else:
            # q divides d, so the vertices of d P(e) are integer points
            raise StabilizationError(
                ray,
                cap,
                f"no stabilizing exponent <= {cap} found for ray {ray}: at d = {d} "
                f"the ideal in degree {_scaled_degree(ray, d)} misses the vertex "
                f"{tuple(map(int, missing))} of d times its limit polyhedron",
            )
        per_ray.append((ray, d))
        ideal_level.append((ray, _ideal_power_documentation(sys, ray, d, power_checks)))
    value = lcm(*(d for _, d in per_ray))
    return ExponentCertificate(value, tuple(per_ray), tuple(ideal_level))


def _ideal_power_documentation(sys, ray, d, power_checks) -> str:
    """Bounded check of the literal ideal-level equality a_{dle} = a_{de}^l.

    At l = 1 both sides are a_{de} itself, so the loop starts at l = 2, and
    with power_checks below 2 nothing is compared or expanded.  Each level
    forms a_{de}^l as a_{de}^{l-1} a_{de}, one product per level.
    """
    holds = f"ideal-level power equality holds up to exponent {power_checks}"
    if power_checks < 2:
        return holds
    try:
        base = expand_degree(sys, _scaled_degree(ray, d))
        power = base
        for l in range(2, power_checks + 1):
            left = expand_degree(sys, _scaled_degree(ray, d * l))
            power = ideal_product(power, base)
            if left != power:
                return (
                    f"ideal-level power equality differs at exponent {l} "
                    "(closure level is certified for all exponents)"
                )
        return holds
    except BudgetExceededError:
        return "ideal-level power equality not checked (enumeration budget)"


def _power_tuples(s: int, bound: int):
    """All tuples p in Z_{>=0}^s with sum(p) <= bound, lexicographic."""
    if s == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _power_tuples(s - 1, bound - first):
            yield (first,) + rest


class TupleCheck(Frozen):
    powers: IntVec
    degree: IntVec
    closure_ok: bool
    witness_weight: IntVec | None
    left_value: Valuation | None
    right_value: Valuation | None
    chain_ok: bool
    chain_note: str | None


class ConeCheck(Frozen):
    rays: tuple[IntVec, ...]
    checks: tuple[TupleCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.closure_ok and c.chain_ok for c in self.checks)


class VerificationConfig(Frozen):
    power_bound: int
    exponent_cap: int
    power_checks: int
    smooth: bool
    refine: bool
    seed: int


class VerificationReport(Frozen):
    config: VerificationConfig
    fan: Fan
    exponent: int
    per_ray: tuple[tuple[IntVec, int], ...]
    cones: tuple[ConeCheck, ...]
    verified: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "config": {n: getattr(self.config, n) for n in self.config._fields},
            "fan": [
                {"rays": [list(r) for r in c.rays]} for c in self.fan.maximal_cones
            ],
            "exponent": self.exponent,
            "per_ray": [{"ray": list(r), "exponent": d} for r, d in self.per_ray],
            "cones": [
                {
                    "rays": [list(r) for r in c.rays],
                    "passed": c.passed,
                    "checks": [
                        {
                            "powers": list(t.powers),
                            "degree": list(t.degree),
                            "closure_ok": t.closure_ok,
                            "witness_weight": (
                                list(t.witness_weight) if t.witness_weight else None
                            ),
                            "left_value": _fmt_val(t.left_value),
                            "right_value": _fmt_val(t.right_value),
                            "chain_ok": t.chain_ok,
                            "chain_note": t.chain_note,
                        }
                        for t in c.checks
                    ],
                }
                for c in self.cones
            ],
            "verified": self.verified,
            "notes": list(self.notes),
        }


def _fmt_val(v) -> str | None:
    return None if v is None else str(v)


def _separating_weight(a, b) -> IntVec:
    """First of the sorted facet weights of a and b at which their support
    values differ.  Each side is (h, points, s), the polyhedron s * h for h
    the orthant hull of the integer points, whose support value at w >= 0
    is s * _least(points, w); no V-representation is built.

    Orthant-closed polyhedra are determined by their support values at
    nonnegative weights, and a vertex of one outside the other violates a
    facet of the other, so two different Newton polyhedra always differ at
    one of these normals.
    """
    for w in sorted({w for h, _, _ in (a, b) for w, _ in _facets(h)}):
        if a[2] * _least(a[1], w) != b[2] * _least(b[1], w):
            return w
    raise InternalError("differing Newton polyhedra without a separating facet")


def _check_limit_polyhedra(forms: _RunPolyhedra, rays) -> None:
    """Anchor the limit polyhedra of the rays to the certified LP: at every
    facet (w, v) of h (_facets), with P(e) = s * h and h the run's hull of
    e (_RunPolyhedra.limit_hull), the asymptotic valuation at e must be
    P(e)'s support value s * v.  A mismatch is an internal failure."""
    for e in rays:
        h, _, s = forms.limit_hull(e)
        for w, v in _facets(h):
            if asymptotic_valuation(forms.sys, w, e) != v * s:
                raise InternalError(
                    f"limit polyhedron of ray {e} disagrees with the "
                    f"asymptotic valuation at weight {w}"
                )


def verify_closure_identity(
    sys: GradedSystem,
    power_bound: int = 4,
    exponent_cap: int = 64,
    power_checks: int = 8,
    smooth: bool = True,
    refine: bool = True,
    seed: int = 0,
) -> VerificationReport:
    """Check the closure identity of the system on a piecewise-linear fan.

    Pipeline: (a) the linearity fan of the generator degrees (or the single
    degree cone when refine=False, a debugging mode expected to falsify
    systems whose asymptotic valuations bend inside the cone); (b) optional
    smooth refinement; (c) per-ray stabilizing exponents, combined by lcm
    into d; (d) for every maximal cone with rays e_i and every exponent
    tuple p with sum(p) <= power_bound, closure equality of the degree
    d*sum(p_i e_i) ideal against the product of the d*e_i ideals raised to
    the p_i; (e) the valuation chain for every weight w >= 0 at once, as
    a sandwich of Newton polyhedra (see _check_tuple).  The exponent
    certificate is trusted in one place: right after (c) every ray is asked
    once more whether NP(a_{d_e e}) = d_e P(e) at its own exponent d_e, and
    a ray that is not is an InternalError (exit 3 on the command line),
    never a falsified tuple; later steps may take NP(a_{d e}) = d P(e).  A
    cone certified by its sign vector (_cone_certified) passes (d) and (e)
    for every p at once, with no check; every cone of a refined run is, so
    only refine=False leaves tuples to the one tuple route (_check_tuple),
    which names a falsifying tuple and its witness.  The all-zero tuple
    passes in every cone: its degree ideal a_0 is the unit ideal, since the
    degree cone is pointed, and so is the empty product.  A tuple depends
    only on the face spanned by the rays with p_i > 0 and on those powers,
    so each face tuple is checked once, and every cone containing the face
    reports that check under its own powers; a face of a certified cone is
    certified in every cone that shares it.  A run whose tuples all pass
    hulls only the generator ideals and the limit polyhedra P(m) (each
    equality is decided by _RunPolyhedra.missing_vertex, and a point
    outside d P(m) is an InternalError); only a failing tuple hulls its
    degree ideal and its product.  The seed is recorded in the report
    but decides no verdict.  A falsified identity is reported as a value,
    never an exception; a witness weight is a facet normal at which the
    two closures' valuations differ.  The four integer parameters must be
    ints (not bools or floats), and a power_bound or exponent_cap below 1,
    or a negative power_checks, raises InputError: power_bound 0 would
    check no nonzero tuple, exponent_cap 0 no exponent.
    """
    _check_ints(
        ("power_bound", power_bound, 1),
        ("exponent_cap", exponent_cap, 1),
        ("power_checks", power_checks, 0),
        ("seed", seed, None),
    )
    config = VerificationConfig(
        power_bound, exponent_cap, power_checks, smooth, refine, seed
    )
    notes = [
        "stabilizing exponents certified polyhedrally, pinning the "
        "closure-level power identity for all exponents",
    ]
    if refine:
        fan = linearity_fan(sys.degrees)
    else:
        fan = Fan.make([sys.degree_cone()], sys.grading_rank)
        notes.append("refinement skipped: using the single degree cone")
    if smooth:
        fan = smooth_refine(fan)
    forms = _RunPolyhedra(sys)
    cert = _stabilize(forms, fan, exponent_cap, power_checks)
    d = cert.value
    for ray, doc in cert.ideal_level:
        notes.append(f"ray {ray}: {doc}")
    _check_limit_polyhedra(forms, fan.rays())
    # the certificate's own claim, NP(a_{d_e e}) = d_e P(e), asked again
    # at the points _stabilize has already made; by its inclusion argument
    # it holds at every multiple of d_e, d among them, so NP(a_{d e}) is
    # d P(e) on every ray
    for e, de in cert.per_ray:
        if forms.missing_vertex(e, de) is not None:
            raise InternalError(
                f"fan ray {e} is not stable at its exponent {de}, "
                "which the exponent certificate claims"
            )
    _, frame, cuts = _cut_frame(sys._live_table)
    # a tuple's check depends only on its rays with nonzero power, a face
    # that cones sharing it list in the same (sorted) order
    checked: dict[tuple, TupleCheck] = {}
    cone_checks = []
    for cone in fan.maximal_cones:
        certified = _cone_certified(sys._suffix_normals[0], frame, cuts, cone)
        checks = []
        for p in _power_tuples(len(cone.rays), power_bound):
            face = tuple((e, pi) for e, pi in zip(cone.rays, p) if pi)
            if face not in checked:
                if certified or not face:
                    m = _face_degree(face, sys.grading_rank)
                    checked[face] = TupleCheck(p, m, True, None, None, None, True, None)
                else:
                    checked[face] = _check_tuple(forms, d, face)
            checks.append(checked[face]._replace(powers=p))
        cone_checks.append(ConeCheck(rays=cone.rays, checks=tuple(checks)))
    verified = all(c.passed for c in cone_checks)
    return VerificationReport(
        config=config,
        fan=fan,
        exponent=d,
        per_ray=cert.per_ray,
        cones=tuple(cone_checks),
        verified=verified,
        notes=tuple(notes),
    )


def _cone_certified(live_normals, frame, cuts, cone: Cone) -> bool:
    """Whether the closure identity and the valuation chain hold on the
    cone for every exponent tuple p, by its sign vector: the cone lies in
    the live cone (live_normals; the degrees with a nonzero ideal span
    it), its dimension is the live rank k = |frame|, and no cut has rays
    of it strictly on both sides; (frame, cuts) is
    _cut_frame(sys._live_table).

    Sound: on the frame, the facet normals of cone(B), B a basis of live
    degrees, are the rows of adj(D_SB), which are cuts, so the cone lies
    in cone(B) or meets it in lower dimension, which is
    every_cost_linear_on's criterion.  So the costs v_w(I_i) of the
    live degrees, whose least cost of m is P(m)'s support function at
    w >= 0, are linear on the cone, which gives additivity, P(m) = sum
    p_i P(e_i): the one falsifiable link of _check_tuple's sandwich.  With
    every ray stable at d, each tuple passes as _check_tuple passes it,
    with no witness.  The frame forgets directions off the live span, so
    the live-cone guard is needed on its own.

    Complete in refined runs: when the spans agree, the cuts of
    linearity_fan(sys.degrees) include the live cuts, and smooth_refine
    only subdivides; _stabilize refuses a ray outside the live cone
    first.  So only refine=False leaves tuples to _check_tuple.
    """
    inside = all(idot(u, r) >= 0 for u in live_normals for r in cone.rays)
    if not inside or cone.dim != len(frame):
        return False
    coords = [tuple(r[i] for i in frame) for r in cone.rays]
    sides = ([idot(u, x) for x in coords] for u in cuts)
    return not any(min(t) < 0 < max(t) for t in sides)


def _face_degree(face, grading_rank: int) -> IntVec:
    """sum p_i e_i over a face tuple's (ray, power) pairs."""
    return tuple(sum(pi * e[j] for e, pi in face) for j in range(grading_rank))


def _check_tuple(forms, d, face) -> TupleCheck:
    """Closure equality and valuation chain for one nonzero exponent
    tuple, given as its (ray, power) pairs with nonzero power, on the
    polyhedra of the run (a _RunPolyhedra); the returned powers are those
    pairs' powers, for the caller to replace with the full tuple.  Only a
    cone that _cone_certified refuses, and so by its completeness only a
    run with refine=False, has tuples here.

    With m = sum p_i e_i, the product's points are the weighted Minkowski
    sum of the integer vertices of the d P(e_i) = NP(a_{d e_i}) that the
    run already holds (every ray is stable at d).  The valuation chain for
    every weight w >= 0 at once is the sandwich
        sum p_i d P(e_i) within NP(a_{d m}) within d P(m)
    (the product of the ray ideals lies in a_{d m}, and every finite level
    lies in its limit).  Both ends are checked inside d P(m), the product
    first, and the tuple passes, with no H-form built, when every vertex
    of d P(m) is a point of both: then all three polyhedra are equal.

    Only a failing tuple hulls the points of d m and the product's, to
    explain itself.  The inclusions are theorems, and so is the nonzero
    a_{d m} under the nonzero product, so a failure of any of them is an
    InternalError.  A product realizing d P(m) when a_{d m} does not lies
    outside NP(a_{d m}), so a tuple past these fails additivity, d P(m) =
    sum p_i d P(e_i), named at the first facet weight separating the two.
    The closure witness is the first facet weight at which NP(a_{d m}) and
    the product differ.  _separating_weight reads the support values off
    the points of d m, the product's and the vertices of d P(m)'s hull.
    """
    sys = forms.sys
    n = sys.ambient
    p = tuple(pi for _, pi in face)
    m = _face_degree(face, sys.grading_rank)
    dm = _scaled_degree(m, d)
    parts = [(forms.lattice_vertices(_scaled_degree(e, d)), pi) for e, pi in face]
    product = _minimalize(_minkowski_points(parts, n))
    h, vertices, t = limit = forms.limit_hull(dm)
    what = f"the product of the ray ideals in degree {dm} is not inside {d} times"
    _check_inside(product, h, t, f"{what} the limit polyhedron of {m}")
    stable = forms.missing_vertex(m, d) is None
    if stable and _missing_vertex(product, vertices, t) is None:
        return TupleCheck(p, m, True, None, None, None, True, None)
    points = forms.points(dm)
    if not points:
        raise InternalError(f"the ideal in degree {dm} is zero under a nonzero product")
    left_h = _orthant_hull(points, n)
    what = f"the product of the ray ideals is not inside the ideal in degree {dm}"
    _check_inside(product, left_h, Fraction(1), what)
    right_h = _orthant_hull(product, n)
    ok = left_h == right_h
    witness = lval = rval = None
    if not ok:
        witness = _separating_weight((left_h, points, 1), (right_h, product, 1))
        lval = Fraction(_least(points, witness))
        rval = Fraction(_least(product, witness))
    w = _separating_weight(limit, (right_h, product, 1))
    note = f"additivity failed on the cone at weight {w}"
    return TupleCheck(p, m, ok, witness, lval, rval, False, note)
