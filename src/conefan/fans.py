"""Strongly convex rational cones and fans.

Cones carry both their extreme rays (primitive integer, sorted) and an
H-description by facet normals; lower-dimensional cones encode their span
through opposite normal pairs.  Equality is structural on the canonical
form.  Fans are stored through their maximal cones.

The fan constructions here realize the piecewise-linear structure of the
minimum-cost representation function: its linearity fan (the hyperplane
arrangement spanned by generator subsets, restricted to the cone), the
normal fan of the price polyhedron, common refinements, and a deterministic
smooth refinement by stellar subdivision.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from ._dd import cone_generators
from ._value import Frozen
from .errors import (
    BudgetExceededError,
    CapExceededError,
    EmptyPolyhedronError,
    InputError,
    InternalError,
    NotInConeError,
    NotPointedError,
    NotPointedSupportError,
)
from .linalg import (
    _basis_table,
    echelon_lattice_det,
    int_adjugate,
    int_echelon,
    kernel_basis,
    rank,
)
from .lp import representation_cost
from .polyhedra import HPolyhedron, dual_description
from .rational import (
    IntVec,
    Vec,
    _check_lengths,
    dot,
    idot,
    primitive_direction,
    primitive_int_vector,
    sign_normal,
    vec,
)

INDEPENDENT_SUBSET_CAP = 12
SMOOTH_REFINE_DIM_CAP = 4
# cones that smooth_refine's scoring may visit in one refinement: ten times
# the most that one needs in the tests and workloads (about 60,000), so a
# cone near the multiplicity cap stops in seconds rather than minutes
SMOOTH_REFINE_BUDGET = 600_000
SMOOTH_REFINE_MULTIPLICITY_CAP = 4096


class Cone(Frozen):
    """Strongly convex rational cone with canonical dual descriptions."""

    rays: tuple[IntVec, ...]
    normals: tuple[IntVec, ...]
    ambient_dim: int

    @cached_property
    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        """Integer echelon rows of the rays and their pivot coordinates."""
        return int_echelon(self.rays)

    @property
    def dim(self) -> int:
        return len(self._echelon[1])

    @cached_property
    def lattice_det(self) -> int:
        """Index of the rays' integer span in its saturated lattice."""
        return echelon_lattice_det(self._echelon[0])

    @property
    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def multiplicity(self) -> int:
        """Lattice determinant of the rays of a simplicial cone."""
        if not self.is_simplicial:
            raise InputError("multiplicity requires a simplicial cone")
        return self.lattice_det

    def contains_point(self, v: Sequence) -> bool:
        # a positive rescaling keeps the sign of every idot
        v = primitive_direction(v)
        if self.normals and len(v) != self.ambient_dim:
            raise InputError(
                f"dimension mismatch in dot: {self.ambient_dim} vs {len(v)}"
            )
        return all(idot(u, v) >= 0 for u in self.normals)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains_point(r) for r in other.rays)

    def facet_normals(self) -> tuple[IntVec, ...]:
        """Normals whose hyperplane meets the cone in a proper facet."""
        return tuple(
            u
            for u in self.normals
            if any(idot(u, r) > 0 for r in self.rays)
        )

    def face(self, tight: Iterable[IntVec]) -> "Cone":
        """Intersection with the hyperplanes of the given normals."""
        negated = tuple(tuple(-x for x in u) for u in tight)
        return cone_from_normals(self.normals + negated)

    @cached_property
    def _ray_frame(self) -> tuple[list[int], list[list[int]], int]:
        """Coordinates S of a simplicial cone's rays, adj(R_S) and det(R_S).

        S is the pivot coordinates of the cone's echelon, the first
        coordinate set, in lexicographic order, whose square submatrix R_S
        (the rays' S-coordinates as columns) is invertible; a point x of
        the rays' span has ray-coordinates adj(R_S) x_S / det(R_S).
        """
        coords = self._echelon[1]
        if len(coords) != len(self.rays):
            raise InternalError("simplicial cone with dependent rays")
        adj, det = int_adjugate([[r[i] for r in self.rays] for i in coords])
        return coords, adj, det

    def __lt__(self, other):
        return (self.rays, self.normals) < (other.rays, other.normals)


def _hull(
    rays: tuple[IntVec, ...], dim: int
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Canonical (normals, lineality, extreme rays) of cone(rays).

    The normals are the dual cone's extreme rays plus both signs of its
    lineality basis; double description of the normals gives back the
    hull's lineality basis and extreme rays (sorted).
    """
    dual_lin, dual_rays = cone_generators(rays, dim)
    normals = set(dual_rays)
    for l in dual_lin:
        normals.add(l)
        normals.add(tuple(-x for x in l))
    normals = tuple(sorted(normals))
    return (normals,) + cone_generators(normals, dim)


def _cone_from_primitive_rays(rays: tuple[IntVec, ...], dim: int) -> Cone:
    """Canonical cone of sorted, distinct primitive rays.

    dim independent rays in Z^dim span a simplicial cone, built in closed
    form: with R the rays as columns, adj(R) R = det(R) I, so row i of
    adj(R), times the sign of det(R), is a normal positive on ray i and
    zero on the others, and the primitive such rows are the facet normals.
    Any other ray set goes through the double descriptions of _hull.
    """
    if rays and len(rays) == dim:
        adj, det = int_adjugate([[r[i] for r in rays] for i in range(dim)])
        if det:
            sign = 1 if det > 0 else -1
            normals = sorted(
                primitive_int_vector([sign * a for a in row]) for row in adj
            )
            return Cone(rays, tuple(normals), dim)
    normals, lin, extreme = _hull(rays, dim)
    if lin:
        raise NotPointedError(lin[0])
    return Cone(extreme, normals, dim)


def cone_from_generators(generators: Sequence[Sequence]) -> Cone:
    """Canonical cone spanned by rational generators (must be pointed)."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise InputError("cone needs generators or an ambient dimension")
    _check_lengths(gens, "generator dimension mismatch")
    n = len(gens[0])
    prim = set()
    for g in gens:
        p = primitive_direction(g)
        if not any(p):
            raise InputError("zero vector is not a valid cone generator")
        prim.add(p)
    return _cone_from_primitive_rays(tuple(sorted(prim)), n)


def origin_cone(ambient_dim: int) -> Cone:
    return _cone_from_primitive_rays((), ambient_dim)


def cone_from_normals(normals: Sequence[Sequence]) -> Cone:
    """Canonical cone {x : <u, x> >= 0 for all u} (must be pointed)."""
    ns = [tuple(u) for u in normals]
    if not ns:
        raise InputError("cone_from_normals needs at least one normal")
    _check_lengths(ns, "normal dimension mismatch")
    n = len(ns[0])
    rows = tuple(sorted({p for p in map(primitive_direction, ns) if any(p)}))
    lin, extreme = cone_generators(rows, n)
    if lin:
        raise NotPointedError(lin[0])
    return _cone_from_primitive_rays(tuple(sorted(extreme)), n)


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_dim != c2.ambient_dim:
        raise InputError("cone intersection needs matching ambient dimensions")
    combined = c1.normals + c2.normals
    if not combined:
        # both are full space descriptions of the origin in dim 0; unreachable
        raise InputError("cones without normals are not supported")
    return cone_from_normals(combined)


def is_face(tau: Cone, sigma: Cone) -> bool:
    """Whether tau is a face of sigma."""
    if not sigma.contains_cone(tau):
        return False
    tight = [
        u
        for u in sigma.normals
        if all(idot(u, r) == 0 for r in tau.rays)
    ]
    return sigma.face(tight) == tau


class Fan(Frozen):
    """Fan stored through its maximal cones (canonically sorted)."""

    maximal_cones: tuple[Cone, ...]
    ambient_dim: int

    @staticmethod
    def make(cones: Iterable[Cone], ambient_dim: int) -> "Fan":
        unique = sorted(set(cones))
        for c in unique:
            if c.ambient_dim != ambient_dim:
                raise InputError("cone ambient dimension mismatch in fan")
        return Fan(tuple(unique), ambient_dim)

    def rays(self) -> tuple[IntVec, ...]:
        out = set()
        for c in self.maximal_cones:
            out.update(c.rays)
        return tuple(sorted(out))

    def support_hull(self) -> Cone:
        """Cone spanned by all rays; equals the support for convex fans.

        Raises NotPointedError when the hull contains a line; use
        support_pair for a comparison that is total on all fans.
        """
        rays = self.rays()
        if not rays:
            return origin_cone(self.ambient_dim)
        return cone_from_generators(rays)

    def support_pair(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        """Canonical (lineality, extreme rays) of the cone spanned by all
        rays; structural equality of pairs is equality of hulls."""
        return _hull(self.rays(), self.ambient_dim)[1:]

    def dim(self) -> int:
        return max((c.dim for c in self.maximal_cones), default=0)

    def check_valid(self) -> None:
        """Exhaustive fan test: pairwise intersections are faces of both."""
        cones = self.maximal_cones
        for a, b in combinations(cones, 2):
            t = intersect(a, b)
            if not (is_face(t, a) and is_face(t, b)):
                raise InputError(
                    f"fan invariant violated: {a.rays} meets {b.rays} in {t.rays}"
                )

    def check_covers_hull(self) -> None:
        """Verify that the maximal cones tile the convex hull of the rays.

        Every facet of a maximal cone must either lie on the boundary of the
        hull or be shared with another maximal cone; by convexity this rules
        out gaps.
        """
        hull = self.support_hull()
        d = self.dim()
        for c in self.maximal_cones:
            if c.dim != d:
                raise InputError("fan has maximal cones of mixed dimension")
            for u in c.facet_normals():
                facet = c.face([u])
                on_boundary = any(
                    all(idot(w, r) == 0 for r in facet.rays)
                    for w in hull.facet_normals()
                )
                if on_boundary:
                    continue
                shared = any(
                    other != c and other.contains_cone(facet)
                    for other in self.maximal_cones
                )
                if not shared:
                    raise InputError(
                        f"interior facet {facet.rays} of {c.rays} is uncovered"
                    )


def caratheodory_reduce(
    generators: Sequence[Sequence], costs: Sequence, lam: Sequence
) -> Vec:
    """Pivot a conic representation down to linearly independent support.

    Repeatedly picks a linear relation among the active generators, orients
    it so the cost cannot increase, and pivots out the coefficient with the
    smallest ratio.  The represented vector is preserved exactly; the cost
    never increases; the surviving generators are linearly independent.
    """
    gens = [vec(g) for g in generators]
    costs = vec(costs)
    lam = list(vec(lam))
    if not (len(gens) == len(costs) == len(lam)):
        raise InputError("generators, costs, and coefficients must align")
    _check_lengths(gens, "generator dimension mismatch")
    if any(c < 0 for c in costs):
        raise InputError("costs must be nonnegative")
    if any(x < 0 for x in lam):
        raise InputError("coefficients must be nonnegative")
    while True:
        support = [i for i, x in enumerate(lam) if x != 0]
        if not support:
            break
        columns = tuple(
            tuple(gens[i][k] for i in support) for k in range(len(gens[0]))
        )
        kb = kernel_basis(columns)
        if not kb:
            break
        rel = kb[0]
        b = [Fraction(0)] * len(lam)
        for pos, i in enumerate(support):
            b[i] = rel[pos]
        s = sum(b[i] * costs[i] for i in support)
        if s < 0 or (s == 0 and not any(b[i] > 0 for i in support)):
            b = [-x for x in b]
        ratio = None
        j = None
        for i in support:
            if b[i] > 0:
                r = lam[i] / b[i]
                if ratio is None or r < ratio:
                    ratio, j = r, i
        if j is None:
            raise InternalError("oriented relation lost its positive entry")
        t = lam[j] / b[j]
        for i in support:
            lam[i] = lam[i] - t * b[i]
        lam[j] = Fraction(0)
    return tuple(lam)


def independent_subsets(generators: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """All index sets whose generators are linearly independent (incl. the
    empty set), for at most INDEPENDENT_SUBSET_CAP generators."""
    gens = [vec(g) for g in generators]
    _check_lengths(gens, "generator dimension mismatch")
    if len(gens) > INDEPENDENT_SUBSET_CAP:
        raise CapExceededError(
            "independent-subset enumeration capped at "
            f"{INDEPENDENT_SUBSET_CAP} generators"
        )
    out = []

    def extend(prefix: list[int], start: int):
        out.append(tuple(prefix))
        for i in range(start, len(gens)):
            candidate = prefix + [i]
            if rank([gens[k] for k in candidate]) == len(candidate):
                extend(candidate, i + 1)

    extend([], 0)
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def _cut_frame(table: tuple) -> tuple:
    """(E, S, cuts) from table = linalg._basis_table(generators): the
    echelon rows E and pivot coordinates S of span(generators), and the
    sorted primitive, sign-normal normals, on S, of the hyperplanes that
    |S| - 1 generators span.  Row j of adj(D_SB) vanishes on B without
    its j-th member, and every independent (|S| - 1)-set extends to a
    basis, so the cuts are the rows of the bases' adjugates."""
    echelon, frame, bases = table
    rows = (row for _, adj, _ in bases for row in adj)
    cuts = {sign_normal(primitive_int_vector(row)) for row in rows}
    return echelon, frame, tuple(sorted(cuts))


def linearity_fan(generators: Sequence[Sequence]) -> Fan:
    """Fan with support cone(generators) on which every nonnegative-cost
    representation function is linear.

    Construction: all hyperplanes spanned by (d-1)-element independent
    subsets of the generators cut the support cone into chambers; the
    full-dimensional chambers are the maximal cones.  Every cone spanned by
    an independent subset is a union of chambers, which forces linearity.

    A cut splits only the chambers it crosses, those with rays strictly on
    both sides of the hyperplane, whose halves both keep interior points;
    any other chamber is kept whole, without a double description, as its
    other half is a lower-dimensional face.
    The chambers are built on the frame S of span(generators), the pivot
    coordinates of its integer echelon E (_cut_frame), where a point x of
    the span has x = x_S adj(E_S) E / det(E_S).  det(E_S) is the product of
    E's positive pivots, so the rays go back to ambient coordinates as the
    integer points x_S adj(E_S) E.  For a full-dimensional support S holds
    every coordinate, and the chambers are returned as they are.  Positive
    multiples of the generators span the same cones and hyperplanes, so
    they enter as primitive integer vectors.
    """
    gens = [primitive_direction(g) for g in generators]
    if not gens:
        raise InputError("linearity fan needs at least one generator")
    n = len(gens[0])
    support = cone_from_generators(gens)
    # a pointed cone has dimension at most 1 exactly when it has at most one ray
    if len(support.rays) <= 1:
        return Fan.make([support], n)
    if len(gens) > INDEPENDENT_SUBSET_CAP:
        raise CapExceededError(
            f"linearity fan capped at {INDEPENDENT_SUBSET_CAP} generators"
        )
    echelon, frame, cuts = _cut_frame(_basis_table(gens))
    chambers = [cone_from_generators([tuple(g[i] for i in frame) for g in gens])]
    for u in cuts:
        mu = tuple(-x for x in u)
        nxt = set()
        for sigma in chambers:
            sides = [idot(u, r) for r in sigma.rays]
            if min(sides) >= 0 or max(sides) <= 0:
                nxt.add(sigma)
                continue
            for half in (u, mu):
                nxt.add(cone_from_normals(sigma.normals + (half,)))
        chambers = sorted(nxt)
    if len(frame) == n:
        return Fan.make(chambers, n)
    adj, _ = int_adjugate([[row[i] for i in frame] for row in echelon])
    # lift[t] is column t of adj(E_S) E, so x_t = <x_S, lift[t]>
    lift = [[idot(a, col) for a in adj] for col in zip(*echelon)]
    out = [
        cone_from_generators([[idot(r, col) for col in lift] for r in sigma.rays])
        for sigma in chambers
    ]
    return Fan.make(out, n)


def normal_fan(Q: HPolyhedron) -> Fan:
    """Outer normal fan of a polyhedron: one maximal cone per vertex,
    spanned by the normals of the constraints active there.

    The support consists of the directions bounded above on Q.  Raises
    NotPointedSupportError when a normal cone contains a line (which happens
    exactly when Q has a nontrivial affine hull or lineality aligned with
    active constraints).
    """
    V = dual_description(Q)
    if V.empty:
        raise EmptyPolyhedronError("normal fan of the empty polyhedron")
    n = Q.ambient_dim
    cones = set()
    for w in V.vertices:
        gens: list[Vec] = []
        for normal, offset in Q.inequalities:
            if dot(normal, w) == offset:
                gens.append(normal)
        for normal, _ in Q.equalities:
            gens.append(normal)
            gens.append(vec(tuple(-x for x in normal)))
        try:
            cones.add(
                cone_from_generators(gens) if gens else origin_cone(n)
            )
        except NotPointedError as exc:
            raise NotPointedSupportError(
                f"normal cone at {w} contains the line through {exc.line}"
            ) from exc
    return Fan.make(sorted(cones), n)


def common_refinement(fans: Sequence[Fan]) -> Fan:
    """Coarsest-by-construction fan refining every input fan.

    All inputs must share their support; cones of the result are the
    full-dimensional pairwise intersections.
    """
    fans = list(fans)
    if not fans:
        raise InputError("common refinement of no fans")
    n = fans[0].ambient_dim
    support = fans[0].support_pair()
    for f in fans[1:]:
        if f.ambient_dim != n:
            raise InputError("fan ambient dimension mismatch")
        if f.support_pair() != support:
            raise InputError("fans do not share a common support")
    d = rank(support[0] + support[1])
    pieces = list(fans[0].maximal_cones)
    for f in fans[1:]:
        nxt = set()
        for a in pieces:
            for b in f.maximal_cones:
                t = intersect(a, b)
                if t.dim == d:
                    nxt.add(t)
        pieces = sorted(nxt)
    if not pieces:
        pieces = [origin_cone(n)]  # all inputs are the degenerate origin fan
    return Fan.make(pieces, n)


def is_smooth(c: Cone) -> bool:
    """Simplicial with primitive rays extending to a lattice basis."""
    return c.is_simplicial and c.lattice_det == 1


def refines(fine: Fan, coarse: Fan) -> bool:
    """Same support and every maximal cone of fine inside a cone of coarse."""
    if fine.ambient_dim != coarse.ambient_dim:
        return False
    if fine.support_pair() != coarse.support_pair():
        return False
    for c in fine.maximal_cones:
        if not any(big.contains_cone(c) for big in coarse.maximal_cones):
            return False
    return True


def _pull_triangulate(c: Cone) -> list[Cone]:
    if c.is_simplicial:
        return [c]
    v = c.rays[0]  # lex-least ray; hereditary, so shared faces agree
    pieces = []
    for u in c.facet_normals():
        if idot(u, v) == 0:
            continue
        facet = c.face([u])
        for part in _pull_triangulate(facet):
            pieces.append(cone_from_generators(part.rays + (v,)))
    return pieces


def _parallelepiped_points(c: Cone) -> list[IntVec]:
    """Nonzero primitive lattice points with all ray-coordinates in [0, 1).

    Enumerates cosets instead of scanning a bounding box (Cox, Little,
    Schenck, Toric Varieties, 11.1).  Take R_S, A = adj(R_S) and
    D = |det R_S| from Cone._ray_frame.  The columns of A mod D generate
    the group Z^k / R_S Z^k inside (Z/D)^k, and a breadth-first closure
    from 0 lists its D elements mu.  Each mu / D is the ray-coordinate
    vector of a point p = R mu / D of the half-open parallelepiped, and
    these are all its points with integral S-coordinates.  The lattice
    points are the p integral in every coordinate, which is all of them
    when the cone is full-dimensional: multiplicity - 1 besides the
    origin.  No linear system is solved, and the cost grows with D, not
    with the box.  D above SMOOTH_REFINE_MULTIPLICITY_CAP raises
    CapExceededError before any element is listed.
    """
    rays = c.rays
    _, adj, det = c._ray_frame
    d = abs(det)
    if d > SMOOTH_REFINE_MULTIPLICITY_CAP:
        # D is the multiplicity for a full-dimensional cone, a multiple of
        # it otherwise, and the number of cosets listed either way
        raise CapExceededError(
            f"smooth refinement capped at multiplicity "
            f"{SMOOTH_REFINE_MULTIPLICITY_CAP}, but the cone spanned by "
            f"{', '.join(map(str, rays))} has multiplicity {c.multiplicity()}"
            + (f" ({d} cosets on its frame)" if d != c.multiplicity() else "")
        )
    k = len(rays)
    steps = {tuple(row[j] % d for row in adj) for j in range(k)}
    zero = (0,) * k
    group = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for mu in frontier:
            for step in steps:
                nu = tuple((a + b) % d for a, b in zip(mu, step))
                if nu not in group:
                    group.add(nu)
                    nxt.append(nu)
        frontier = nxt
    found = set()
    for mu in group:
        if mu == zero:
            continue
        p = [
            sum(m * r[i] for m, r in zip(mu, rays))
            for i in range(c.ambient_dim)
        ]
        if all(x % d == 0 for x in p):
            found.add(primitive_int_vector([x // d for x in p]))
    return sorted(found)


def _stellar_weights(c: Cone, x: IntVec) -> list[int]:
    """det(R_S) times the ray-coordinates of a point x of a simplicial cone.

    Ray i is replaced exactly when its weight is nonzero; a point that does
    not decompose, or that replaces no ray, is an internal failure.
    """
    coords, adj, det = c._ray_frame
    lam = [sum(a * x[i] for a, i in zip(row, coords)) for row in adj]
    if any(
        sum(t * r[i] for t, r in zip(lam, c.rays)) != det * x[i]
        for i in range(c.ambient_dim)
    ):
        raise InternalError("contained point failed to decompose")
    if not any(lam):
        raise InternalError("contained point replaced no ray")
    return lam


def _stellar_score(fan: Fan, x: IntVec) -> int:
    """Largest multiplicity among the cones that a stellar subdivision of
    the fan at x creates, with no fan built.

    In a cone c containing x, the piece that replaces ray i by x has the
    rays' determinant scaled by x's i-th ray-coordinate lam_i / det(R_S)
    (Cramer's rule), so its multiplicity is mult(c) |lam_i| / |det R_S|.
    """
    worst = 1
    for c in fan.maximal_cones:
        if c.contains_point(x):
            mult, det = c.multiplicity(), abs(c._ray_frame[2])
            for t in _stellar_weights(c, x):
                worst = max(worst, mult * abs(t) // det)
    return worst


def _stellar_subdivide(fan: Fan, x: IntVec) -> Fan:
    """Stellar subdivision of a simplicial fan at a primitive lattice point."""
    out = []
    for c in fan.maximal_cones:
        if not c.contains_point(x):
            out.append(c)
            continue
        for i, t in enumerate(_stellar_weights(c, x)):
            if t != 0:
                rest = tuple(r for k, r in enumerate(c.rays) if k != i)
                out.append(cone_from_generators(rest + (x,)))
    return Fan.make(out, fan.ambient_dim)


def smooth_refine(f: Fan) -> Fan:
    """Deterministic smooth refinement with the same support.

    Non-simplicial cones are first triangulated by pulling at their
    lexicographically least rays; afterwards the worst non-smooth cone is
    stellarly subdivided at the primitive parallelepiped point minimizing
    the resulting maximal multiplicity (lexicographic tie-breaks), until all
    cones are smooth.  A candidate point is scored without building its
    subdivision: each cone containing it splits into pieces whose
    multiplicities follow from the point's ray-coordinates in that cone
    (_stellar_score), and only the winning point is subdivided.  Fans above
    SMOOTH_REFINE_DIM_CAP dimensions, and cones whose multiplicity exceeds
    SMOOTH_REFINE_MULTIPLICITY_CAP, raise CapExceededError.  Scoring a
    candidate visits every cone of the fan, and a round whose scoring
    would take the visits past SMOOTH_REFINE_BUDGET raises
    BudgetExceededError before it starts; every round visits at least one
    cone, so this also bounds the subdivisions.
    """
    if f.ambient_dim > SMOOTH_REFINE_DIM_CAP:
        raise CapExceededError(
            f"smooth refinement capped at ambient dimension {SMOOTH_REFINE_DIM_CAP}"
        )
    cones = []
    for c in f.maximal_cones:
        cones.extend(_pull_triangulate(c))
    fan = Fan.make(cones, f.ambient_dim)
    visits = 0
    while True:
        rough = [c for c in fan.maximal_cones if not is_smooth(c)]
        if not rough:
            return fan
        target = max(rough, key=lambda c: (c.multiplicity(), c.rays))
        points = _parallelepiped_points(target)
        visits += len(points) * len(fan.maximal_cones)
        if visits > SMOOTH_REFINE_BUDGET:
            raise BudgetExceededError(
                f"smooth refinement would visit more than {SMOOTH_REFINE_BUDGET} "
                f"cones in scoring; {len(fan.maximal_cones)} cones, worst "
                f"multiplicity {target.multiplicity()}"
            )
        best = min(((_stellar_score(fan, x), x) for x in points), default=None)
        if best is None:
            raise InternalError("non-smooth cone without subdivision points")
        fan = _stellar_subdivide(fan, best[1])


def is_cost_linear_on(
    generators: Sequence[Sequence], costs: Sequence, cone: Cone
) -> bool:
    """Whether the minimum representation cost phi is linear on the cone.

    phi is sublinear, so phi(sum r_i) <= sum phi(r_i) over the rays, with
    equality iff phi is linear on the cone: then the dual optimum y at the
    sum is tight at every ray, phi >= <., y> everywhere and phi <= <., y>
    on the cone.  NotInConeError from an evaluation signals that the cone
    is not contained in cone(generators).
    """
    if not cone.rays:
        return True
    ray_sum = tuple(sum(col) for col in zip(*cone.rays))
    total = sum(representation_cost(generators, costs, r).value for r in cone.rays)
    return representation_cost(generators, costs, ray_sum).value == total


def every_cost_linear_on(generators: Sequence[Sequence], cone: Cone) -> bool:
    """Whether every nonnegative cost is linear on the cone.

    The cost at v is the least c_B B^-1 v over the bases B of
    span(generators) with v in cone(B).  If every cone(B) contains the
    cone or meets it in lower dimension (a chamber), the same bases hold
    a dense subset of it, where the cost is concave as well as convex.
    For a cone of full support dimension the converse holds as well.
    """
    gens = [vec(g) for g in generators]
    if len(gens) > INDEPENDENT_SUBSET_CAP:
        raise CapExceededError(
            f"chamber check capped at {INDEPENDENT_SUBSET_CAP} generators"
        )
    if not cone_from_generators(gens).contains_cone(cone):
        raise NotInConeError("cone is not contained in cone(generators)")
    d = rank(gens)
    for basis in combinations(gens, d):
        if rank(basis) == d:
            basic = cone_from_generators(basis)
            if not basic.contains_cone(cone) and (
                intersect(cone, basic).dim == cone.dim
            ):
                return False
    return True
