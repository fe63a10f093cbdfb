"""Rational polyhedra with dual descriptions.

An HPolyhedron is a finite system of inequalities <a, x> <= b and equalities
<a, x> = b; a VRepresentation is conv(vertices) + cone(rays) + span(lineality).
Conversions run through the double description of the homogenization, so both
directions produce irredundant output.  The empty polyhedron is a first-class
value carrying an explicit flag, and every operation is total on it.

HPolyhedron rows (normal | offset) hold plain ints, and direct
construction accepts nothing else.  HPolyhedron.from_rows is the one
rational entry point: it scales each row by a positive factor to its
primitive integer row, which leaves the point set unchanged, and every
HPolyhedron the module returns has primitive rows.  Canonical forms make
equality of point sets a structural comparison: inequalities are reduced
modulo the equality space and sorted, equalities are brought to a
sign-normal echelon basis; vertex and ray lists are sorted with primitive
integer rays.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from ._dd import cone_generators, _canonical_basis
from ._value import Frozen
from .errors import (
    CapExceededError,
    EmptyPolyhedronError,
    InputError,
    InternalError,
)
from .rational import (
    IntVec,
    Vec,
    dot,
    frac,
    is_zero_vec,
    primitive_direction,
    primitive_int_vector,
    sign_normal,
    vec,
    vzero,
)

DEFAULT_DIM_CAP = 8

Row = tuple[IntVec, int]


def _row(normal: Sequence, offset) -> Row:
    """Primitive integer row of a rational (normal | offset)."""
    r = primitive_direction((*normal, offset))
    return (r[:-1], r[-1])


class HPolyhedron(Frozen):
    """Polyhedron {x : <a,x> <= b for inequalities, <a,x> = b for equalities}.

    Its V-representation, once dual_description has made it, is kept on
    the polyhedron and goes away with it.
    """

    inequalities: tuple[Row, ...]
    equalities: tuple[Row, ...]
    ambient_dim: int
    empty: bool = False

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be positive")
        for normal, offset in self.inequalities + self.equalities:
            if len(normal) != self.ambient_dim:
                raise InputError("constraint dimension mismatch")
            if type(offset) is not int or any(type(x) is not int for x in normal):
                raise InputError(
                    "HPolyhedron rows hold ints; build rational rows with from_rows"
                )

    @staticmethod
    def from_rows(
        inequalities: Sequence[tuple[Sequence, object]] = (),
        equalities: Sequence[tuple[Sequence, object]] = (),
        ambient_dim: int | None = None,
    ) -> "HPolyhedron":
        """HPolyhedron of rational rows, each scaled to its primitive
        integer row; a row with zero normal is dropped, or makes the
        polyhedron empty when it is infeasible."""
        ineqs = []
        eqs = []
        for normal, offset in inequalities:
            r = _row(normal, offset)
            if is_zero_vec(r[0]):
                if r[1] < 0:
                    return HPolyhedron.make_empty(ambient_dim or len(normal))
                continue
            ineqs.append(r)
        for normal, offset in equalities:
            r = _row(normal, offset)
            if is_zero_vec(r[0]):
                if r[1] != 0:
                    return HPolyhedron.make_empty(ambient_dim or len(normal))
                continue
            eqs.append(r)
        if ambient_dim is None:
            if not ineqs and not eqs:
                raise InputError("ambient dimension required for empty systems")
            ambient_dim = len((ineqs + eqs)[0][0])
        return HPolyhedron(tuple(ineqs), tuple(eqs), ambient_dim)

    @staticmethod
    def make_empty(ambient_dim: int) -> "HPolyhedron":
        return HPolyhedron((), (), ambient_dim, empty=True)

    @cached_property
    def _vrep(self) -> "VRepresentation":
        """The double description behind dual_description, computed once
        and kept for the life of the polyhedron."""
        n = self.ambient_dim
        if n > DEFAULT_DIM_CAP:
            raise CapExceededError(
                f"dual description capped at dimension {DEFAULT_DIM_CAP}, got {n}"
            )
        if self.empty:
            return VRepresentation.make_empty(n)
        lin, rays = cone_generators(_homogeneous_rows(self), n + 1)
        if any(l[n] != 0 for l in lin) or any(r[n] < 0 for r in rays):
            raise InternalError("generators escaped the t >= 0 halfspace")
        vertices = []
        rec_rays = []
        for r in rays:
            t = r[n]
            if t > 0:
                vertices.append(tuple(Fraction(x, t) for x in r[:n]))
            else:
                rec_rays.append(r[:n])
        if not vertices:
            return VRepresentation.make_empty(n)
        return VRepresentation(
            tuple(sorted(vertices)),
            tuple(sorted(rec_rays)),
            _canonical_basis([l[:n] for l in lin]),
            n,
        )


class VRepresentation(Frozen):
    """conv(vertices) + cone(rays) + span(lineality); empty iff flagged."""

    vertices: tuple[Vec, ...]
    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]
    ambient_dim: int
    empty: bool = False

    def __post_init__(self):
        if self.empty and (self.vertices or self.rays or self.lineality):
            raise InputError("empty V-representation must carry no generators")
        if not self.empty and not self.vertices:
            raise InputError("nonempty V-representation needs at least one point")
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise InputError("vertex dimension mismatch")
        for r in self.rays + self.lineality:
            if len(r) != self.ambient_dim:
                raise InputError("ray dimension mismatch")

    @staticmethod
    def make(
        vertices: Sequence[Sequence] = (),
        rays: Sequence[Sequence] = (),
        lineality: Sequence[Sequence] = (),
        ambient_dim: int | None = None,
    ) -> "VRepresentation":
        verts = tuple(sorted(vec(v) for v in vertices))
        pr = tuple(sorted({p for p in map(primitive_direction, rays) if any(p)}))
        lin = _canonical_basis(list(lineality))
        if ambient_dim is None:
            sample = (list(verts) + list(pr) + list(lin) or [None])[0]
            if sample is None:
                raise InputError("ambient dimension required for empty data")
            ambient_dim = len(sample)
        if not verts:
            return VRepresentation.make_empty(ambient_dim)
        return VRepresentation(verts, pr, lin, ambient_dim)

    @staticmethod
    def make_empty(ambient_dim: int) -> "VRepresentation":
        return VRepresentation((), (), (), ambient_dim, empty=True)


def _homogeneous_rows(P: HPolyhedron) -> tuple[IntVec, ...]:
    """Integer rows a with <a,(x,t)> >= 0 describing the homogenization:
    (a | b) becomes the primitive part of (-a | b)."""
    n = P.ambient_dim

    def homogenized(r):
        return primitive_int_vector(tuple(-x for x in r[0]) + (r[1],))

    rows = set(map(homogenized, P.inequalities))
    for r in map(homogenized, P.equalities):
        rows.add(r)
        rows.add(tuple(-x for x in r))
    t_row = tuple([0] * n + [1])
    rows.discard(t_row)
    return (t_row,) + tuple(sorted(rows))


def dual_description(P: HPolyhedron) -> VRepresentation:
    """Irredundant V-representation of an H-polyhedron (double description),
    kept on P, so asking again for the same polyhedron costs nothing.

    Raises CapExceededError above DEFAULT_DIM_CAP coordinates.
    """
    return P._vrep


def _reduce_mod_equalities(
    rows: list[tuple[Vec, Fraction]], eq_red: list[list[Fraction]], eq_pivots: list[int]
) -> list[tuple[Vec, Fraction]]:
    out = []
    for normal, offset in rows:
        aug = list(normal) + [offset]
        for i, p in enumerate(eq_pivots):
            if aug[p] != 0:
                f = aug[p]
                aug = [a - f * b for a, b in zip(aug, eq_red[i])]
        normal2 = tuple(aug[:-1])
        offset2 = aug[-1]
        if is_zero_vec(normal2):
            if offset2 < 0:
                raise InternalError("facet reduced to an absurd row")
            continue
        out.append((normal2, offset2))
    return out


def _lift_point(v: Sequence) -> IntVec:
    """The homogenized integer point (v | 1), a primitive integer row; a
    point with an entry that is not an int is an internal failure."""
    if any(type(x) is not int for x in v):
        raise InternalError(f"hull point {tuple(v)} is not an integer point")
    return tuple(v) + (1,)


def _h_from_int_rows(
    ineq_rows: Sequence[IntVec], eq_rows: Sequence[IntVec], n: int
) -> HPolyhedron:
    """HPolyhedron of sorted primitive integer rows (normal | offset), each
    split into its (normal, offset) pair as it stands."""
    return HPolyhedron(
        tuple((r[:-1], r[-1]) for r in ineq_rows),
        tuple((r[:-1], r[-1]) for r in eq_rows),
        n,
    )


def _hform_from_dd(
    lin: Sequence[IntVec], rays: Sequence[IntVec], n: int
) -> HPolyhedron:
    """Canonical H-form from the double description (lin, rays) of the cone
    {(a | c) : <a, x> + c*t >= 0 for every homogenized generator (x | t)}.

    A ray (a | c) is the inequality <-a, x> <= c, a lineality vector the
    equality <a, x> = -c.  Without lineality the rays are distinct primitive
    integer rows, which are the canonical inequalities as they stand.
    Otherwise the equalities are brought to a reduced echelon basis and the
    inequality normals reduced modulo the equality space.
    """
    ineqs = []
    for r in rays:
        if not any(r[:n]):
            if r[n] < 0:
                raise InternalError("homogenized hull gave an absurd row")
            continue
        ineqs.append(tuple(-x for x in r[:n]) + (r[n],))
    if not lin:
        return _h_from_int_rows(sorted(ineqs), (), n)
    eqs = []
    for l in lin:
        if not any(l[:n]):
            raise InternalError("affine hull gave an absurd equality")
        eqs.append(list(l[:n]) + [-l[n]])
    from .linalg import rref

    red, pivots = rref(eqs)
    if pivots and pivots[-1] == n:
        raise InternalError("inconsistent affine hull")
    eq_red = red[: len(pivots)]
    reduced = _reduce_mod_equalities([(r[:n], r[n]) for r in ineqs], eq_red, pivots)
    ineq_rows = sorted({primitive_direction((*a, c)) for a, c in reduced})
    eq_rows = sorted({sign_normal(primitive_direction(r)) for r in eq_red})
    return _h_from_int_rows(ineq_rows, eq_rows, n)


def vrep_to_h(V: VRepresentation) -> HPolyhedron:
    """Canonical H-description of a V-representation."""
    n = V.ambient_dim
    if V.empty:
        return HPolyhedron.make_empty(n)
    gens = {primitive_direction((*v, 1)) for v in V.vertices}
    for r in V.rays:
        gens.add(primitive_direction((*r, 0)))
    for l in V.lineality:
        row = primitive_direction((*l, 0))
        gens.add(row)
        gens.add(tuple(-x for x in row))
    return _hform_from_dd(*cone_generators(tuple(sorted(gens)), n + 1), n)


def canonical_h(P: HPolyhedron) -> HPolyhedron:
    """Unique canonical H-form of the point set described by P."""
    return vrep_to_h(dual_description(P))


def canonical_vrep(V: VRepresentation) -> VRepresentation:
    """Irredundant canonical V-form (vertices become 0-faces, rays extreme)."""
    if V.empty:
        return V
    return dual_description(vrep_to_h(V))


def same_point_set(P: HPolyhedron, Q: HPolyhedron) -> bool:
    return canonical_h(P) == canonical_h(Q)


class WeylDecomposition(Frozen):
    polytope_vertices: tuple[Vec, ...]
    recession: VRepresentation


def decompose_weyl(P: HPolyhedron) -> WeylDecomposition:
    """Split P into a polytope part plus its recession cone."""
    V = dual_description(P)
    if V.empty:
        raise EmptyPolyhedronError("cannot decompose the empty polyhedron")
    origin = vzero(P.ambient_dim)
    recession = VRepresentation((origin,), V.rays, V.lineality, P.ambient_dim)
    return WeylDecomposition(V.vertices, recession)


class _Unbounded:
    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()


class MinimizeResult(Frozen):
    value: Fraction
    argmin: Vec


def minimize_linear(P: HPolyhedron, u: Sequence):
    """Exact minimum of <u, x> over P, or UNBOUNDED.

    The minimum, when it exists, is attained at a vertex of the polytope
    part, so the argmin is always a rational point.
    """
    u = vec(u)
    V = dual_description(P)
    if V.empty:
        raise EmptyPolyhedronError("cannot minimize over the empty polyhedron")
    for l in V.lineality:
        if dot(u, vec(l)) != 0:
            return UNBOUNDED
    for r in V.rays:
        if dot(u, vec(r)) < 0:
            return UNBOUNDED
    best_val = None
    best_arg = None
    for v in V.vertices:
        val = dot(u, v)
        if best_val is None or val < best_val or (val == best_val and v < best_arg):
            best_val, best_arg = val, v
    return MinimizeResult(best_val, best_arg)


def minkowski_sum(P: VRepresentation, Q: VRepresentation) -> VRepresentation:
    """Exact Minkowski sum of two V-representations (canonical output)."""
    if P.ambient_dim != Q.ambient_dim:
        raise InputError("Minkowski sum needs matching ambient dimensions")
    if P.empty or Q.empty:
        return VRepresentation.make_empty(P.ambient_dim)
    verts = [tuple(a + b for a, b in zip(v, w)) for v in P.vertices for w in Q.vertices]
    return canonical_vrep(
        VRepresentation.make(
            vertices=verts,
            rays=P.rays + Q.rays,
            lineality=P.lineality + Q.lineality,
            ambient_dim=P.ambient_dim,
        )
    )


def contains(P: HPolyhedron, x: Sequence) -> bool:
    """Exact membership test."""
    if P.empty:
        return False
    x = vec(x)
    for normal, offset in P.inequalities:
        if dot(normal, x) > offset:
            return False
    for normal, offset in P.equalities:
        if dot(normal, x) != offset:
            return False
    return True


def scale_polyhedron(P: HPolyhedron, t) -> HPolyhedron:
    """The dilate t*P for a positive rational t.

    t = p/q takes each row (a | b) to the primitive part of (q*a | p*b), and
    the rows are re-sorted, so scaling a canonical form yields the
    canonical form of the scaled set.
    """
    t = frac(t)
    if t <= 0:
        raise InputError("scaling factor must be positive")
    if P.empty:
        return P
    p, q = t.numerator, t.denominator

    def scaled(r):
        return primitive_int_vector(tuple(q * x for x in r[0]) + (p * r[1],))

    return _h_from_int_rows(
        sorted(map(scaled, P.inequalities)),
        sorted(sign_normal(scaled(r)) for r in P.equalities),
        P.ambient_dim,
    )


def project(P: HPolyhedron, keep: Sequence[int]) -> HPolyhedron:
    """Image of P under projection onto the 0-based coordinates in `keep`,
    in canonical H-form.

    The image of conv(V) + cone(R) + span(L) under a coordinate projection
    is conv(V') + cone(R') + span(L') with the projected generators, so the
    double description of P is mapped coordinatewise and converted back
    with vrep_to_h.  P itself goes through dual_description, so an
    ambient dimension above DEFAULT_DIM_CAP raises CapExceededError.
    """
    keep = sorted(set(keep))
    n = P.ambient_dim
    if any(k < 0 or k >= n for k in keep):
        raise InputError("projection indices out of range")
    if not keep:
        raise InputError("projection needs at least one coordinate")
    if P.empty:
        return HPolyhedron.make_empty(len(keep))
    V = dual_description(P)
    if V.empty:
        return HPolyhedron.make_empty(len(keep))

    def image(v):
        return tuple(v[k] for k in keep)

    return vrep_to_h(
        VRepresentation.make(
            vertices=map(image, V.vertices),
            rays=map(image, V.rays),
            lineality=map(image, V.lineality),
            ambient_dim=len(keep),
        )
    )
