import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_recession_rays,
    brute_vertices,
    canonical_basis_reference,
    hform_from_dd_reference,
    homogeneous_rows_reference,
    project_fm_reference,
    random_h_polyhedron,
    scale_polyhedron_reference,
)

from conefan import polyhedra
from conefan._dd import _canonical_basis
from conefan.errors import (
    CapExceededError,
    EmptyPolyhedronError,
    InputError,
    InternalError,
)
from conefan.graded import (
    GradedSystem,
    MonomialIdeal,
    asymptotic_newton,
    newton_hform,
)
from conefan.polyhedra import (
    UNBOUNDED,
    HPolyhedron,
    VRepresentation,
    _homogeneous_rows,
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
from conefan.rational import dot, vec


def orthant(dim=2):
    rows = [
        (tuple(-1 if j == i else 0 for j in range(dim)), 0) for i in range(dim)
    ]
    return HPolyhedron.from_rows(rows, (), dim)


def test_dual_description_orthant():
    V = dual_description(orthant())
    assert V.vertices == (vec([0, 0]),)
    assert V.rays == ((0, 1), (1, 0))
    assert V.lineality == ()


def test_dual_description_price_region():
    Q = HPolyhedron.from_rows([((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    V = dual_description(Q)
    assert set(V.vertices) == {vec([1, 0]), vec([0, 1])}
    assert set(V.rays) == {(-1, 0), (0, -1)}


def test_dual_description_empty():
    E = HPolyhedron.from_rows([((1,), 0), ((-1,), -1)])
    V = dual_description(E)
    assert V.empty and not V.vertices and not V.rays


def test_dual_description_dim_cap():
    with pytest.raises(CapExceededError):
        dual_description(orthant(9))


def test_vrep_to_h_orthant():
    H = vrep_to_h(dual_description(orthant()))
    assert H == canonical_h(orthant())
    assert len(H.inequalities) == 2 and not H.equalities


def test_vrep_to_h_shifted_orthant():
    V = VRepresentation.make(vertices=[(2, 0), (0, 2)], rays=[(1, 0), (0, 1)])
    H = vrep_to_h(V)
    assert contains(H, (2, 0)) and contains(H, (1, 1)) and not contains(H, (1, 0))
    assert len(H.inequalities) == 3


def test_vrep_to_h_single_point():
    H = vrep_to_h(VRepresentation.make(vertices=[(1, 1)]))
    assert not H.inequalities
    assert len(H.equalities) == 2
    assert contains(H, (1, 1)) and not contains(H, (1, 2))


def _implies(P, other):
    # every inequality and equality of `other` holds over all of P,
    # checked through the vertex-enumeration route
    for normal, offset in other.inequalities:
        res = minimize_linear(P, tuple(-x for x in normal))
        if res is UNBOUNDED or -res.value > offset:
            return False
    for normal, offset in other.equalities:
        for sign in (1, -1):
            res = minimize_linear(P, tuple(sign * x for x in normal))
            if res is UNBOUNDED or res.value != sign * offset:
                return False
    return True


def test_roundtrip_identity_random():
    rng = random.Random(5)
    for _ in range(60):
        P = random_h_polyhedron(rng, rng.randint(1, 3))
        V = dual_description(P)
        assert not V.empty
        H = vrep_to_h(V)
        assert same_point_set(P, H)
        assert canonical_vrep(V) == dual_description(H)
        # mutual implication: P satisfies H's constraints and vice versa
        assert _implies(P, H)
        assert _implies(H, P)


_SEGMENT = HPolyhedron.from_rows(
    [((1, 0), 1), ((-1, 0), 0)], [((1, 1), 1)]
)
_SQUEEZED = HPolyhedron.from_rows(
    [((1, 2, 0), 2), ((-1, -2, 0), -2), ((0, 0, 1), 0), ((0, -1, 0), 0)]
)


@st.composite
def h_polyhedra(draw):
    """(P, point): P nonempty by construction through the rational point,
    its rows often tight there (so lower-dimensional P and P with
    equalities occur), or (P, None) with free offsets, often empty."""
    dim = draw(st.integers(1, 3))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    point = vec(draw(st.tuples(*[rational] * dim)))
    anchored = draw(st.booleans())
    normal = st.tuples(*[st.integers(-9, 9)] * dim).filter(any)

    def rows(count):
        out = []
        for a in draw(st.lists(normal, min_size=count, max_size=count)):
            slack = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3)]))
            if anchored:
                out.append((a, dot(vec(a), point) + slack))
            else:
                out.append((a, draw(rational) * 2))
        return out

    ineqs = rows(draw(st.integers(dim, 2 * dim + 2)))
    eqs = []
    if anchored and draw(st.booleans()):
        a = draw(normal)
        eqs.append((a, dot(vec(a), point)))
    P = HPolyhedron.from_rows(ineqs, eqs, dim)
    return P, (point if anchored else None)


@settings(max_examples=150, deadline=None)
@given(h_polyhedra())
@example((HPolyhedron.from_rows([((1,), 0), ((-1,), -1)]), None))
@example((HPolyhedron.from_rows([((1, 1), 1), ((-1, -1), -2)]), None))
@example((HPolyhedron.from_rows([((1, 0), 0)], [((0, 1), 1), ((0, 2), 1)]), None))
@example((_SEGMENT, vec([0, 1])))
@example((_SQUEEZED, vec([2, 0, 0])))
@example((HPolyhedron.from_rows([], [((1, 0), 3), ((0, 1), -1)], 2), vec([3, -1])))
@example((HPolyhedron.from_rows([((1, -1), 0)]), vec([0, 0])))
def test_roundtrip_identity_property(case):
    # dual_description then vrep_to_h gives back P's point set, and the two
    # descriptions imply each other; empty P comes back empty
    P, point = case
    V = dual_description(P)
    H = vrep_to_h(V)
    if V.empty:
        assert point is None
        assert H.empty and dual_description(H).empty
        return
    if point is not None:
        assert contains(H, point)
    assert same_point_set(P, H)
    assert canonical_vrep(V) == dual_description(H)
    assert _implies(P, H)
    assert _implies(H, P)


def test_decompose_weyl():
    shifted = HPolyhedron.from_rows([((-1, 0), -1), ((0, -1), -1)])
    D = decompose_weyl(shifted)
    assert D.polytope_vertices == (vec([1, 1]),)
    assert set(D.recession.rays) == {(1, 0), (0, 1)}

    Q = HPolyhedron.from_rows([((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    D = decompose_weyl(Q)
    assert set(D.polytope_vertices) == {vec([1, 0]), vec([0, 1])}
    assert set(D.recession.rays) == {(-1, 0), (0, -1)}

    box = HPolyhedron.from_rows(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    )
    D = decompose_weyl(box)
    assert D.recession.rays == () and D.recession.lineality == ()


def test_decompose_recession_matches_homogenized_cone():
    rng = random.Random(9)
    for _ in range(40):
        P = random_h_polyhedron(rng, rng.randint(1, 3))
        D = decompose_weyl(P)
        hom = HPolyhedron.from_rows(
            [(a, 0) for a, _ in P.inequalities],
            [(a, 0) for a, _ in P.equalities],
            P.ambient_dim,
        )
        VH = dual_description(hom)
        assert set(VH.rays) == set(D.recession.rays)
        assert VH.lineality == D.recession.lineality


def test_minimize_linear():
    P = HPolyhedron.from_rows([((-1, 0), -1), ((0, -1), 0)])
    res = minimize_linear(P, (1, 0))
    assert res.value == 1 and res.argmin == vec([1, 0])
    assert minimize_linear(P, (0, -1)) is UNBOUNDED
    point = vrep_to_h(VRepresentation.make(vertices=[(3,)]))
    for c in (2, -5, 0):
        r = minimize_linear(point, (c,))
        assert r.value == 3 * c and r.argmin == vec([3])
    with pytest.raises(EmptyPolyhedronError):
        minimize_linear(HPolyhedron.make_empty(2), (1, 0))


def test_minimize_against_brute_force():
    rng = random.Random(13)
    bounded_seen = 0
    for _ in range(60):
        P = random_h_polyhedron(rng, rng.randint(1, 3))
        u = vec([Fraction(rng.randint(-5, 5)) for _ in range(P.ambient_dim)])
        res = minimize_linear(P, u)
        rays = brute_recession_rays(P)
        neg = any(dot(u, vec(r)) < 0 for r in rays)
        if res is UNBOUNDED:
            assert neg
        else:
            assert not neg
            bounded_seen += 1
            verts = brute_vertices(P)
            if verts:
                assert res.value == min(dot(u, v) for v in verts)
            assert contains(P, res.argmin)
    assert bounded_seen > 5


def test_minkowski_sum():
    A = VRepresentation.make(vertices=[(1, 0)], rays=[(1, 0), (0, 1)])
    B = VRepresentation.make(vertices=[(0, 1)], rays=[(1, 0), (0, 1)])
    S = minkowski_sum(A, B)
    assert S.vertices == (vec([1, 1]),)
    origin = VRepresentation.make(vertices=[(0, 0)])
    assert minkowski_sum(A, origin) == canonical_vrep(A)
    C = VRepresentation.make(vertices=[(2, 0), (0, 2)], rays=[(1, 0), (0, 1)])
    S2 = minkowski_sum(C, C)
    assert set(S2.vertices) == {vec([4, 0]), vec([0, 4])}


def test_minkowski_support_additivity():
    rng = random.Random(21)
    for _ in range(30):
        P = dual_description(random_h_polyhedron(rng, 2))
        Q = dual_description(random_h_polyhedron(rng, 2))
        S = minkowski_sum(P, Q)
        HP, HQ, HS = vrep_to_h(P), vrep_to_h(Q), vrep_to_h(S)
        for _ in range(5):
            u = vec([Fraction(rng.randint(-4, 4)) for _ in range(2)])
            rp = minimize_linear(HP, u)
            rq = minimize_linear(HQ, u)
            rs = minimize_linear(HS, u)
            if rp is UNBOUNDED or rq is UNBOUNDED:
                assert rs is UNBOUNDED
            else:
                assert rs is not UNBOUNDED
                assert rs.value == rp.value + rq.value


def test_project_examples():
    P = HPolyhedron.from_rows(
        [((1, 0), 1), ((-1, 0), 0)], [((1, -1), 0)]
    )
    pr = project(P, [1])
    assert contains(pr, (0,)) and contains(pr, (1,)) and not contains(pr, (2,))

    P2 = HPolyhedron.from_rows([((-1, -1), -2), ((-1, 0), 0), ((0, -1), 0)])
    pr2 = project(P2, [0])
    assert same_point_set(pr2, HPolyhedron.from_rows([((-1,), 0)]))

    P3 = orthant()
    assert same_point_set(project(P3, [0, 1]), canonical_h(P3))


def test_project_soundness_completeness():
    rng = random.Random(17)
    for _ in range(25):
        P = random_h_polyhedron(rng, 3)
        keep = sorted(rng.sample(range(3), rng.randint(1, 2)))
        pr = project(P, keep)
        V = dual_description(P)
        # soundness: projections of points of P are in the projection
        for v in list(V.vertices)[:4]:
            assert contains(pr, tuple(v[k] for k in keep))
        # completeness: points of the projection lift to P
        PV = dual_description(pr)
        for q in list(PV.vertices)[:4]:
            lifted_rows = []
            rhs = []
            for idx, k in enumerate(keep):
                row = [Fraction(0)] * 3
                row[k] = Fraction(1)
                lifted_rows.append(tuple(row))
                rhs.append(q[idx])
            slab = HPolyhedron.from_rows(
                [(a, b) for a, b in P.inequalities],
                list(zip(lifted_rows, rhs)) + [(a, b) for a, b in P.equalities],
                3,
            )
            assert not dual_description(slab).empty



@st.composite
def projection_cases(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    offset = st.builds(Fraction, st.integers(-3, 8), st.integers(1, 2))
    row = st.tuples(st.tuples(*[entry] * n), offset)
    P = HPolyhedron.from_rows(
        draw(st.lists(row, max_size=12)), draw(st.lists(row, max_size=2)), n
    )
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return P, keep


@settings(max_examples=300, deadline=None)
@given(projection_cases())
# 5 * 5 = 25 rows after the elimination: the oracle's LP pruning runs
@example((HPolyhedron.from_rows([
    ((1, 0, 0, 1), 3), ((0, 1, 0, 1), 3), ((0, 0, 1, 1), 3), ((1, 1, 1, 1), 5),
    ((-1, 2, 0, 1), 4), ((-1, 0, 0, -1), 3), ((0, -1, 0, -1), 3),
    ((0, 0, -1, -1), 3), ((-1, -1, -1, -1), 5), ((2, -1, 1, -1), 4)]), [0, 1, 2]))
# infeasible: x <= 0 and x >= 1
@example((HPolyhedron.from_rows([((1, 0), 0), ((-1, 0), -1)]), [1]))
@example((HPolyhedron.make_empty(3), [0, 2]))
# a triangle cut to a segment by the equality x = y
@example((HPolyhedron.from_rows(
    [((-1, 0, 0), 0), ((0, -1, 0), 0), ((1, 1, 1), 3)], [((1, -1, 0), 0)]), [0, 2]))
# a slab 0 <= x + y <= 2 with lineality (1, -1, 0) and (0, 0, 1)
@example((HPolyhedron.from_rows([((1, 1, 0), 2), ((-1, -1, 0), 0)]), [0]))
@example((HPolyhedron.from_rows([((1, 1, 0), 2), ((-1, -1, 0), 0)]), [2, 1]))
@example((HPolyhedron.from_rows([((-1, 0, 0), 0), ((1, 1, -1), 1)]), [0, 1, 2]))
def test_project_matches_fourier_motzkin(case):
    # projection by double description against elimination; both end in
    # the canonical form, so the point sets agree iff the forms are equal
    P, keep = case
    Q = project(P, keep)
    assert Q == project_fm_reference(P, keep)
    assert not any(
        isinstance(x, float)
        for normal, offset in Q.inequalities + Q.equalities
        for x in normal + (offset,)
    )


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.one_of(st.just(0), _rationals)] * n), max_size=5
        )
    )
)
@example([])
@example([(0, 0)])
@example([(2, 4, 6), (1, 2, 3)])
@example([(Fraction(1, 2), 0), (0, Fraction(-2, 3)), (1, 1)])
def test_canonical_basis_matches_fraction_reference(vectors):
    # the primitive rows of the loop's integer echelon are those of the
    # Fraction reduced echelon form
    assert _canonical_basis(vectors) == canonical_basis_reference(vectors)


@st.composite
def flat_vreps(draw):
    """(V, keep): V's points lie on an affine subspace through a rational
    point, spanned by at most n integer directions, which also give its
    rays and lineality, so its hull has equalities, lineality or both;
    keep is a coordinate set to project on."""
    n = draw(st.integers(1, 4))
    direction = st.tuples(*[st.integers(-3, 3)] * n)
    dirs = draw(st.lists(direction, min_size=1, max_size=n))
    base = draw(st.tuples(*[_rationals] * n))
    coef = st.lists(st.integers(-2, 2), min_size=len(dirs), max_size=len(dirs))

    def in_span(c):
        return tuple(sum(ci * d[j] for ci, d in zip(c, dirs)) for j in range(n))

    vertices = [
        tuple(b + x for b, x in zip(base, in_span(c)))
        for c in draw(st.lists(coef, min_size=1, max_size=4))
    ]
    rays = [in_span(c) for c in draw(st.lists(coef, max_size=2))]
    lineality = [in_span(c) for c in draw(st.lists(coef, max_size=2))]
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return VRepresentation.make(vertices, rays, lineality, n), keep


@settings(max_examples=200, deadline=None)
@given(flat_vreps())
# a segment in the plane x + y = 1: one equality, no lineality
@example((VRepresentation.make([(0, 1), (1, 0)]), [0]))
# a line through (1/2, 0, 0) along (1, 1, 0): equalities and lineality
@example((VRepresentation.make([(Fraction(1, 2), 0, 0)], (), [(1, 1, 0)]), [1, 2]))
# a half-plane in the plane z = 2 of 3-space, with a line in it
@example((VRepresentation.make([(0, 0, 2)], [(1, 0, 0)], [(0, 1, 0)]), [0, 2]))
def test_hform_matches_fraction_reference(case):
    # vrep_to_h and project reduce the inequalities modulo the equalities
    # in integers, to the canonical form of the Fraction route
    V, keep = case
    H = vrep_to_h(V)
    got = (H, project(H, keep))
    with mock.patch.object(polyhedra, "_hform_from_dd", hform_from_dd_reference):
        H_ref = vrep_to_h(V)
        assert (H_ref, project(H_ref, keep)) == got


@pytest.mark.parametrize(
    "lin, rays",
    [
        # a ray (0 | c) with c < 0 is the absurd row 0 <= c
        ((), [(0, 0, -1)]),
        # x = 0 and x = 1: an inconsistent affine hull
        ([(1, 0, 0), (1, 0, 1)], [(0, 1, 0)]),
        # -x <= -1 reduces modulo x = 0 to the absurd row 0 <= -1
        ([(1, 0, 0)], [(1, 0, -1)]),
    ],
)
def test_hform_from_dd_refuses_an_absurd_double_description(lin, rays):
    # the double description of a nonempty hull gives none of these, so
    # each is an internal failure, never a polyhedron
    with pytest.raises(InternalError):
        polyhedra._hform_from_dd(lin, rays, 2)


def test_project_above_dim_cap_raises():
    with pytest.raises(CapExceededError):
        project(orthant(9), [0, 1])

def test_contains():
    assert contains(orthant(), (0, 0))
    NP = vrep_to_h(
        VRepresentation.make(vertices=[(2, 0), (0, 2)], rays=[(1, 0), (0, 1)])
    )
    assert contains(NP, (1, 1))
    assert not contains(NP, (1, 0))


def test_scale_polyhedron_canonical():
    NP = vrep_to_h(
        VRepresentation.make(vertices=[(2, 4)], rays=[(1, 0), (0, 1)])
    )
    doubled = scale_polyhedron(NP, 2)
    direct = vrep_to_h(
        VRepresentation.make(vertices=[(4, 8)], rays=[(1, 0), (0, 1)])
    )
    assert doubled == direct


@st.composite
def scalable_forms(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        # canonical forms: integer rows, with equalities when the points
        # and rays span less than the ambient space
        points = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=4))
        rays = draw(st.lists(st.tuples(*[entry] * n), max_size=3))
        P = vrep_to_h(VRepresentation.make(vertices=points, rays=rays, ambient_dim=n))
    else:
        # rational rows, which from_rows scales to primitive integer rows
        value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
        row = st.tuples(st.tuples(*[value] * n), value)
        P = HPolyhedron.from_rows(
            draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=2)), n
        )
    t = draw(
        st.one_of(
            st.integers(1, 6),
            st.builds(Fraction, st.integers(1, 12), st.integers(1, 5)),
        )
    )
    return P, t


@settings(max_examples=300, deadline=None)
@given(scalable_forms())
@example((vrep_to_h(VRepresentation.make(vertices=[(1, 2), (3, 0)])), 2))
@example((vrep_to_h(VRepresentation.make(vertices=[(1, 2), (3, 0)])), Fraction(3, 4)))
@example((vrep_to_h(VRepresentation.make(vertices=[(2, 4)], rays=[(1, 0), (0, 1)])),
          Fraction(1, 2)))
def test_scale_polyhedron_matches_reference(case):
    # rows rescale in int; the result must be the reference's, which
    # scales offsets in Fractions and clears denominators row by row
    P, t = case
    assert scale_polyhedron(P, t) == scale_polyhedron_reference(P, t)



@settings(max_examples=200, deadline=None)
@given(scalable_forms())
def test_homogeneous_rows_match_reference(case):
    # the rows of canonical forms and of from_rows alike are homogenized in
    # int; they must give the rows of the reference, which negates each
    # normal in Fractions and clears denominators row by row
    P, _ = case
    assert _homogeneous_rows(P) == homogeneous_rows_reference(P)


@pytest.mark.parametrize(
    "bad",
    [Fraction(1), Fraction(1, 2), True, False, 1.0],
    ids=["fraction-int", "fraction", "true", "false", "float"],
)
@pytest.mark.parametrize("where", ["normal", "offset", "equality"])
def test_hpolyhedron_rejects_non_int_entries(bad, where):
    # rows hold plain ints; Fraction(1) == 1 and True == 1 but neither is
    # an int, and rational rows go through from_rows
    row = ((bad, 0), 1) if where == "normal" else ((1, 0), bad)
    rows = ((row,), ()) if where != "equality" else ((), (row,))
    with pytest.raises(InputError):
        HPolyhedron(*rows, 2)
    assert HPolyhedron((((1, 0), 1),), (), 2) == HPolyhedron.from_rows([((1, 0), 1)])


@st.composite
def rational_rows(draw):
    n = draw(st.integers(1, 3))
    value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    row = st.tuples(st.tuples(*[value] * n), value)
    return draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=2)), n


@settings(max_examples=150, deadline=None)
@given(
    rational_rows(),
    st.one_of(
        st.integers(1, 7), st.builds(Fraction, st.integers(1, 12), st.integers(1, 5))
    ),
)
def test_from_rows_is_invariant_under_positive_scaling(rows, k):
    # each row is stored as its primitive integer row, which a positive
    # factor does not change
    ineqs, eqs, n = rows
    P = HPolyhedron.from_rows(ineqs, eqs, n)
    scaled = HPolyhedron.from_rows(
        [(tuple(k * x for x in a), k * b) for a, b in ineqs],
        [(tuple(k * x for x in a), k * b) for a, b in eqs],
        n,
    )
    assert scaled == P
    assert hash(scaled) == hash(P)


def test_empty_polyhedron_total_operations():
    E = HPolyhedron.make_empty(2)
    assert dual_description(E).empty
    assert not contains(E, (0, 0))
    assert project(E, [0]).empty
    assert canonical_h(E).empty
    V = VRepresentation.make_empty(2)
    assert vrep_to_h(V).empty
    assert minkowski_sum(V, dual_description(orthant())).empty


@pytest.mark.parametrize("where", ["inequalities", "equalities"])
def test_empty_hpolyhedron_carries_no_rows(where):
    # the empty set has one structural form, make_empty's, as for
    # VRepresentation; a row beside the flag would make a second one
    row = (((1, 0), 1),)
    rows = (row, ()) if where == "inequalities" else ((), row)
    with pytest.raises(InputError, match="no rows"):
        HPolyhedron(*rows, 2, True)
    with pytest.raises(InputError, match="no rows"):
        HPolyhedron.make_empty(2)._replace(**{where: row})
    assert HPolyhedron(*rows, 2).empty is False
    with pytest.raises(InputError, match="no generators"):
        VRepresentation(((0, 0),), (), (), 2, True)


def _non_int_entries(P):
    return [
        x
        for normal, offset in P.inequalities + P.equalities
        for x in normal + (offset,)
        if type(x) is not int
    ]


@st.composite
def graded_inputs(draw):
    # a rank-2 system over a 2- or 3-dimensional exponent space, and a
    # degree in its cone as a sum of degrees
    n = draw(st.integers(2, 3))
    exponents = st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=3)
    degrees = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3)
        .filter(lambda ds: all(any(d) for d in ds))
    )
    ideals = [MonomialIdeal.from_exponents(n, draw(exponents)) for _ in degrees]
    picks = draw(st.lists(st.integers(0, 2), min_size=len(degrees), max_size=len(degrees)))
    m = tuple(sum(k * d[j] for k, d in zip(picks, degrees)) for j in range(2))
    return GradedSystem.create(2, n, degrees, ideals), m, ideals


@settings(max_examples=60, deadline=None)
@given(
    rational_rows(),
    st.one_of(st.integers(1, 5), st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))),
    st.data(),
    graded_inputs(),
)
def test_returned_rows_hold_only_ints(rows, t, data, graded):
    # every HPolyhedron the package returns holds plain ints, whichever
    # route built it; a float or Fraction row entry fails here
    ineqs, eqs, n = rows
    P = HPolyhedron.from_rows(ineqs, eqs, n)
    keep = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    outputs = [P, canonical_h(P), scale_polyhedron(P, t), project(P, keep)]
    outputs.append(scale_polyhedron(outputs[1], t))
    system, m, ideals = graded
    outputs += [newton_hform(I) for I in ideals]
    outputs.append(asymptotic_newton(system, m))
    for Q in outputs:
        assert not _non_int_entries(Q), Q
