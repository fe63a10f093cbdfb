import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    STRADDLE_GENS,
    cone_from_primitive_rays_reference,
    cut_normals_reference,
    frame_reference,
    is_cost_linear_on_sampled,
    lattice_det_reference,
    linearity_fan_reference,
    parallelepiped_lattice_points_reference,
    parallelepiped_points_reference,
    random_generators,
    stellar_score_reference,
)

from conefan import fans
from conefan.errors import (
    BudgetExceededError,
    CapExceededError,
    EmptyPolyhedronError,
    InputError,
    NotInConeError,
    NotPointedError,
    NotPointedSupportError,
)
from conefan.fans import (
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
from conefan.linalg import (
    _basis_table,
    int_adjugate,
    int_echelon,
    kernel_basis,
    linear_solve,
    rank,
)
from conefan.lp import price_polyhedron, representation_cost
from conefan.polyhedra import HPolyhedron
from conefan.rational import dot, idot, primitive_direction, primitive_int_vector, vec

V3 = [(1, 0), (0, 1), (1, 1)]


def quadrant():
    return cone_from_generators([(1, 0), (0, 1)])


def test_cone_from_generators():
    c = cone_from_generators(V3)
    assert c.rays == ((0, 1), (1, 0))
    assert set(c.normals) == {(0, 1), (1, 0)}
    assert cone_from_generators([(2, 0)]).rays == ((1, 0),)
    with pytest.raises(NotPointedError) as err:
        cone_from_generators([(1, 0), (-1, 0)])
    assert err.value.line in ((1, 0), (-1, 0))
    # a plane of lines is named by the first vector of its canonical basis
    with pytest.raises(NotPointedError) as err:
        cone_from_generators([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)])
    assert err.value.line == (1, 0, 0)


def test_cone_from_generators_scalar_routes():
    # integer generators skip the Fraction route; rational, string and
    # mixed generators give the same cone, bools and floats are rejected
    ints = cone_from_generators([(2, 4, 0), (3, 0, 0)])
    assert ints.rays == ((1, 0, 0), (1, 2, 0))
    assert ints == cone_from_generators(
        [(Fraction(1, 3), Fraction(2, 3), 0), ["1/2", 0, 0]]
    )
    assert ints == cone_from_generators([[1, 2, 0], (1, 0, Fraction(0))])
    for bad in ([(True, 0)], [(1.0, 0)], [(0, 0)], [(Fraction(0), 0)], [(1, 0), (1,)]):
        with pytest.raises(InputError):
            cone_from_generators(bad)


@pytest.mark.parametrize(
    "normals", [[[1, 0], [0, 1], [1]], [[1, 0, 0], [0, 1]], [[1], [0, 1]]]
)
def test_cone_from_normals_rejects_ragged_normals(normals):
    # as cone_from_generators does: ragged normals used to give the
    # quadrant, or a NotPointedError, or a cone of the first length
    with pytest.raises(InputError):
        cone_from_normals(normals)


def test_cone_from_normals_scalar_routes():
    # integer normals skip the Fraction route; Fraction and string normals
    # in the same directions give the same cone, zero normals are ignored,
    # and bools, floats and unparsable strings are rejected
    ints = cone_from_normals([(1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, -1)])
    assert ints.rays == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    assert all(type(x) is int for v in ints.rays + ints.normals for x in v)
    assert ints == cone_from_normals(
        [
            (Fraction(1, 3), 0, 0),
            (0, Fraction(2), 0),
            ["0", "0", "3/4"],
            (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
            (0, 0, 0),
        ]
    )
    for bad in (
        [(True, 0)],
        [(1, 0), (0, True)],
        [(1, 0), (1.0, 1)],
        [(1, 0), ("x", 1)],
    ):
        with pytest.raises(InputError):
            cone_from_normals(bad)


def _contains_point_reference(cone, v):
    """Cone.contains_point by its definition, on Fraction vectors."""
    v = vec(v)
    return all(dot(vec(u), v) >= 0 for u in cone.normals)


_coord = st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
)


@st.composite
def _cones_and_points(draw):
    n = draw(st.integers(1, 4))
    gens = draw(
        st.lists(st.tuples(*[st.integers(-2, 3)] * n), min_size=1, max_size=5)
    )
    points = draw(st.lists(st.tuples(*[_coord] * n), min_size=1, max_size=6))
    # the generators and a sum of two lie in the cone, so both answers occur
    points += gens + [tuple(a + b for a, b in zip(gens[0], gens[-1]))]
    return gens, points


@settings(max_examples=200, deadline=None)
@given(_cones_and_points())
@example(([(1, 0), (1, 2)], [(1, 1), (Fraction(1, 2), Fraction(1, 2)), (0, -1)]))
def test_contains_point_matches_definition(case):
    gens, points = case
    gens = [g for g in gens if any(g)]
    assume(gens)
    try:
        cone = cone_from_generators(gens)
    except NotPointedError:
        assume(False)
    assert cone.dim == (rank(cone.rays) if cone.rays else 0)
    for p in points:
        assert cone.contains_point(p) == _contains_point_reference(cone, p)
        assert cone.contains_point(list(p)) == _contains_point_reference(cone, p)
    other = cone_from_generators(gens[:1])
    assert cone.contains_cone(other) == all(
        _contains_point_reference(cone, r) for r in other.rays
    )
    with pytest.raises(InputError):
        cone.contains_point(points[0] + (0,))
    with pytest.raises(InputError):
        cone.contains_point((1.5,) * cone.ambient_dim)


def test_cone_lower_dimensional():
    c = cone_from_generators([(1, 1, 0)])
    assert c.dim == 1
    assert c.contains_point((2, 2, 0))
    assert not c.contains_point((1, 2, 0))
    assert not c.contains_point((-1, -1, 0))


def test_intersect():
    a = quadrant()
    b = cone_from_generators([(1, 1), (-1, 1)])
    assert intersect(a, b).rays == ((0, 1), (1, 1))
    assert intersect(a, a) == a
    opp = cone_from_generators([(-1, -1)])
    assert intersect(a, opp).rays == ()


def test_caratheodory_reduce_pivot():
    out = caratheodory_reduce(V3, (1, 1, 1), (1, 1, 1))
    assert out == vec([0, 0, 2])
    # independent support is a fixed point
    assert caratheodory_reduce(V3, (1, 1, 1), out) == out
    assert caratheodory_reduce(V3, (1, 1, 1), (1, 1, 0)) == vec([1, 1, 0])
    assert caratheodory_reduce(V3, (1, 1, 1), (0, 0, 0)) == vec([0, 0, 0])


def test_caratheodory_reduce_rejects_ragged_generators():
    # a short generator used to raise a bare IndexError
    with pytest.raises(InputError, match="generator dimension mismatch"):
        caratheodory_reduce([[1, 0], [0]], (1, 1), (1, 1))


@pytest.mark.parametrize("gens", [[[1, 0], [0]], [[0], [1, 0]]])
def test_independent_subsets_rejects_ragged_generators(gens):
    # [[1, 0], [0]] used to raise a bare IndexError, and [[0], [1, 0]]
    # gave ((), (1,)), since the zero generator is dependent on its own
    with pytest.raises(InputError, match="generator dimension mismatch"):
        independent_subsets(gens)


def test_caratheodory_random_battery():
    rng = random.Random(77)
    matched = 0
    total = 0
    for _ in range(500):
        r = rng.randint(2, 6)
        n = rng.randint(1, 4)
        gens = random_generators(rng, r, n)
        costs = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(r)]
        lam = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(r)]
        target = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        before = sum(l * c for l, c in zip(lam, costs))
        out = caratheodory_reduce(gens, costs, lam)
        after = sum(l * c for l, c in zip(out, costs))
        assert all(x >= 0 for x in out)
        assert after <= before
        reproduced = tuple(
            sum(l * g[i] for l, g in zip(out, gens)) for i in range(n)
        )
        assert reproduced == target
        support = [gens[i] for i, x in enumerate(out) if x != 0]
        from conefan.linalg import rank

        assert rank(support) == len(support)
        assert caratheodory_reduce(gens, costs, out) == out
        optimum = representation_cost(gens, costs, target).value
        assert after >= optimum
        total += 1
        if after == optimum:
            matched += 1
    assert matched >= int(0.95 * total), (matched, total)


def test_independent_subsets():
    subs = independent_subsets(V3)
    assert len(subs) == 7
    assert () in subs and (0, 1, 2) not in subs
    assert independent_subsets([(1, 0), (2, 0)]) == ((), (0,), (1,))
    assert independent_subsets([]) == ((),)
    with pytest.raises(CapExceededError):
        independent_subsets([(1,)] * 13)


def test_linearity_fan_examples():
    f = linearity_fan(V3)
    assert [c.rays for c in f.maximal_cones] == [
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    ]
    f2 = linearity_fan([(1, 0), (0, 1)])
    assert [c.rays for c in f2.maximal_cones] == [((0, 1), (1, 0))]
    f3 = linearity_fan([(2, 4)])
    assert [c.rays for c in f3.maximal_cones] == [((1, 2),)]


def test_linearity_fan_covers_independent_cones():
    rng = random.Random(15)
    for _ in range(10):
        r = rng.randint(2, 5)
        n = rng.randint(2, 3)
        gens = random_generators(rng, r, n)
        f = linearity_fan(gens)
        f.check_valid()
        f.check_covers_hull()
        assert f.support_hull() == cone_from_generators(gens)
        # every full-dimensional independent-subset cone is a union of fan cones
        d = f.dim()
        for subset in independent_subsets(gens):
            if not subset:
                continue
            sub = cone_from_generators([gens[i] for i in subset])
            if sub.dim != d:
                continue
            covered = [c for c in f.maximal_cones if sub.contains_cone(c)]
            total = sum(1 for c in f.maximal_cones)
            inside = Fan.make(covered, f.ambient_dim)
            assert inside.maximal_cones, "independent cone contains no chamber"
            assert inside.support_hull() == sub


def test_normal_fan_examples():
    nf = normal_fan(price_polyhedron(V3, (1, 1, 1)))
    assert [c.rays for c in nf.maximal_cones] == [
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    ]
    assert nf.support_hull() == quadrant()
    whole = normal_fan(HPolyhedron((), (), 2))
    assert [c.rays for c in whole.maximal_cones] == [()]
    with pytest.raises(NotPointedSupportError):
        normal_fan(
            HPolyhedron.from_rows(equalities=[((1, 0), 1), ((0, 1), 1)])
        )
    with pytest.raises(EmptyPolyhedronError):
        normal_fan(HPolyhedron.make_empty(2))


def test_normal_fan_halfplane_support():
    half = HPolyhedron.from_rows([((1, 0), 0)])
    nf = normal_fan(half)
    assert [c.rays for c in nf.maximal_cones] == [((1, 0),)]


def test_common_refinement():
    split = linearity_fan(V3)
    quad_fan = linearity_fan([(1, 0), (0, 1)])
    cr = common_refinement([quad_fan, split])
    assert cr == split
    assert common_refinement([split]) == split
    fa = linearity_fan([(1, 0), (0, 1), (1, 2)])
    fb = linearity_fan([(1, 0), (0, 1), (2, 1)])
    cr2 = common_refinement([fa, fb])
    assert len(cr2.maximal_cones) == 3
    cr2.check_valid()
    cr2.check_covers_hull()
    with pytest.raises(InputError):
        common_refinement([split, linearity_fan([(1, 0), (1, 1)])])


def test_is_smooth():
    assert is_smooth(quadrant())
    assert not is_smooth(cone_from_generators([(1, 0), (1, 2)]))
    assert is_smooth(cone_from_generators(V3))
    assert is_smooth(origin_cone(3))
    assert is_smooth(cone_from_generators([(1, 1, 0)]))


def test_smooth_refine_examples():
    f = Fan.make([cone_from_generators([(1, 0), (1, 2)])], 2)
    sf = smooth_refine(f)
    assert [c.rays for c in sf.maximal_cones] == [
        ((1, 0), (1, 1)),
        ((1, 1), (1, 2)),
    ]
    already = linearity_fan(V3)
    assert smooth_refine(already) == already
    f3 = Fan.make([cone_from_generators([(1, 0), (1, 3)])], 2)
    sf3 = smooth_refine(f3)
    assert [c.rays for c in sf3.maximal_cones] == [
        ((1, 0), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 3)),
    ]
    with pytest.raises(CapExceededError):
        smooth_refine(Fan.make([origin_cone(5)], 5))


def test_smooth_refine_properties_2d():
    for a in range(1, 8):
        for b in range(1, 8):
            base = cone_from_generators([(1, 0), (a, b)])
            if base.dim != 2:
                continue
            f = Fan.make([base], 2)
            sf = smooth_refine(f)
            assert all(is_smooth(c) for c in sf.maximal_cones)
            assert refines(sf, f)
            sf.check_valid()
            sf.check_covers_hull()


def test_smooth_refine_3d():
    cones = [[(1, 0, 0), (0, 1, 0), (1, 1, k)] for k in (2, 3, 4, 5)]
    # multiplicity 65: 59 primitive subdivision candidates in the first round
    cones.append([(1, 0, 0), (0, 1, 0), (3, 5, 65)])
    for gens in cones:
        base = cone_from_generators(gens)
        f = Fan.make([base], 3)
        sf = smooth_refine(f)
        assert all(is_smooth(c) for c in sf.maximal_cones)
        assert refines(sf, f)
        sf.check_valid()


def test_smooth_refine_non_simplicial():
    base = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert not base.is_simplicial
    sf = smooth_refine(Fan.make([base], 3))
    assert all(is_smooth(c) for c in sf.maximal_cones)
    assert refines(sf, Fan.make([base], 3))
    sf.check_valid()
    sf.check_covers_hull()


def test_refines():
    split = linearity_fan(V3)
    quad_fan = Fan.make([quadrant()], 2)
    assert refines(split, quad_fan)
    assert not refines(quad_fan, split)
    assert refines(split, split)


def test_is_cost_linear_on():
    split = cone_from_generators([(1, 0), (1, 1)])
    assert is_cost_linear_on(V3, (1, 1, 1), split)
    assert not is_cost_linear_on(V3, (1, 1, 1), quadrant())
    assert is_cost_linear_on(V3, (0, 0, 0), quadrant())


def test_linearity_holds_on_every_chamber():
    rng = random.Random(4)
    gen_sets = [
        V3,
        [(1, 0), (0, 1), (1, 2), (2, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(2, 1), (1, 2)],
        [(1, 1), (1, 3), (3, 1)],
    ]
    for gens in gen_sets:
        fan = linearity_fan(gens)
        for _ in range(12):
            costs = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in gens
            )
            for cone in fan.maximal_cones:
                assert is_cost_linear_on(gens, costs, cone)


def test_cross_construction_refinement():
    rng = random.Random(6)
    gen_sets = [V3, [(1, 0), (0, 1), (1, 2)], [(1, 0), (1, 1), (1, 3)]]
    for gens in gen_sets:
        fan = linearity_fan(gens)
        for _ in range(8):
            costs = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in gens
            )
            nf = normal_fan(price_polyhedron(gens, costs))
            assert nf.support_hull() == cone_from_generators(gens)
            gen_rays = {cone_from_generators([g]).rays[0] for g in gens}
            for c in nf.maximal_cones:
                for r in c.rays:
                    assert r in gen_rays
            assert refines(fan, nf)


def test_fan_validity_exhaustive():
    fans = [
        linearity_fan(V3),
        linearity_fan([(1, 0), (0, 1), (1, 2), (2, 1)]),
        normal_fan(price_polyhedron(V3, (1, 1, 1))),
        smooth_refine(Fan.make([cone_from_generators([(1, 0), (2, 5)])], 2)),
    ]
    for f in fans:
        f.check_valid()
        f.check_covers_hull()


def test_is_face():
    c = quadrant()
    ray = cone_from_generators([(1, 0)])
    assert is_face(ray, c)
    assert is_face(origin_cone(2), c)
    assert is_face(c, c)
    diag = cone_from_generators([(1, 1)])
    assert not is_face(diag, c)


def test_smooth_refine_shared_face_subdivided_consistently():
    # two cones glued along a non-smooth 2-face; the subdivision point lies
    # on the shared face, so both incident cones must split
    upper = cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 0, 1)])
    lower = cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 0, -1)])
    f = Fan.make([upper, lower], 3)
    f.check_valid()
    sf = smooth_refine(f)
    assert all(is_smooth(c) for c in sf.maximal_cones)
    assert len(sf.maximal_cones) == 4
    assert refines(sf, f)
    sf.check_valid()


# simplicial cones that are not full-dimensional, of multiplicity 2; on
# their first independent coordinates the rays have determinant 4, so half
# of those cosets are not lattice points of Z^4
LOW_DIM_CONES = [
    [(1, 0, 0, 0), (1, 4, 6, 0)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 4, 6)],
]


@st.composite
def simplicial_cones(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    rays = draw(
        st.lists(
            st.tuples(*[st.integers(-4, 4)] * n), min_size=k, max_size=k
        )
    )
    assume(rank(rays) == k)
    # keep the reference scan's bounding box small enough to be quick
    box = 1
    for i in range(n):
        box *= sum(abs(r[i]) for r in rays) + 1
    assume(box <= 3000)
    return cone_from_generators(rays)


@settings(max_examples=150, deadline=None)
@given(simplicial_cones())
@example(cone_from_generators([(1, 0), (1, 2)]))
@example(cone_from_generators([(3, -4)]))
@example(cone_from_generators([(2, -1, 3), (-1, 4, 2)]))
@example(cone_from_generators(LOW_DIM_CONES[0]))
@example(cone_from_generators(LOW_DIM_CONES[1]))
@example(cone_from_generators([(1, 0, 0), (0, 1, 0), (3, 5, 17)]))
def test_parallelepiped_points_match_box_scan(cone):
    assert cone.is_simplicial
    assert fans._parallelepiped_points(cone) == parallelepiped_points_reference(
        cone
    )


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0), (1, 7)],
        [(2, -1), (-1, 4)],
        [(1, 0, 0), (0, 1, 0), (3, 5, 17)],
        [(1, 0, 0), (0, 1, 0), (-1, 2, 5)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 9)],
        [(2, 1, 0)],
    ]
    + LOW_DIM_CONES,
)
def test_parallelepiped_lattice_points_count_multiplicity(gens):
    # the half-open parallelepiped holds one point per coset of the rays'
    # lattice in the saturated one, the origin included
    cone = cone_from_generators(gens)
    points = parallelepiped_lattice_points_reference(cone)
    assert len(points) == cone.multiplicity() - 1


SMOOTH_PARITY_CONES = (
    [[(1, 0), (a, b)] for a in range(1, 8) for b in range(1, 8)]
    + [
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 2, 4)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 5)],
        [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (3, 5, 17)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 9)],
        [(1, 0, 0), (0, 1, 0), (3, 5, 65)],
    ]
    + LOW_DIM_CONES
)


def test_smooth_refine_matches_box_scan_refinement(monkeypatch):
    fans_in = []
    for gens in SMOOTH_PARITY_CONES:
        base = cone_from_generators(gens)
        fans_in.append(Fan.make([base], base.ambient_dim))
    refined = [smooth_refine(f) for f in fans_in]
    monkeypatch.setattr(
        fans, "_parallelepiped_points", parallelepiped_points_reference
    )
    for f, got in zip(fans_in, refined):
        assert smooth_refine(f) == got, f.maximal_cones[0].rays


def test_linearity_fan_lower_dimensional_support():
    gens = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
    f = linearity_fan(gens)
    assert [c.rays for c in f.maximal_cones] == [
        ((0, 1, 1), (1, 1, 2)),
        ((1, 0, 1), (1, 1, 2)),
    ]
    f.check_valid()
    for cone in f.maximal_cones:
        assert is_cost_linear_on(gens, (1, 1, 1), cone)
        assert every_cost_linear_on(gens, cone)
    whole = cone_from_generators(gens)
    assert not is_cost_linear_on(gens, (1, 3, 2), whole)
    assert not every_cost_linear_on(gens, whole)
    # a ray inside the support is a lower-dimensional chamber
    assert every_cost_linear_on(gens, cone_from_generators([(1, 1, 2)]))


def test_linearity_fan_of_a_ray_comes_before_the_generator_cap():
    # a support of dimension 1 is its own fan, returned before the cap on
    # generators is checked, so 13 collinear generators pass; 14 that span
    # a plane are refused before any basis is enumerated
    collinear = [(k, 2 * k, 0) for k in range(1, 14)]
    assert linearity_fan(collinear) == Fan.make([cone_from_generators([(1, 2, 0)])], 3)
    with pytest.raises(CapExceededError, match="capped at 12 generators"):
        linearity_fan(collinear + [(1, 0, 0)])


def test_common_refinement_three_fans_preserves_support():
    fans = [
        linearity_fan([(1, 0), (0, 1), (1, 1)]),
        linearity_fan([(1, 0), (0, 1), (1, 2)]),
        linearity_fan([(1, 0), (0, 1), (2, 1)]),
    ]
    cr = common_refinement(fans)
    support = fans[0].support_pair()
    assert cr.support_pair() == support
    for f in fans:
        assert f.support_pair() == support
        assert refines(cr, f)
    assert len(cr.maximal_cones) == 4
    cr.check_valid()
    cr.check_covers_hull()


@st.composite
def _costs_and_cones(draw):
    n = draw(st.integers(2, 3))
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * n).filter(any),
            min_size=2,
            max_size=5,
        )
    )
    r = len(gens)
    costs = draw(
        st.lists(
            st.builds(Fraction, st.integers(0, 9), st.integers(1, 3)),
            min_size=r,
            max_size=r,
        )
    )
    # rays are nonnegative combinations of the generators, so the cone
    # lies in cone(generators)
    combos = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=r, max_size=r).filter(any),
            min_size=1,
            max_size=n + 1,
        )
    )
    rays = [
        tuple(sum(l * g[k] for l, g in zip(c, gens)) for k in range(n))
        for c in combos
    ]
    return gens, costs, rays, draw(st.integers(0, 1000))


@settings(max_examples=150, deadline=None)
@given(_costs_and_cones())
@example((V3, [1, 1, 1], [(1, 0), (0, 1)], 0))
@example((V3, [1, 1, 1], [(1, 0), (1, 1)], 0))
def test_is_cost_linear_on_matches_sampled_oracle(case):
    gens, costs, rays, seed = case
    cone = cone_from_generators(rays)
    exact = is_cost_linear_on(gens, costs, cone)
    # the oracle tests the ray sum first, so it sees a bend exactly when
    # the exact check does; its random combinations never add one
    assert exact == is_cost_linear_on_sampled(gens, costs, cone, seed=seed)
    if every_cost_linear_on(gens, cone):
        assert exact


def test_straddling_chamber_passes():
    sigma = cone_from_generators([(0, 0, 1), (-3, 3, 1), (2, -4, 1)])
    assert every_cost_linear_on(STRADDLE_GENS, sigma)
    # cone(B) for B = the first three generators meets sigma only in the
    # ray (0, 0, 1), yet every facet normal of cone(B) is positive on a
    # ray of sigma: no facet normal separates them, so the "some facet
    # normal is <= 0 on sigma" shortcut would wrongly fail this chamber
    basic = cone_from_generators(STRADDLE_GENS[:3])
    assert intersect(sigma, basic).dim == 1
    assert all(
        any(dot(u, r) > 0 for r in sigma.rays) for u in basic.facet_normals()
    )
    rng = random.Random(9)
    for seed in range(20):
        costs = tuple(
            Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in STRADDLE_GENS
        )
        assert is_cost_linear_on(STRADDLE_GENS, costs, sigma)
        assert is_cost_linear_on_sampled(STRADDLE_GENS, costs, sigma, seed=seed)


def _witness_cost(gens, basis):
    """1 on the basis and M = 1 + max(0, l_B(g) for g off the basis)
    elsewhere, where l_B is the linear function that is 1 on the basis;
    then the minimum cost equals l_B on cone(B) and exceeds it off
    cone(B), so it bends on every cone that cone(B) straddles."""
    n = len(gens[0])
    cols = tuple(tuple(Fraction(gens[i][k]) for i in basis) for k in range(n))
    lifts = [sum(linear_solve(cols, vec(g)).particular) for g in gens]
    top = 1 + max([0] + [lifts[j] for j in range(len(gens)) if j not in basis])
    return tuple(Fraction(1) if j in basis else top for j in range(len(gens)))


def _straddling_bases(gens, cell):
    """Bases B of span(gens), by index, with cone(B) neither containing
    the cell nor meeting it in lower dimension."""
    d = rank(gens)
    for subset in independent_subsets(gens):
        if len(subset) == d:
            basic = cone_from_generators([gens[i] for i in subset])
            if not basic.contains_cone(cell):
                if intersect(cell, basic).dim == cell.dim:
                    yield subset


def test_chamber_check_failures_have_bending_witnesses():
    # plain cones and normal-fan cells of full support dimension: a FAIL
    # must be exact, so every straddling basis gives a cost that bends
    rng = random.Random(21)
    failures = 0
    for _ in range(12):
        while True:
            n = rng.randint(2, 3)
            gens = random_generators(rng, rng.randint(n + 1, 5), n)
            if rank(gens) == n:
                break
        cells = [cone_from_generators(gens)] + [
            cone_from_generators([gens[i] for i in subset])
            for subset in independent_subsets(gens)
            if len(subset) == n
        ]
        for _ in range(3):
            costs = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in gens
            )
            cells += normal_fan(price_polyhedron(gens, costs)).maximal_cones
        for cell in cells:
            if cell.dim != n:
                continue
            bases = list(_straddling_bases(gens, cell))
            assert every_cost_linear_on(gens, cell) == (not bases)
            if not bases:
                assert is_cost_linear_on(gens, costs, cell)
            for basis in bases:
                failures += 1
                witness = _witness_cost(gens, basis)
                assert not is_cost_linear_on(gens, witness, cell)
    assert failures >= 100


def test_linearity_and_smooth_fan_cones_pass_chamber_check():
    gen_sets = [
        V3,
        [(1, 0), (0, 1), (1, 2), (2, 1)],
        [(1, 0), (1, 3), (2, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(1, 0, 1), (0, 1, 1), (1, 1, 2)],
    ]
    for gens in gen_sets + [STRADDLE_GENS]:
        fan = linearity_fan(gens)
        for f in (fan, smooth_refine(fan)):
            for cone in f.maximal_cones:
                assert every_cost_linear_on(gens, cone), (gens, cone.rays)


def test_every_cost_linear_on_edge_cases():
    assert every_cost_linear_on(V3, origin_cone(2))
    with pytest.raises(NotInConeError):
        every_cost_linear_on(V3, cone_from_generators([(1, -1)]))
    with pytest.raises(CapExceededError):
        every_cost_linear_on([(1, k) for k in range(13)], quadrant())
    # the cap itself, 12 generators, is allowed
    chamber = cone_from_generators([(1, 0), (1, 1)])
    assert every_cost_linear_on([(1, k) for k in range(12)], chamber)
    assert not every_cost_linear_on(V3, quadrant())


# The rank-3 six-generator set whose wall arrangement has 34 chambers, and
# a planar support in 3-space (support dimension 2 < 3).
SIX_GENS = [(2, 1, 4), (0, 2, 0), (0, 0, 4), (0, 3, 1), (3, 0, 4), (1, 3, 3)]
PLANAR_GENS = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 0)]


def _linearity_fan_cases():
    cases = [
        SIX_GENS,
        PLANAR_GENS,
        STRADDLE_GENS,
        V3,
        # repeated and collinear generators
        [(1, 0), (2, 0), (1, 0), (0, 1), (1, 1), (3, 3)],
        [(1, 1, 0), (2, 2, 0), (1, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)],
        # a support of dimension 3 in 4-space
        [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0), (1, 3, 4, 0)],
        # rational and string entries
        [(Fraction(1, 2), 0, 1), (0, 1, 1), ("1", "1", "2"), (1, 1, 1)],
    ]
    rng = random.Random(41)
    for n, top in ((2, 6), (3, 6), (4, 5)):
        for _ in range(6):
            gens = random_generators(rng, rng.randint(2, top), n, hi=3)
            cases.append(gens)
            # the same set on a hyperplane: last coordinate = sum of the rest
            cases.append([g[:-1] + (sum(g[:-1]),) for g in gens if any(g[:-1])])
    return cases


def test_linearity_fan_matches_reference():
    # cutting only the crossed chambers, and skipping the coordinate round
    # trip when the support is full-dimensional, must give the same fan as
    # cutting every chamber and always mapping back
    split = 0
    for gens in _linearity_fan_cases():
        got = linearity_fan(gens)
        assert got == linearity_fan_reference(gens), gens
        split += len(got.maximal_cones) > 1
    assert split >= 20
    assert len(linearity_fan(SIX_GENS).maximal_cones) == 34
    assert len(linearity_fan(PLANAR_GENS).maximal_cones) == 4


@st.composite
def _crossed_chambers(draw):
    """A full-dimensional cone in 2-4 dimensions and a primitive cut that
    crosses it.  The first coordinate of every generator is positive, so
    the cone is pointed; the cut is normal to n - 1 vectors, the first
    `on` of them rays of the cone, which then lie on the cut."""
    n = draw(st.integers(2, 4))
    vectors = st.tuples(st.integers(1, 3), *[st.integers(-3, 3)] * (n - 1))
    gens = draw(st.lists(vectors, min_size=n, max_size=n + 3))
    assume(rank(gens) == n)
    sigma = cone_from_generators(gens)
    on = draw(st.integers(0, min(n - 2, len(sigma.rays))))
    picked = draw(st.permutations(sigma.rays))[:on]
    rest = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n - 1 - on, max_size=n - 1 - on)
    )
    rows = list(picked) + rest
    assume(rank(rows) == n - 1)
    u = primitive_direction(kernel_basis(rows)[0])
    sides = [idot(u, r) for r in sigma.rays]
    assume(min(sides) < 0 < max(sides))
    return sigma, u


@settings(max_examples=200, deadline=None)
@given(_crossed_chambers())
# a square cone cut through two opposite rays, and between them
@example((cone_from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]), (1, 0, 0)))
@example((cone_from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]), (1, 1, 0)))
# a simplex in 4-space cut through two of its rays
@example((cone_from_generators([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]), (0, 0, 1, -1)))
# a cube's cone in 4-space, whose rays are not in general position
@example(
    (
        cone_from_generators(
            [(1, a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        ),
        (0, 1, 1, 0),
    )
)
def test_split_matches_the_double_descriptions_of_both_halves(case):
    # one double-description step on the chamber's own rays and facets
    # gives each half exactly as a double description of its normals does
    sigma, u = case
    sides = [idot(u, r) for r in sigma.rays]
    mu = tuple(-x for x in u)
    plus, minus = fans._split(sigma, u, sides)
    assert plus == cone_from_normals(sigma.normals + (u,))
    assert minus == cone_from_normals(sigma.normals + (mu,))
    assert plus.dim == minus.dim == sigma.ambient_dim


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=7
        )
    )
)
@example([(1, 0), (0, 1), (1, 1)])
@example([(2, 0, 0), (0, 3, 0), (1, 1, 0)])  # a plane in 3-space
@example([(0, 0), (0, 0)])
@example([(4, 2)])
def test_cut_frame_matches_the_minor_loop(gens):
    # each cut read off a basis adjugate's rows is the primitive normal of
    # a hyperplane spanned by k - 1 generators, and every such hyperplane
    # is read: the same cuts as the signed (k - 1)-minors give, on the
    # same frame, for any integer generators
    echelon, frame = int_echelon(gens)
    assert tuple(frame) == frame_reference(gens)
    assert fans._cut_frame(_basis_table(gens)) == (
        echelon,
        frame,
        cut_normals_reference(gens),
    )


def test_stellar_score_matches_trial_fans(monkeypatch):
    # every candidate smooth_refine scores, in every round, on the smooth
    # refinement families, scores as its trial subdivision's worst new cone
    real = fans._stellar_score
    scored = 0

    def checked(fan, x, target):
        nonlocal scored
        scored += 1
        got = real(fan, x, target)
        assert got == stellar_score_reference(fan, x), (fan.maximal_cones, x)
        return got

    monkeypatch.setattr(fans, "_stellar_score", checked)
    for gens in SMOOTH_PARITY_CONES:
        base = cone_from_generators(gens)
        smooth_refine(Fan.make([base], base.ambient_dim))
    assert scored >= 300


@st.composite
def simplicial_fans(draw):
    """Pulling triangulations of linearity fans of a few small generators."""
    n = draw(st.integers(2, 3))
    gens = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=2, max_size=4
        )
    )
    fan = linearity_fan(gens)
    cones = [t for c in fan.maximal_cones for t in fans._pull_triangulate(c)]
    return Fan.make(cones, n)


@settings(max_examples=40, deadline=None)
@given(simplicial_fans())
@example(Fan.make([cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 5)])], 3))
@example(
    Fan.make(
        [
            cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 0, 1)]),
            cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 0, -1)]),
        ],
        3,
    )
)
def test_stellar_score_matches_trial_fans_on_random_fans(fan):
    for c in fan.maximal_cones:
        if is_smooth(c):
            continue
        for x in fans._parallelepiped_points(c):
            assert fans._stellar_score(fan, x, c) == stellar_score_reference(fan, x)


def _star_is_contains_point(fan, x, target):
    """Whether x's support face in target picks out exactly the cones of
    the fan that contain x."""
    face = fans._support_face(target, x)
    return [face.issubset(c.rays) for c in fan.maximal_cones] == [
        c.contains_point(x) for c in fan.maximal_cones
    ]


def test_star_lookup_matches_contains_point(monkeypatch):
    # every candidate smooth_refine scores, in every round, on the smooth
    # refinement families: the cones holding its support face in the
    # target are the cones that contain it
    real = fans._stellar_score
    scored = 0

    def checked(fan, x, target):
        nonlocal scored
        scored += 1
        assert _star_is_contains_point(fan, x, target), (fan.maximal_cones, x)
        return real(fan, x, target)

    monkeypatch.setattr(fans, "_stellar_score", checked)
    for gens in SMOOTH_PARITY_CONES:
        base = cone_from_generators(gens)
        smooth_refine(Fan.make([base], base.ambient_dim))
    assert scored >= 300


@settings(max_examples=40, deadline=None)
@given(simplicial_fans())
@example(
    Fan.make(
        [
            cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 0, 1)]),
            cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 0, -1)]),
        ],
        3,
    )
)
def test_star_lookup_matches_contains_point_on_random_fans(fan):
    for c in fan.maximal_cones:
        if is_smooth(c):
            continue
        for x in fans._parallelepiped_points(c):
            assert _star_is_contains_point(fan, x, c), (c.rays, x)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-5, 5)] * d), min_size=d, max_size=d
        )
    )
)
@example([(1, 0), (0, 1)])
@example([(0, 1), (1, 0)])  # sorted, these columns have determinant -1
@example([(-3,)])
@example([(2, -1, 3), (-1, 4, 2), (0, 0, -1)])
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 9)])
def test_closed_form_simplicial_cone_matches_double_description(vectors):
    d = len(vectors)
    assume(int_adjugate([list(col) for col in zip(*vectors)])[1] != 0)
    rays = tuple(sorted(primitive_int_vector(v) for v in vectors))
    got = fans._cone_from_primitive_rays(rays, d)
    assert got == cone_from_primitive_rays_reference(rays, d)
    assert got.rays == rays and len(got.normals) == d
    # the cone keeps the adjugate and determinant of its rays, and reads
    # off them what a cone with no stored frame finds by eliminating
    assert got._frame == int_adjugate([list(col) for col in zip(*rays)])
    assert got.lattice_det == lattice_det_reference(rays)
    bare = fans.Cone(got.rays, got.normals, d)
    assert bare == got and hash(bare) == hash(got) and repr(bare) == repr(got)
    assert bare._frame is None
    assert (got.dim, got.lattice_det, got.multiplicity(), is_smooth(got)) == (
        bare.dim,
        bare.lattice_det,
        bare.multiplicity(),
        is_smooth(bare),
    )
    assert got._ray_frame == bare._ray_frame


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=d, max_size=d),
            st.tuples(*[st.integers(-5, 5)] * d),
        )
    )
)
@example(([(1, 0, 0), (0, 1, 0), (3, 5, 17)], (1, 2, 6)))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 9)], (1, 1, 1, 2)))
# x sorts to the far end, past an odd number of rays
@example(([(0, 0, 1), (0, 1, 0), (1, 0, 0)], (-1, 2, 3)))
def test_replaced_ray_updates_the_stored_frame(case):
    # putting x in place of a ray with nonzero weight gives the cone and
    # the adjugate that the new rays give from scratch, whatever the
    # sorted place of x
    vectors, x = case
    d = len(vectors)
    assume(int_adjugate([list(col) for col in zip(*vectors)])[1] != 0)
    assume(any(x))
    x = primitive_int_vector(x)
    c = fans._cone_from_primitive_rays(
        tuple(sorted({primitive_int_vector(v) for v in vectors})), d
    )
    assume(x not in c.rays)
    lam = fans._stellar_weights(c, x)
    for i, t in enumerate(lam):
        if t == 0:
            continue
        rest = c.rays[:i] + c.rays[i + 1 :]
        got = fans._replace_ray(c, i, x, lam)
        want = fans._cone_from_primitive_rays(tuple(sorted(rest + (x,))), d)
        assert got == want
        assert got._frame == want._frame == int_adjugate(
            [list(col) for col in zip(*got.rays)]
        )


def test_smoothed_cones_keep_the_adjugate_of_their_rays():
    # every cone of every smooth refinement family that stores a frame
    # stores the adjugate and determinant of its rays
    stored = 0
    for gens in SMOOTH_PARITY_CONES:
        base = cone_from_generators(gens)
        for c in smooth_refine(Fan.make([base], base.ambient_dim)).maximal_cones:
            if c._frame is not None:
                stored += 1
                assert c._frame == int_adjugate([list(col) for col in zip(*c.rays)])
    assert stored >= 200


def test_lower_dimensional_simplicial_cone_stores_no_frame():
    # its frame is the coordinates (1, 2), which only the echelon finds
    cone = cone_from_generators([(0, 1, 0), (0, 2, 5)])
    assert cone._frame is None
    assert cone.dim == 2 and cone.is_simplicial
    assert cone.multiplicity() == lattice_det_reference(cone.rays) == 5
    assert cone._ray_frame[0] == [1, 2]


def test_smooth_refine_caps_multiplicity():
    cap = fans.SMOOTH_REFINE_MULTIPLICITY_CAP
    # the CI cone (65) and the benchmark's heaviest (17) stay far below it
    assert cap > 65
    at_cap = cone_from_generators([(1, 0), (1, cap)])
    assert len(fans._parallelepiped_points(at_cap)) == cap - 1
    over = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, cap + 1)])
    with pytest.raises(CapExceededError, match=f"has multiplicity {cap + 1}"):
        smooth_refine(Fan.make([over], 3))
    # this linearity fan has chambers of multiplicity up to 135,200 (and a
    # triangulated one of 3,070,080), whose group listing ran out of memory
    with pytest.raises(CapExceededError, match="capped at multiplicity"):
        smooth_refine(linearity_fan(HUGE_MULTIPLICITY_GENS))


def test_smooth_refine_budget_stops_near_cap_cones_early():
    # multiplicity 4096 is at the cap, and the refinement's scoring would
    # visit millions of cones (5.95M before the 512-subdivision budget
    # stopped it, after 24 s); counted visits stop it within seconds
    cone = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 4096)])
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="cones in scoring"):
        smooth_refine(Fan.make([cone], 3))
    assert time.perf_counter() - start < 10


HUGE_MULTIPLICITY_GENS = [
    [3, Fraction(1, 3), 1],
    [0, 2, 1],
    [Fraction(2, 3), Fraction(1, 2), 0],
    [Fraction(3, 2), 0, 2],
    [Fraction(2, 3), 2, 0],
]
