import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, prod

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from helpers import (
    STRADDLE_GENS,
    cone_checks_reference,
    expand_degree_reference,
    minimalize_reference,
    newton_polyhedron_reference,
    np_membership_set,
    orthant_hull_reference,
    random_graded_system,
    representations_reference,
)

from conefan.errors import InputError, NotInConeError, NotPointedError
from conefan.fans import (
    Fan,
    _cut_frame,
    cone_from_generators,
    every_cost_linear_on,
    linearity_fan,
    smooth_refine,
)
from conefan.graded import (
    GradedSystem,
    MonomialIdeal,
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
from conefan.linalg import _basis_table
from conefan.polyhedra import (
    UNBOUNDED,
    contains,
    minimize_linear,
    minkowski_sum,
    same_point_set,
    scale_polyhedron,
    vrep_to_h,
)
from conefan.rational import PLUS_INFINITY, is_finite, vec

MI = MonomialIdeal.from_exponents


def worked_system():
    return GradedSystem.create(
        2,
        2,
        [(1, 0), (0, 1), (1, 1)],
        [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1), (2, 0)])],
    )


def halfstep_system():
    # second generator reaches exponent space twice as efficiently per
    # degree, so the limit polyhedron of the primitive degree has
    # half-integral vertices and the stabilizing exponent is 2
    return GradedSystem.create(
        1,
        2,
        [(1,), (2,)],
        [MI(2, [(2, 0), (0, 2)]), MI(2, [(1, 0), (0, 1)])],
    )


def bench_system():
    # the 3x3 system the benchmark's verify workloads run on
    return GradedSystem.create(
        3,
        3,
        [(1, 3, 1), (3, 1, 1), (1, 3, 3)],
        [
            MI(3, [(2, 3, 2), (3, 1, 0)]),
            MI(3, [(0, 1, 4)]),
            MI(3, [(2, 1, 4), (3, 0, 3), (3, 2, 0)]),
        ],
    )


def trivial_system():
    return GradedSystem.create(1, 1, [(1,)], [MI(1, [(1,)])])


def zerogen_system():
    return GradedSystem.create(
        2,
        2,
        [(1, 0), (0, 1), (1, 1)],
        [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MonomialIdeal.zero(2)],
    )


def test_ideal_arithmetic():
    x = MI(2, [(1, 0)])
    y = MI(2, [(0, 1)])
    assert ideal_product(x, y).gens == ((1, 1),)
    sq = ideal_power(MI(2, [(2, 0), (0, 3)]), 2)
    assert sq.gens == ((0, 6), (2, 3), (4, 0))
    assert ideal_power(x, 0).is_unit
    assert ideal_sum(MI(2, [(2, 0)]), MI(2, [(3, 0)])).gens == ((2, 0),)
    assert ideal_product(x, MonomialIdeal.zero(2)).is_zero


@st.composite
def exponent_lists(draw):
    n = draw(st.integers(1, 5))
    # a narrow entry range forces ties in every coordinate and duplicates
    top = draw(st.integers(0, 6))
    point = st.tuples(*[st.integers(0, top)] * n)
    return n, draw(st.lists(point, max_size=60))


@given(exponent_lists())
@example((3, []))
@example((3, [(2, 0, 1)]))
@example((1, [(4,), (2,), (2,), (7,)]))
@example((2, [(1, 2), (1, 2), (0, 5), (0, 5), (3, 0)]))
@example((3, [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1)]))
@example((2, [(2, 2), (2, 3), (3, 2), (2, 2), (0, 4), (4, 0), (4, 4)]))
def test_minimal_generators_match_reference(case):
    n, exponents = case
    assert MI(n, exponents).gens == minimalize_reference(exponents)


@pytest.mark.parametrize("m", [(2, 6, 4), (8, 16, 8)])
def test_ideal_product_matches_reference_at_bench_scale(m):
    # m is a ray of the bench system's fan times its stabilizing exponent;
    # the raw product sums carry heavy duplication and coordinate ties
    I = expand_degree(bench_system(), m)
    A, B = ideal_power(I, 2), ideal_power(I, 3)
    sums = [tuple(a + b for a, b in zip(g, h)) for g in A.gens for h in B.gens]
    assert len(set(sums)) < len(sums)
    assert ideal_product(A, B).gens == minimalize_reference(sums)


def test_from_exponents_order_is_canonical():
    exponents = [(3, 0, 2), (1, 2, 2), (0, 4, 1), (1, 2, 3), (2, 1, 0), (0, 4, 1)]
    shuffled = exponents * 2
    random.Random(7).shuffle(shuffled)
    ideal = MI(3, sorted(set(exponents)))
    assert MI(3, shuffled) == ideal
    assert list(ideal.gens) == sorted(ideal.gens)


def test_bool_weights_and_exponents_rejected():
    # ivec takes ints only: True would otherwise pass for the weight 1
    with pytest.raises(InputError):
        weight_vector([True, 0])
    with pytest.raises(InputError):
        weight_valuation((0, True), MI(2, [(1, 0)]))
    with pytest.raises(InputError):
        MI(2, [(False, 1)])


def test_create_refuses_ideals_off_their_canonical_form():
    # an ideal built directly skips from_exponents, and no later step
    # checks it: a redundant or unsorted generator tuple, or a negative
    # exponent (which made verify fail deep in the LP on a negative cost),
    # is an input error when the system is made
    create = lambda ideal: GradedSystem.create(1, 2, [(1,)], [ideal])  # noqa: E731
    with pytest.raises(InputError, match=r"not its minimal generators \(\(1, 0\),\)"):
        create(MonomialIdeal(2, ((1, 1), (1, 0))))
    with pytest.raises(InputError, match=r"minimal generators \(\(0, 1\), \(1, 0\)\)"):
        create(MonomialIdeal(2, ((1, 0), (0, 1))))
    with pytest.raises(InputError, match="nonnegative"):
        create(MonomialIdeal(2, ((-1, 2),)))
    for ideal in (MI(2, [(1, 0), (0, 1)]), MonomialIdeal.zero(2), MonomialIdeal.unit(2)):
        assert create(ideal).ideals == (ideal,)


def test_newton_polyhedron():
    np1 = newton_polyhedron(MI(2, [(2, 0), (0, 2)]))
    assert set(np1.vertices) == {vec([2, 0]), vec([0, 2])}
    assert set(np1.rays) == {(1, 0), (0, 1)}
    assert newton_polyhedron(MonomialIdeal.unit(2)).vertices == (vec([0, 0]),)
    assert newton_polyhedron(MI(2, [(1, 0)])).vertices == (vec([1, 0]),)
    with pytest.raises(InputError):
        newton_polyhedron(MonomialIdeal.zero(2))


def test_newton_polyhedron_drops_interior_generators():
    np1 = newton_polyhedron(MI(2, [(2, 0), (0, 2), (1, 1)]))
    assert set(np1.vertices) == {vec([2, 0]), vec([0, 2])}


@st.composite
def nonzero_ideals(draw):
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 5)] * n)
    return MI(n, draw(st.lists(point, min_size=1, max_size=8)))


@given(nonzero_ideals())
@example(MonomialIdeal.unit(1))
@example(MonomialIdeal.unit(3))
@example(MI(2, [(2, 0), (0, 2), (1, 1)]))
def test_newton_routes_match_reference(I):
    # the direct orthant hull must give the canonical forms of the V-route
    ref = newton_polyhedron_reference(I)
    assert newton_polyhedron(I) == ref
    assert newton_hform(I) == vrep_to_h(ref)


@st.composite
def hull_point_sets(draw):
    n = draw(st.integers(1, 4))
    # a narrow range gives duplicates and dominated points; denominators
    # up to 4 give rational points like the vertices of a limit polyhedron
    if draw(st.booleans()):
        entry = st.integers(-2, 4)
    else:
        entry = st.builds(Fraction, st.integers(-6, 12), st.integers(1, 4))
    point = st.tuples(*[entry] * n)
    return n, draw(st.lists(point, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(hull_point_sets())
@example((1, [(0,)]))
@example((3, [(0, 0, 0)]))
@example((3, [(0, 0, 0), (0, 0, 0), (1, 2, 0)]))
@example((2, [(2, 0), (2, 0), (0, 2), (3, 1), (2, 2)]))
@example((2, [(Fraction(1, 2), 0), (0, Fraction(3, 2)), (1, 1)]))
@example((2, [(Fraction(4, 2), Fraction(0)), (2, 0), (0, 2)]))
def test_orthant_hull_matches_reference(case):
    # the integer-row hull must equal the V-route through VRepresentation
    # and vrep_to_h; it takes int points only, so a rational point set is
    # hulled as asymptotic_newton does it: scaled by the lcm L of its
    # denominators to integers, and the hull scaled back by 1/L
    from math import lcm

    from conefan.graded import _orthant_hull

    n, points = case
    expected = orthant_hull_reference(points, n)
    if all(type(x) is int for p in points for x in p):
        assert _orthant_hull(points, n) == expected
        return
    den = lcm(*(Fraction(x).denominator for p in points for x in p))
    scaled = [tuple(int(den * x) for x in p) for p in points]
    assert scale_polyhedron(_orthant_hull(scaled, n), Fraction(1, den)) == expected


@pytest.mark.parametrize(
    "points",
    [
        [(Fraction(1, 2),)],
        [(Fraction(2),)],
        [(2, 0), (0, Fraction(1))],
        [(0, 1), (1.0, 0)],
    ],
)
def test_orthant_hull_rejects_non_int_points(points):
    # a minimal point that is not all ints is an internal failure, even
    # when its value is integral
    from conefan.errors import InternalError
    from conefan.graded import _orthant_hull

    with pytest.raises(InternalError, match="not an integer point"):
        _orthant_hull(points, len(points[0]))


def _product_hull(parts, n):
    """The Newton polyhedron of a product of ideal powers as the tuple
    check builds it: the orthant hull of the minimal weighted Minkowski
    points of (integer vertex list, power) parts."""
    from conefan.graded import _minimalize, _minkowski_points, _orthant_hull

    return _orthant_hull(_minimalize(_minkowski_points(parts, n)), n)


@pytest.mark.parametrize("system", [worked_system(), bench_system()])
def test_weighted_minkowski_hform_matches_ideal_product(system):
    factors = list(zip(system.ideals, system._vertex_lists))
    for (I, u), (J, v) in combinations_with_replacement(factors, 2):
        for a in range(3):
            for b in range(3):
                expect = newton_hform(
                    ideal_product(ideal_power(I, a), ideal_power(J, b))
                )
                assert _product_hull([(u, a), (v, b)], system.ambient) == expect


def test_weighted_minkowski_hform_zero_factor():
    I = MI(2, [(1, 1), (2, 0)])
    J = MI(2, [(0, 3)])
    # a factor with power 0 contributes the unit ideal and is ignored
    got = _product_hull([(J.gens, 0), (I.gens, 2)], 2)
    assert got == newton_hform(ideal_power(I, 2))
    assert _product_hull([(J.gens, 0)], 2) == newton_hform(MonomialIdeal.unit(2))


def test_closure_equal():
    assert closure_equal(MI(2, [(2, 0), (0, 2), (1, 1)]), MI(2, [(2, 0), (0, 2)]))
    assert not closure_equal(MI(1, [(1,)]), MI(1, [(2,)]))
    I = MI(2, [(1, 2), (3, 0)])
    assert closure_equal(I, I)
    assert closure_equal(MonomialIdeal.zero(2), MonomialIdeal.zero(2))
    assert not closure_equal(MonomialIdeal.zero(2), MI(2, [(1, 1)]))


def test_closure_equal_against_lattice_oracle():
    rng = random.Random(123)
    agree = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        count = rng.randint(1, 4)
        I = MI(n, [[rng.randint(0, 6) for _ in range(n)] for _ in range(count)])
        J = MI(n, [[rng.randint(0, 6) for _ in range(n)] for _ in range(count)])
        if rng.random() < 0.3:
            # make closure-equal pairs likely: add an interior point to I
            J = ideal_sum(
                I,
                MI(n, [[min(6, e + 1) for e in I.gens[0]]]),
            )
        got = closure_equal(I, J)
        expect = np_membership_set(I, 30) == np_membership_set(J, 30)
        assert got == expect
        agree += 1
    assert agree == 200


def test_expand_degree_examples():
    sys_w = worked_system()
    assert expand_degree(sys_w, (1, 1)).gens == ((1, 1), (2, 0))
    assert expand_degree(sys_w, (0, 0)).is_unit
    assert expand_degree(sys_w, (-1, 0)).is_zero
    assert expand_degree(sys_w, (3, 1)).gens == expand_degree(sys_w, (3, 1)).gens


def test_expand_degree_matches_fresh_powers():
    # expand_degree squares each ideals_i^l from the powers already in its
    # table; the reference makes every factor with its own ideal_power
    rng = random.Random(23)
    for system in [bench_system(), halfstep_system()] + [
        random_graded_system(rng, allow_zero=True) for _ in range(30)
    ]:
        for _ in range(3):
            lam = [rng.randint(0, 6) for _ in system.degrees]
            m = tuple(
                sum(l * d[j] for l, d in zip(lam, system.degrees))
                for j in range(system.grading_rank)
            )
            assert expand_degree(system, m) == expand_degree_reference(system, m), m


def test_expand_degree_graded_compatibility():
    rng = random.Random(5)
    for system in (worked_system(), halfstep_system(), zerogen_system()):
        degrees = []
        for _ in range(6):
            lam = [rng.randint(0, 2) for _ in system.degrees]
            m = tuple(
                sum(l * d[j] for l, d in zip(lam, system.degrees))
                for j in range(system.grading_rank)
            )
            degrees.append(m)
        for m in degrees:
            for mp in degrees:
                a = expand_degree(system, m)
                b = expand_degree(system, mp)
                total = expand_degree(
                    system, tuple(x + y for x, y in zip(m, mp))
                )
                prod = ideal_product(a, b)
                if prod.is_zero:
                    continue
                assert total.contains_ideal(prod)


def test_weight_valuation():
    I = MI(2, [(1, 1), (2, 0)])
    assert weight_valuation((1, 1), I) == 2
    assert weight_valuation((1, 2), I) == 2
    assert weight_valuation((3, 4), MonomialIdeal.unit(2)) == 0
    assert weight_valuation((1, 1), MonomialIdeal.zero(2)) == PLUS_INFINITY
    assert weight_vector((2, 4)) == (1, 2)
    with pytest.raises(InputError):
        weight_vector((0, 0))
    with pytest.raises(InputError):
        weight_vector((-1, 2))
    # the weight is validated as asymptotic_valuation's is, also on the
    # zero ideal: a negative weight used to give the value -1
    for w in ((-1, 0), (0, 0), (1, 1, 1)):
        for ideal in (I, MonomialIdeal.zero(2)):
            with pytest.raises(InputError):
                weight_valuation(w, ideal)


def test_contains_exponent_checks_its_length():
    # a short exponent used to raise a bare IndexError, a long one to be
    # read on its first coordinates
    I = MI(2, [(1, 1), (2, 0)])
    assert I.contains_exponent((2, 1)) and not I.contains_exponent((1, 0))
    for e in ((2,), (2, 1, 0)):
        with pytest.raises(InputError):
            I.contains_exponent(e)


def test_asymptotic_valuation():
    sys_w = worked_system()
    assert asymptotic_valuation(sys_w, (1, 1), (1, 1)) == 2
    # linear in w: the weight is not made primitive
    assert asymptotic_valuation(sys_w, (2, 2), (1, 1)) == 4
    assert asymptotic_valuation(sys_w, (1, 1), (3, 0)) == 3
    assert asymptotic_valuation(sys_w, (0, 1), (2, 0)) == 0
    with pytest.raises(NotInConeError):
        asymptotic_valuation(sys_w, (1, 1), (-1, 0))
    assert asymptotic_valuation(sys_w, (1, 1), (0, 0)) == 0


@pytest.mark.parametrize(
    "w, message",
    [
        ((0, 0), "zero weight"),
        ((1,), "ambient"),
        ((1, 0, 0), "ambient"),
        ((-1, 0), "nonnegative"),
    ],
)
@pytest.mark.parametrize("m", [(0, 0), (1, 1)])
def test_asymptotic_valuation_rejects_bad_weights_before_any_lp(
    monkeypatch, w, message, m
):
    # the zero weight and a wrong-length weight used to give 0, and a
    # negative one failed inside the LP on its costs
    import conefan.graded as graded

    def no_lp(*args):
        raise AssertionError("an LP ran on an invalid weight")

    monkeypatch.setattr(graded, "representation_cost", no_lp)
    with pytest.raises(InputError, match=message):
        asymptotic_valuation(worked_system(), w, m)


@pytest.mark.parametrize(
    "system", [worked_system, bench_system, zerogen_system], ids=lambda f: f.__name__
)
def test_vertex_lists_are_newton_vertices(system):
    sys_ = system()
    assert len(sys_._vertex_lists) == len(sys_.ideals)
    for verts, I in zip(sys_._vertex_lists, sys_.ideals):
        if I.is_zero:
            assert verts == ()
            continue
        expect = newton_polyhedron(I).vertices
        assert verts == tuple(tuple(int(x) for x in v) for v in expect)
        assert all(type(x) is int for v in verts for x in v)


def test_graded_system_newton_vertices_need_the_dim_cap():
    # the Newton vertices are taken when the system is made, so an ambient
    # above the double description's cap fails there
    from conefan.errors import CapExceededError

    with pytest.raises(CapExceededError):
        GradedSystem.create(1, 9, [(1,)], [MI(9, [(1,) * 9])])
    zero = GradedSystem.create(1, 9, [(1,)], [MonomialIdeal.zero(9)])
    assert zero._vertex_lists == ((),)


def test_asymptotic_valuation_zero_ideal_exclusion():
    sys_z = zerogen_system()
    # the mixed degree is reachable through the two nonzero generators
    assert asymptotic_valuation(sys_z, (1, 1), (1, 1)) == 2
    only_zero = GradedSystem.create(
        1, 1, [(1,), (2,)], [MonomialIdeal.zero(1), MI(1, [(1,)])]
    )
    assert asymptotic_valuation(only_zero, (1,), (1,)) == Fraction(1, 2)


def test_asymptotic_limit_check():
    sys_w = worked_system()
    lc = asymptotic_limit_check(sys_w, (1, 1), (1, 1), 4)
    assert lc.lp_value == 2
    assert lc.sequence == (Fraction(2), Fraction(2), Fraction(2), Fraction(2))
    assert lc.consistent
    lc0 = asymptotic_limit_check(sys_w, (1, 1), (0, 0), 3)
    assert lc0.lp_value == 0 and all(t == 0 for t in lc0.sequence)

    single = GradedSystem.create(1, 2, [(1,)], [MI(2, [(2, 0), (0, 3)])])
    lc2 = asymptotic_limit_check(single, (3, 2), (1,), 6)
    assert lc2.lp_value == 6
    assert all(is_finite(t) and t >= 6 for t in lc2.sequence)
    assert min(lc2.sequence) == 6
    assert lc2.consistent


def test_asymptotic_limit_check_halfstep():
    sys_h = halfstep_system()
    lc = asymptotic_limit_check(sys_h, (1, 1), (1,), 8)
    assert lc.lp_value == Fraction(1, 2)
    assert lc.sequence[0] == 2  # degree 1 only reaches the square generator
    assert lc.sequence[1] == Fraction(1, 2)
    assert lc.consistent


def test_asymptotic_newton_worked():
    sys_w = worked_system()
    anp = asymptotic_newton(sys_w, (1, 1))
    direct = vrep_to_h(
        minkowski_sum(
            newton_polyhedron(MI(2, [(1, 1), (2, 0)])),
            newton_polyhedron(MonomialIdeal.unit(2)),
        )
    )
    assert same_point_set(anp, direct)
    assert same_point_set(asymptotic_newton(sys_w, (1, 0)), newton_hform(MI(2, [(1, 0)])))
    from conefan.polyhedra import scale_polyhedron

    assert asymptotic_newton(sys_w, (2, 0)) == scale_polyhedron(
        asymptotic_newton(sys_w, (1, 0)), 2
    )


def test_asymptotic_newton_support_function():
    rng = random.Random(17)
    for system in (worked_system(), halfstep_system()):
        for _ in range(6):
            lam = [rng.randint(0, 2) for _ in system.degrees]
            m = tuple(
                sum(l * d[j] for l, d in zip(lam, system.degrees))
                for j in range(system.grading_rank)
            )
            if all(x == 0 for x in m):
                continue
            anp = asymptotic_newton(system, m)
            for _ in range(6):
                w = tuple(rng.randint(0, 5) for _ in range(system.ambient))
                if all(x == 0 for x in w):
                    continue
                res = minimize_linear(anp, vec(w))
                assert res is not UNBOUNDED
                assert res.value == asymptotic_valuation(system, w, m)


def test_asymptotic_additivity_on_fan_cones():
    sys_w = worked_system()
    fan = linearity_fan(sys_w.degrees)
    rng = random.Random(3)
    for cone in fan.maximal_cones:
        rays = cone.rays
        for _ in range(5):
            w = tuple(rng.randint(0, 4) for _ in range(sys_w.ambient))
            if all(x == 0 for x in w):
                continue
            p = [rng.randint(0, 3) for _ in rays]
            q = [rng.randint(0, 3) for _ in rays]
            m1 = tuple(
                sum(a * r[j] for a, r in zip(p, rays)) for j in range(2)
            )
            m2 = tuple(
                sum(a * r[j] for a, r in zip(q, rays)) for j in range(2)
            )
            msum = tuple(a + b for a, b in zip(m1, m2))
            v1 = asymptotic_valuation(sys_w, w, m1)
            v2 = asymptotic_valuation(sys_w, w, m2)
            vs = asymptotic_valuation(sys_w, w, msum)
            assert vs == v1 + v2
    # negative control: additivity fails across the two maximal cones
    assert asymptotic_valuation(sys_w, (0, 1), (1, 1)) < asymptotic_valuation(
        sys_w, (0, 1), (1, 0)
    ) + asymptotic_valuation(sys_w, (0, 1), (0, 1))


def test_newton_polyhedron_multiplicative():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 3)
        I = MI(n, [[rng.randint(0, 5) for _ in range(n)] for _ in range(rng.randint(1, 3))])
        J = MI(n, [[rng.randint(0, 5) for _ in range(n)] for _ in range(rng.randint(1, 3))])
        lhs = newton_polyhedron(ideal_product(I, J))
        rhs = minkowski_sum(newton_polyhedron(I), newton_polyhedron(J))
        assert lhs == rhs


def test_stabilizing_exponent():
    sys_w = worked_system()
    fan = linearity_fan(sys_w.degrees)
    cert = stabilizing_exponent(sys_w, fan)
    assert cert.value == 1
    assert all(d == 1 for _, d in cert.per_ray)

    sys_t = trivial_system()
    cert_t = stabilizing_exponent(sys_t, Fan.make([sys_t.degree_cone()], 1))
    assert cert_t.value == 1

    sys_h = halfstep_system()
    cert_h = stabilizing_exponent(sys_h, Fan.make([sys_h.degree_cone()], 1))
    assert cert_h.value == 2
    assert cert_h.per_ray == (((1,), 2),)


def test_verify_worked_system():
    rep = verify_closure_identity(worked_system(), power_bound=4)
    assert rep.verified
    assert rep.exponent == 1
    assert len(rep.fan.maximal_cones) == 2
    assert all(c.passed for c in rep.cones)


def test_worked_report_holds_no_float():
    # exact values are ints, Fractions or their strings; int / int would
    # make a float, and the report must stay exact
    def walk(x):
        assert not isinstance(x, float), x
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    walk(verify_closure_identity(worked_system(), power_bound=4).to_dict())


def test_verify_trivial_system():
    rep = verify_closure_identity(trivial_system(), power_bound=4)
    assert rep.verified and rep.exponent == 1
    assert len(rep.per_ray) == 1


def _valuation_at(system, w, m, d):
    """v_w of the system's ideal in degree d * m."""
    return weight_valuation(w, expand_degree(system, tuple(d * x for x in m)))


def test_verify_adversarial_single_cone():
    rep = verify_closure_identity(worked_system(), power_bound=4, refine=False)
    assert not rep.verified
    failing = [
        t
        for c in rep.cones
        for t in c.checks
        if not (t.closure_ok and t.chain_ok)
    ]
    assert failing
    witnessed = [t for t in failing if t.witness_weight is not None]
    assert witnessed
    t = witnessed[0]
    w = t.witness_weight
    assert _valuation_at(worked_system(), w, t.degree, rep.exponent) == t.left_value
    # the right value is the valuation of the product of the ray ideals
    right = sum(
        pi * _valuation_at(worked_system(), w, e, rep.exponent)
        for pi, e in zip(t.powers, rep.cones[0].rays)
    )
    assert right == t.right_value
    assert t.left_value != t.right_value


@pytest.mark.parametrize("refine", [True, False])
def test_verify_report_does_not_depend_on_seed(refine):
    def report(seed):
        out = verify_closure_identity(
            worked_system(), power_bound=3, refine=refine, seed=seed
        ).to_dict()
        assert out["config"].pop("seed") == seed
        return out

    first = report(0)
    # refine=True verifies, the single-cone debug run falsifies
    assert first["verified"] is refine
    assert report(1) == first
    assert report(7) == first


def _note_weight(note, prefix):
    """The weight a chain note names, given the note's expected prefix."""
    match = re.fullmatch(re.escape(prefix) + r" at weight \((.*)\)", note)
    assert match, note
    return tuple(int(x) for x in match.group(1).split(","))


@pytest.mark.parametrize(
    "name, note, closure_ok",
    [
        # a wrong limit polyhedron (half the true one, so larger) breaks
        # additivity; the closures agree
        ("_limit_points", "additivity failed on the cone", True),
    ],
)
def test_valuation_chain_catches_broken_link(monkeypatch, name, note, closure_ok):
    # the fault sits in the points a run hulls its polyhedra from, away
    # from the rays, so the exponent certificate holds; the cone
    # certificate reads no points (every cost is linear on its cones), so
    # it is switched off to run the tuple checks.  Additivity is the one
    # link of the chain that can fail, so this is a verdict, not a bug.
    # Halving P(2, 1) by doubling its L keeps both ends of the sandwich
    # inside it; doubling its points instead shrinks it below the product,
    # a broken theorem (test_broken_theorem_link_is_an_internal_error)
    import conefan.graded as graded

    monkeypatch.setattr(graded, "_cone_certified", lambda *args: None)

    real = getattr(graded, name)
    broken_degree = (2, 1)  # inside the fan cone spanned by (1, 0), (1, 1)

    def broken_points(system, m):
        points, den = real(system, m)
        if tuple(m) != broken_degree:
            return points, den
        return points, 2 * den

    true_h = asymptotic_newton(worked_system(), broken_degree)
    monkeypatch.setattr(graded, name, broken_points)
    broken = asymptotic_newton(worked_system(), broken_degree)
    assert broken == scale_polyhedron(true_h, Fraction(1, 2))
    rep = verify_closure_identity(worked_system(), power_bound=3)
    assert not rep.verified and rep.exponent == 1
    failing = [t for c in rep.cones for t in c.checks if not t.chain_ok]
    assert [t.degree for t in failing] == [broken_degree]
    t = failing[0]
    assert t.closure_ok is closure_ok
    w = _note_weight(t.chain_note, note)
    # the named weight separates the broken polyhedron from the product's
    broken_value = minimize_linear(broken, vec(w))
    cone = next(c for c in rep.cones if t in c.checks)
    product = sum(
        pi * _valuation_at(worked_system(), w, e, 1)
        for pi, e in zip(t.powers, cone.rays)
    )
    assert broken_value.value != product


def _double_points(limit):
    points, den = limit
    return tuple(tuple(2 * x for x in c) for c in points), den


@pytest.mark.parametrize(
    "name, broken, message",
    [
        # no point: the zero ideal
        (
            "_degree_points",
            lambda points: (),
            "the ideal in degree (2, 1) is zero under a nonzero product",
        ),
        # (x^2 y^2, x^4) lies in P(2, 1) = NP(x^2 y, x^3) but misses the
        # product (x^2 y, x^3) of the ray ideals
        (
            "_degree_points",
            lambda points: ((2, 2), (4, 0)),
            "the product of the ray ideals is not inside the ideal in degree "
            "(2, 1): its point (2, 1) breaks <(-1, -1), x> <= -4",
        ),
        # (x) holds that product but leaves P(2, 1)
        (
            "_degree_points",
            lambda points: ((1, 0),),
            "the Newton polyhedron in degree (2, 1) is not inside 1 times the "
            "limit polyhedron of (2, 1): its point (1, 0) breaks "
            "<(-1, -1), x> <= -3",
        ),
        # doubled limit points shrink P(2, 1) to 2 P(2, 1), below
        # P(1, 0) + P(1, 1), which the product of the ray ideals realizes
        (
            "_limit_points",
            _double_points,
            "the product of the ray ideals in degree (2, 1) is not inside 1 "
            "times the limit polyhedron of (2, 1): its point (2, 1) breaks "
            "<(-1, -1), x> <= -6",
        ),
    ],
    ids=["zero-ideal", "inclusion", "sandwich", "superadditivity"],
)
def test_broken_theorem_link_is_an_internal_error(monkeypatch, name, broken, message):
    # a_{d e_1}^{p_1} ... a_{d e_k}^{p_k} lies in a_{d m}, NP(a_{d m}) in
    # d P(m), and sum p_i d P(e_i) in d P(m), whatever the system: points
    # at (2, 1) that break any of these are a bug, never a falsified
    # tuple.  The worked system's cone (1, 0), (1, 1) is additive, so the
    # sandwich is checked there
    import conefan.graded as graded
    from conefan.errors import InternalError

    monkeypatch.setattr(graded, "_cone_certified", lambda *args: None)
    real = getattr(graded, name)

    def broken_points(system, m):
        value = real(system, m)
        return broken(value) if tuple(m) == (2, 1) else value

    monkeypatch.setattr(graded, name, broken_points)
    with pytest.raises(InternalError, match=re.escape(message)):
        verify_closure_identity(worked_system(), power_bound=3)


def test_degree_point_outside_its_limit_is_an_internal_error(monkeypatch):
    # every finite level lies in its limit, NP(a_{k e}) within k P(e): the
    # origin added to every nonzero degree breaks that on the first ray
    # tried, and must not read as a ray with no stable exponent
    import conefan.graded as graded
    from conefan.errors import InternalError

    real = graded._degree_points

    def with_origin(system, m):
        points = real(system, m)
        return tuple(sorted({*points, (0,) * system.ambient})) if any(m) else points

    monkeypatch.setattr(graded, "_degree_points", with_origin)
    message = (
        "the Newton polyhedron in degree (4, 4, 4) is not inside 4 times the "
        "limit polyhedron of (1, 1, 1): its point (0, 0, 0) breaks "
        "<(-5, -3, -2), x> <= -32"
    )
    with pytest.raises(InternalError, match=re.escape(message)):
        verify_closure_identity(bench_system())


def test_unstable_ray_certificate_is_an_internal_error(monkeypatch):
    # the half-step system needs d = 2; forced to d = 1, the degree-1 ideal
    # is not the limit polyhedron of its ray.  A broken exponent
    # certificate is a bug, never a falsified tuple
    import conefan.graded as graded
    from conefan.errors import InternalError
    from conefan.graded import ExponentCertificate

    monkeypatch.setattr(
        graded,
        "_stabilize",
        lambda forms, fan, cap, checks: ExponentCertificate(1, (((1,), 1),)),
    )
    unstable = r"fan ray \(1,\) is not stable at its exponent 1"
    with pytest.raises(InternalError, match=unstable):
        verify_closure_identity(halfstep_system(), power_bound=2)
    # the ray really is unstable at 1: v_w(x^2, y^2) = 2 at w = (1, 1),
    # where the limit polyhedron's value is 1/2
    w = (1, 1)
    limit = minimize_linear(asymptotic_newton(halfstep_system(), (1,)), vec(w))
    assert limit.value != _valuation_at(halfstep_system(), w, (1,), 1)


def test_rays_rechecked_at_their_own_exponents(monkeypatch):
    # corpus seed 61 has d = 312, the lcm of its rays' exponents; a ray is
    # re-checked at its own exponent, whose degree _stabilize has already
    # searched, where a re-check at d searches degrees far past this budget
    import conefan.graded as graded

    monkeypatch.setattr(graded, "EXPAND_NODE_BUDGET", 10_000)
    system = random_graded_system(random.Random(61))
    rep = verify_closure_identity(system, power_bound=2, power_checks=1)
    assert rep.verified and rep.exponent == 312 and len(rep.cones) == 156


def test_limit_polyhedra_anchored_to_lp(monkeypatch):
    # the LP cross-check on every ray turns a disagreement between the
    # limit polyhedron and the asymptotic valuation into an internal error
    import conefan.graded as graded

    real = graded._live_valuation
    monkeypatch.setattr(
        graded, "_live_valuation", lambda d, ideals, w, m: real(d, ideals, w, m) + 1
    )
    with pytest.raises(AssertionError, match="disagrees with the asymptotic"):
        verify_closure_identity(worked_system(), power_bound=1)
    # every facet row is checked, also one whose weight has a zero entry
    monkeypatch.setattr(
        graded,
        "_live_valuation",
        lambda d, ideals, w, m: real(d, ideals, w, m) + (0 in w),
    )
    with pytest.raises(AssertionError, match="disagrees with the asymptotic"):
        verify_closure_identity(worked_system(), power_bound=1)


def test_verify_halfstep_system():
    rep = verify_closure_identity(halfstep_system(), power_bound=4)
    assert rep.verified
    assert rep.exponent == 2
    assert rep.per_ray == (((1,), 2),)


def test_verify_report_serializable():
    import json

    rep = verify_closure_identity(worked_system(), power_bound=2)
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    assert "verified" in payload


@pytest.mark.parametrize("k", [1.5, 2.0, True, "2", -1])
def test_ideal_power_rejects_bad_exponents_cold_and_warm(k):
    # 1.5 // 2 == 0.0 and True == 1 would pass for the exponents 0 and 1,
    # and "2" < 0 is a TypeError, so k is checked first
    I = MI(2, [(1, 0), (0, 2)])
    with pytest.raises(InputError):
        ideal_power(I, k)
    for good in (0, 1, 2, 3):
        ideal_power(I, good)
    with pytest.raises(InputError):
        ideal_power(I, k)
    assert ideal_power(I, 2) == ideal_product(I, I)


@pytest.mark.parametrize(
    "caps",
    [
        {"power_bound": 0},
        {"power_bound": -3},
        {"exponent_cap": 0},
        {"power_checks": -1},
    ],
)
def test_verify_rejects_caps_out_of_range(caps):
    # power_bound 0 would check no nonzero tuple and still report VERIFIED
    with pytest.raises(InputError, match="must be at least"):
        verify_closure_identity(worked_system(), **caps)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"cap": True}, "cap must be an int"),
        ({"cap": 2.5}, "cap must be an int"),
        ({"cap": 0}, "cap must be at least 1"),
        ({"power_checks": 2.5}, "power_checks must be an int"),
        ({"power_checks": -1}, "power_checks must be at least 0"),
    ],
)
def test_stabilizing_exponent_rejects_bad_int_parameters(kwargs, message):
    # as verify_closure_identity checks them: cap=True ran as 1,
    # power_checks=-1 gave the note "holds up to exponent -1", and a float
    # raised a bare TypeError
    system = worked_system()
    with pytest.raises(InputError, match=message):
        stabilizing_exponent(system, linearity_fan(system.degrees), **kwargs)


@pytest.mark.parametrize(
    "L, message",
    [(0, "at least 1"), (-1, "at least 1"), (True, "an int"), (2.5, "an int")],
)
def test_asymptotic_limit_check_rejects_bad_horizons(L, message):
    # L = 0 or -1 compared no term and passed vacuously, True ran as 1,
    # and 2.5 raised a bare TypeError
    with pytest.raises(InputError, match=f"L must be {message}"):
        asymptotic_limit_check(worked_system(), (1, 1), (1, 1), L)


@pytest.mark.parametrize("power_checks", [0, 1])
def test_ideal_power_note_expands_nothing_below_two_checks(
    monkeypatch, power_checks
):
    # a_{de}^1 is a_{de}: with nothing to compare, no degree is expanded
    import conefan.graded as graded

    def expand(*args):
        raise AssertionError("expand_degree called")

    monkeypatch.setattr(graded, "expand_degree", expand)
    rep = verify_closure_identity(
        worked_system(), power_bound=2, power_checks=power_checks
    )
    holds = f": ideal-level power equality holds up to exponent {power_checks}"
    notes = [note for note in rep.notes if note.startswith("ray ")]
    assert len(notes) == len(rep.fan.rays())
    assert all(note.endswith(holds) for note in notes)


def test_graded_system_validation():
    with pytest.raises(NotPointedError):
        GradedSystem.create(1, 1, [(1,), (-1,)], [MI(1, [(1,)]), MI(1, [(1,)])])
    with pytest.raises(InputError):
        GradedSystem.create(1, 1, [(0,)], [MI(1, [(1,)])])
    with pytest.raises(InputError):
        GradedSystem.create(1, 1, [(1,)], [MI(2, [(1, 0)])])


@pytest.mark.parametrize(
    "entry, bad, good",
    [
        ("asymptotic_valuation", ((True, 0), (1, 1)), ((1, 0), (1, 1))),
        ("asymptotic_valuation", ((1, 0), (True, 1)), ((1, 0), (1, 1))),
        ("asymptotic_newton", ((True, 1),), ((1, 1),)),
        ("_degree_newton_hform", ((True, 1),), ((1, 1),)),
        ("expand_degree", ((True, 1),), ((1, 1),)),
    ],
)
def test_memoized_entry_points_reject_bools_cold_and_warm(entry, bad, good):
    # (True, 1) == (1, 1) as a memo key, so a check made only on a cache
    # miss would let the bool through once the integer call is cached
    import conefan.graded as graded

    fn = getattr(graded, entry)
    with pytest.raises(InputError):
        fn(worked_system(), *bad)
    fn(worked_system(), *good)
    with pytest.raises(InputError):
        fn(worked_system(), *bad)


@pytest.mark.parametrize(
    "entry, weight",
    [
        ("asymptotic_valuation", ((1, 0),)),
        ("asymptotic_newton", ()),
        ("_degree_newton_hform", ()),
        ("expand_degree", ()),
    ],
)
@pytest.mark.parametrize("bad", [(1,), (1, 1, 1)])
def test_memoized_entry_points_check_degree_length_cold_and_warm(entry, weight, bad):
    # grading rank 2: a short degree must not fail deep inside with an
    # IndexError, nor a long one answer for its first two coordinates
    import conefan.graded as graded

    fn = getattr(graded, entry)
    with pytest.raises(InputError, match="grading rank"):
        fn(worked_system(), *weight, bad)
    fn(worked_system(), *weight, (1, 1))
    with pytest.raises(InputError, match="grading rank"):
        fn(worked_system(), *weight, bad)


def test_expand_degree_budget(monkeypatch):
    import conefan.graded as graded

    monkeypatch.setattr(graded, "EXPAND_NODE_BUDGET", 5)
    from conefan.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        graded.expand_degree(worked_system(), (3, 3))


@pytest.mark.parametrize("m", [(1, 1), (2, 1), (3, 3), (4, 2)])
def test_representation_enumeration_prunes_zero_ideals(monkeypatch, m):
    # three nodes, one per level: the suffix cones leave one exponent open
    # at each of the first two levels and the third is solved for
    import conefan.graded as graded
    from conefan.errors import BudgetExceededError

    def expand(budget):
        monkeypatch.setattr(graded, "EXPAND_NODE_BUDGET", budget)
        return graded.expand_degree(zerogen_system(), m)

    assert not expand(3).is_zero
    with pytest.raises(BudgetExceededError):
        expand(2)


def _representation_nodes(monkeypatch, system, m) -> int:
    """Search nodes _representations needs on (system, m): the least
    EXPAND_NODE_BUDGET under which it does not raise."""
    import conefan.graded as graded
    from conefan.errors import BudgetExceededError

    def fits(budget):
        monkeypatch.setattr(graded, "EXPAND_NODE_BUDGET", budget)
        try:
            graded._representations(system, m)
        except BudgetExceededError:
            return False
        return True

    lo, hi = 0, 1
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def test_verify_repeats_its_hulls_in_every_run(monkeypatch):
    # the degree and limit Newton polyhedra last for one verify run only,
    # so a second identical run makes every orthant hull the first one made;
    # a passing run on certified cones hulls only the limit polyhedra of
    # its 9 rays and the 3 generator ideals
    import conefan.graded as graded

    hull = graded._orthant_hull
    calls = []

    def counted(points, n):
        calls.append(n)
        return hull(points, n)

    monkeypatch.setattr(graded, "_orthant_hull", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        verify_closure_identity(bench_system(), power_bound=3, power_checks=1)
        counts.append(len(calls))
    assert counts == [12, 12]


def test_verified_run_builds_no_degree_newton_hform(monkeypatch):
    # a passing run decides every equality from points against the limit
    # hulls; the H-forms of degree ideals and of products are built only by
    # the tuple check, to explain a failing tuple
    import conefan.graded as graded

    def refuse(*args):
        raise AssertionError(f"H-form built for {args[-1]}")

    monkeypatch.setattr(graded, "_degree_newton_hform", refuse)
    monkeypatch.setattr(graded, "_check_tuple", refuse)
    rep = verify_closure_identity(bench_system(), power_bound=3, power_checks=1)
    assert rep.verified


def test_passing_tuples_hull_no_degree_points_and_no_product(monkeypatch):
    # with the cone certificate off, a refined run sends every tuple to
    # the tuple check, and every one passes: it is decided from points
    # against the one hull of d P(m), so the run hulls the generator ideals
    # and the point sets of _limit_points, never a degree ideal's points or
    # a product's
    import conefan.graded as graded

    system = bench_system()
    allowed = {I.gens for I in system.ideals}
    hulled = []
    passed = []
    limit_points = graded._limit_points
    hull = graded._orthant_hull
    check = graded._check_tuple

    def recorded_limit(sys_, m):
        points, den = limit_points(sys_, m)
        allowed.add(points)
        return points, den

    def recorded_hull(points, n):
        hulled.append(tuple(points))
        return hull(points, n)

    def recorded_check(*args):
        t = check(*args)
        passed.append(t.closure_ok and t.chain_ok)
        return t

    monkeypatch.setattr(graded, "_cone_certified", lambda *args: None)
    monkeypatch.setattr(graded, "_limit_points", recorded_limit)
    monkeypatch.setattr(graded, "_orthant_hull", recorded_hull)
    monkeypatch.setattr(graded, "_check_tuple", recorded_check)
    rep = verify_closure_identity(system, power_bound=2, power_checks=1)
    assert rep.verified
    assert len(passed) > 20 and all(passed)
    assert set(hulled) <= allowed


def test_representation_search_nodes_on_bench_chain_degrees(monkeypatch):
    # the tuple degrees of a verify of the bench system at p-bound 3, L 1
    # (the benchmark's verify-chain input), with every ray multiple up to
    # its exponent, need 316 nodes; a search bounded only by the
    # theta-weight visits 233,585
    import conefan.graded as graded

    system = bench_system()
    seen = set()
    search = graded._representations

    def record(sys_, m):
        if sys_ == system:
            seen.add(m)
        return search(sys_, m)

    monkeypatch.setattr(graded, "_representations", record)
    rep = verify_closure_identity(system, power_bound=3, power_checks=1)
    monkeypatch.setattr(graded, "_representations", search)
    d = rep.exponent
    degrees = {
        tuple(k * x for x in e) for e, top in rep.per_ray for k in range(1, top + 1)
    }
    for cone in rep.fan.maximal_cones:
        for p in graded._power_tuples(len(cone.rays), 3):
            degrees.add(
                tuple(
                    d * sum(pi * e[j] for pi, e in zip(p, cone.rays))
                    for j in range(3)
                )
            )
    assert len(degrees) == 116
    total = sum(_representation_nodes(monkeypatch, system, m) for m in degrees)
    assert total <= 10_000
    reps = [graded._representations(system, m) for m in sorted(degrees)]
    assert sum(map(len, reps)) == 90
    # certified cones search no tuple degree, and the exponent search
    # tries only the multiples of each ray's vertex-denominator lcm, which
    # here is the ray's exponent itself; the zero tuple passes with no
    # search
    assert seen == {tuple(top * x for x in e) for e, top in rep.per_ray}
    assert seen <= degrees and len(seen) == 9


@st.composite
def graded_queries(draw):
    """Systems of unit and zero ideals over random degrees, often more
    degrees than the grading rank, and targets in or out of the cone."""
    rank = draw(st.integers(1, 3))
    entry = st.integers(-1, 3)
    degree = st.tuples(*[entry] * rank).filter(any)
    degrees = draw(st.lists(degree, min_size=1, max_size=5))
    zero = draw(st.lists(st.booleans(), min_size=len(degrees), max_size=len(degrees)))
    m = draw(st.tuples(*[st.integers(-2, 9)] * rank))
    return degrees, zero, m


@settings(max_examples=300, deadline=None)
@given(graded_queries())
@example(([(1, 0), (0, 1), (1, 1)], [False, False, True], (3, 3)))
@example(([(1, 0), (0, 1), (1, 1)], [False, False, False], (4, 2)))
@example(([(1, 1), (1, 0)], [False, True], (2, 2)))
@example(([(2,), (3,)], [False, False], (7,)))
@example(([(1, 0), (0, 1)], [True, True], (0, 0)))
@example(([(1, 0), (0, 1)], [False, False], (-1, 2)))
@example(([(1, 2, 0), (0, 1, 1), (1, 3, 1), (2, 1, 3)], [False] * 4, (3, 6, 4)))
def test_representations_match_unpruned_search(case):
    from conefan.graded import _representations

    degrees, zero, m = case
    ideals = [MonomialIdeal.zero(1) if z else MonomialIdeal.unit(1) for z in zero]
    try:
        system = GradedSystem.create(len(m), 1, degrees, ideals)
    except NotPointedError:
        assume(False)
    assert _representations(system, m) == representations_reference(system, m)


def test_stabilizing_exponent_cap_reported():
    from conefan.errors import StabilizationError

    sys_h = halfstep_system()
    fan = Fan.make([sys_h.degree_cone()], 1)
    with pytest.raises(StabilizationError) as err:
        stabilizing_exponent(sys_h, fan, cap=1)
    assert err.value.ray == (1,)
    assert err.value.cap == 1


def test_exponent_search_reaches_the_cap_and_stops_there():
    # d runs through the multiples of q up to and including the cap: the
    # worked system's rays stabilize at d = q = 1, which cap 1 allows; the
    # ray (1, 1) here has q = 1 but stabilizes first at d = 2, above cap 1
    from conefan.errors import StabilizationError

    rep = verify_closure_identity(
        worked_system(), power_bound=1, exponent_cap=1, power_checks=1
    )
    assert rep.verified and rep.exponent == 1
    system = GradedSystem.create(
        2, 2, [(2, 1), (2, 2)], [MI(2, [(1, 0)]), MonomialIdeal.unit(2)]
    )
    rep = verify_closure_identity(system, power_bound=1, exponent_cap=2, power_checks=1)
    assert rep.per_ray == (((1, 1), 2), ((2, 1), 1))
    with pytest.raises(StabilizationError) as err:
        verify_closure_identity(system, power_bound=1, exponent_cap=1, power_checks=1)
    # a_{(1, 1)} is zero, so it misses P(1, 1)'s one vertex, the origin
    assert str(err.value) == (
        "no stabilizing exponent <= 1 found for ray (1, 1): at d = 1 the ideal "
        "in degree (1, 1) misses the vertex (0, 0) of d times its limit polyhedron"
    )


def test_ray_with_only_zero_ideals_is_not_a_cap_failure():
    # a_m is zero off the cone of the degrees with a nonzero ideal, so no
    # exponent, below any cap, stabilizes the ray (0, 1)
    from conefan.errors import StabilizationError

    system = GradedSystem.create(
        2, 1, [(1, 0), (0, 1)], [MI(1, [(1,)]), MonomialIdeal.zero(1)]
    )
    fan = Fan.make([system.degree_cone()], 2)
    with pytest.raises(StabilizationError) as err:
        stabilizing_exponent(system, fan, cap=64)
    assert err.value.ray == (0, 1)
    assert str(err.value) == (
        "fan ray (0, 1) lies outside the cone of the degrees with a nonzero "
        "ideal, so its ideals are all zero"
    )


def test_degree_newton_routes_agree():
    # the representation-based Newton polyhedron of a degree must match the
    # literal route through the expanded ideal
    from conefan.graded import _degree_newton_hform

    rng = random.Random(88)
    systems = [worked_system(), halfstep_system(), trivial_system(), zerogen_system()]
    for system in systems:
        for _ in range(12):
            lam = [rng.randint(0, 3) for _ in system.degrees]
            m = tuple(
                sum(l * d[j] for l, d in zip(lam, system.degrees))
                for j in range(system.grading_rank)
            )
            ideal = expand_degree(system, m)
            via_reps = _degree_newton_hform(system, m)
            if ideal.is_zero:
                assert via_reps is None
            else:
                assert via_reps == newton_hform(ideal)


def test_verify_lower_dimensional_degree_cone():
    # degrees span a 2-dimensional cone inside a rank-3 grading; the
    # linearity fan still splits it at the interior ray and the identity
    # verifies there while the single-cone debug run falsifies
    gens = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
    system = GradedSystem.create(
        3,
        2,
        gens,
        [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1), (2, 0)])],
    )
    rep = verify_closure_identity(system, power_bound=3)
    assert rep.verified and rep.exponent == 1
    assert [c.rays for c in rep.fan.maximal_cones] == [
        ((0, 1, 1), (1, 1, 2)),
        ((1, 0, 1), (1, 1, 2)),
    ]
    rep2 = verify_closure_identity(system, power_bound=3, refine=False)
    assert not rep2.verified
    witnessed = [t for c in rep2.cones for t in c.checks if t.witness_weight]
    assert witnessed
    assert all(t.left_value != t.right_value for t in witnessed)


@st.composite
def representation_cases(draw):
    # grading rank up to 3 with up to five degrees (more degrees than the
    # rank), entries up to 3 (determinants other than +-1), degrees on the
    # hyperplane where the last coordinate sums the others (a proper
    # subspace), zero ideals, and targets that are either combinations of
    # the degrees or arbitrary (often outside the cone or the span)
    g = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 5))
    entry = st.integers(-1 if draw(st.booleans()) else 0, 3)
    degree = st.lists(entry, min_size=g, max_size=g)
    if g > 1 and draw(st.booleans()):
        degree = st.lists(entry, min_size=g - 1, max_size=g - 1).map(
            lambda d: d + [sum(d)]
        )
    degrees = draw(st.lists(degree.filter(any), min_size=r, max_size=r))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    ideals = [
        MI(n, draw(st.lists(exponent, min_size=1, max_size=3)))
        if draw(st.integers(0, 4))
        else MonomialIdeal.zero(n)
        for _ in range(r)
    ]
    if draw(st.booleans()):
        m = draw(st.tuples(*[st.integers(-1, 6)] * g))
    else:
        coeffs = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
        m = tuple(sum(c * d[j] for c, d in zip(coeffs, degrees)) for j in range(g))
    return g, n, degrees, ideals, m


@settings(max_examples=200, deadline=None)
@given(representation_cases())
@example((3, 2, [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
          [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1), (2, 0)])], (2, 1, 3)))
@example((3, 2, [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
          [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1)])], (1, 1, 1)))
@example((1, 2, [[1], [2]], [MI(2, [(2, 0), (0, 2)]), MI(2, [(1, 0), (0, 1)])], (3,)))
@example((2, 1, [[1, 0], [0, 1]], [MonomialIdeal.zero(1)] * 2, (1, 1)))
@example((2, 1, [[2, 1], [1, 2], [1, 1]], [MI(1, [(1,)])] * 3, (0, 0)))
def test_basic_solutions_match_double_description(case):
    # the basic solutions are the vertices of the representation polytope
    # found by its double description, and the limit Newton polyhedron
    # built on them matches the Fraction hull at those vertices and the
    # literal lift projection
    from conefan.graded import _basic_solutions
    from helpers import (
        asymptotic_newton_reference,
        asymptotic_newton_via_lift,
        representation_vertices_reference,
    )

    g, n, degrees, ideals, m = case
    try:
        system = GradedSystem.create(g, n, degrees, ideals)
    except NotPointedError:
        assume(False)
    live, _ = system.nonzero_part()
    if live:
        try:
            expected = set(representation_vertices_reference(system, m))
        except NotInConeError:
            expected = set()
        got = {
            tuple(Fraction(x, lam[-1]) for x in lam[:-1])
            for lam in _basic_solutions(system, m)
        }
        assert got == expected
    try:
        ref = asymptotic_newton_reference(system, m)
    except NotInConeError:
        with pytest.raises(NotInConeError):
            asymptotic_newton(system, m)
        return
    assert asymptotic_newton(system, m) == ref
    assert asymptotic_newton_via_lift(system, m) == ref


def test_asymptotic_newton_matches_lift_projection():
    # dual route: the vertex-decomposition construction must agree with a
    # literal Fourier-Motzkin projection of the defining lift
    from helpers import asymptotic_newton_via_lift

    cases = [
        (worked_system(), [(1, 1), (1, 0), (2, 0), (2, 1)]),
        (halfstep_system(), [(1,), (2,), (3,)]),
        (trivial_system(), [(1,), (4,)]),
        (zerogen_system(), [(1, 1), (1, 0)]),
    ]
    for system, degrees in cases:
        for m in degrees:
            assert asymptotic_newton(system, m) == asymptotic_newton_via_lift(
                system, m
            )


def test_ideal_level_power_equality_documented():
    # a system where the closure-level power identity holds at d = 1 but
    # the literal ideal-level equality fails: the degree-2 generator adds
    # x^3 y, which lies in the closure of (x^2, y^2)^2 but not in it
    system = GradedSystem.create(
        1,
        2,
        [(1,), (2,)],
        [MI(2, [(2, 0), (0, 2)]), MI(2, [(3, 1)])],
    )
    rep = verify_closure_identity(system, power_bound=3)
    assert rep.verified
    assert rep.exponent == 1
    assert any("differs at exponent 2" in note for note in rep.notes)

    # the worked system's rays satisfy the ideal-level equality as well
    rep_w = verify_closure_identity(worked_system(), power_bound=2)
    assert rep_w.verified
    assert all(
        "holds up to exponent" in note
        for note in rep_w.notes
        if note.startswith("ray ")
    )


@pytest.mark.parametrize("name", ["power_bound", "exponent_cap", "power_checks", "seed"])
@pytest.mark.parametrize("value", [True, False, 2.5, 2.0])
def test_verify_rejects_caps_that_are_not_ints(name, value):
    # True would run as 1 and be reported as true, and 2.5 would fail
    # deep inside with a bare TypeError
    with pytest.raises(InputError, match=f"{name} must be an int"):
        verify_closure_identity(worked_system(), **{name: value})


def flat_system():
    # the degrees span a plane in grading rank 3 (flat.json of the CI smoke test)
    return GradedSystem.create(
        3,
        2,
        [(1, 0, 1), (0, 1, 1), (1, 1, 2)],
        [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1), (2, 0)])],
    )


def five_degree_system():
    # five degrees in grading rank 3, 58 smooth cones (CI smoke test)
    return GradedSystem.create(
        3,
        3,
        [(0, 0, 1), (4, 0, 1), (2, 3, 1), (0, 3, 1), (2, 0, 1)],
        [
            MI(3, [(2, 3, 2), (3, 1, 0)]),
            MI(3, [(0, 1, 4)]),
            MI(3, [(2, 1, 4), (3, 0, 3), (3, 2, 0)]),
            MI(3, [(1, 1, 1)]),
            MI(3, [(0, 2, 1), (1, 0, 2)]),
        ],
    )


def _system(rank, n, gens):
    return GradedSystem.create(
        rank, n, [g for g, _ in gens], [MI(n, ideal) for _, ideal in gens]
    )


def seed61_system():
    # corpus seed 61 of the CI smoke test: d = 312, 156 cones
    return _system(3, 2, [
        ((1, 2, 2), [(0, 1), (2, 0)]),
        ((2, 0, 3), [(3, 2)]),
        ((2, 2, 0), [(2, 2)]),
        ((3, 3, 2), [(1, 1)]),
        ((1, 2, 0), [(0, 2)]),
    ])


def rank3_system():
    # the random rank-3 system of the CI smoke test: d = 168, 14 cones
    return _system(3, 3, [
        ((0, 2, 0), [(1, 3, 3), (3, 1, 0)]),
        ((3, 2, 3), [(0, 1, 3)]),
        ((1, 1, 1), [(2, 3, 1)]),
        ((3, 3, 2), [(1, 0, 2)]),
        ((1, 2, 2), [(1, 3, 2), (2, 0, 3), (3, 2, 2)]),
    ])


def denominator_system():
    # the CI system whose ray (1, 2, 1) needs q = 105, above the default cap
    return _system(3, 3, [
        ((0, 3, 0), [(0, 2, 2), (2, 3, 0)]),
        ((1, 3, 1), [(1, 2, 2)]),
        ((1, 2, 3), [(1, 2, 1), (3, 0, 1)]),
        ((2, 3, 1), [(2, 2, 3)]),
    ])


SHARED_FACE_CASES = {
    "worked": (worked_system, {"power_bound": 4}),
    "bench": (bench_system, {"power_bound": 3, "power_checks": 1}),
    "flat": (flat_system, {"power_bound": 3}),
    "five-degree": (five_degree_system, {"power_bound": 2, "power_checks": 1}),
    # FALSIFIED: witness weights, values and chain notes are shared too
    "worked-single-cone": (worked_system, {"power_bound": 4, "refine": False}),
    # FALSIFIED on many tuples: each one's explanation builds its hulls
    "five-degree-single-cone": (
        five_degree_system,
        {"power_bound": 2, "power_checks": 1, "refine": False},
    ),
}


def _matches_reference(rep, ref) -> bool:
    """Whether a run's cones agree with cone_checks_reference's, which
    checks every tuple of every cone itself: a cone certified by its sign
    vector reports no check, and the reference must pass each of its
    tuples; any other cone must report the reference's checks."""
    if [c.rays for c in rep.cones] != [r.rays for r in ref]:
        return False
    return all(
        c.checks == () and r.passed if c.sides is not None else c.checks == r.checks
        for c, r in zip(rep.cones, ref)
    )


@pytest.mark.parametrize("case", SHARED_FACE_CASES, ids=SHARED_FACE_CASES)
def test_face_checks_match_per_cone_reference(case):
    make, kwargs = SHARED_FACE_CASES[case]
    system = make()
    rep = verify_closure_identity(system, **kwargs)
    ref = cone_checks_reference(
        system, rep.fan, rep.exponent, kwargs["power_bound"]
    )
    assert _matches_reference(rep, ref)
    if case.endswith("single-cone"):
        assert not rep.verified
        failing = [t for t in rep.cones[0].checks if not t.chain_ok]
        assert any(t.witness_weight for t in failing)
        assert all(t.chain_note for t in failing)
    else:
        assert rep.verified


def _refuse_tuple_route(forms, d, face):
    raise AssertionError(f"tuple route taken for {face}")


@pytest.mark.parametrize(
    "make",
    [
        worked_system,
        zerogen_system,
        flat_system,
        bench_system,
        five_degree_system,
        seed61_system,
        rank3_system,
        denominator_system,
    ],
)
def test_certified_cones_check_only_the_zero_face(monkeypatch, make):
    # every cone of a refined run is certified by its sign vector, so each
    # passes all its tuples at once; the all-zero tuple, which every cone
    # shares, passes as the unit ideal on both sides, so no tuple goes
    # through the tuple check, smoothed or not (the CI systems; the
    # denominator system needs q = 105, above the default cap)
    import conefan.graded as graded

    monkeypatch.setattr(graded, "_check_tuple", _refuse_tuple_route)
    for smooth in (True, False):
        rep = verify_closure_identity(
            make(), power_bound=2, exponent_cap=210, power_checks=1, smooth=smooth
        )
        assert rep.verified


def test_per_cone_reference_catches_an_unsound_certificate(monkeypatch):
    # a certificate that always held would pass the single-cone five-degree
    # run, whose cones bend; the per-cone reference of SHARED_FACE_CASES
    # must tell the two reports apart
    import conefan.graded as graded

    monkeypatch.setattr(
        graded, "_cone_certified", lambda live, frame, cuts, cone: (1,) * len(cuts)
    )
    make, kwargs = SHARED_FACE_CASES["five-degree-single-cone"]
    system = make()
    rep = verify_closure_identity(system, **kwargs)
    ref = cone_checks_reference(system, rep.fan, rep.exponent, kwargs["power_bound"])
    assert rep.verified
    assert all(c.sides is not None for c in rep.cones)
    assert not _matches_reference(rep, ref)


@pytest.mark.parametrize("make", [worked_system, five_degree_system])
def test_single_cone_verify_builds_no_v_representation(monkeypatch, make):
    # every tuple of a refine=False run takes the tuple route, whose
    # witnesses, values and additivity weights are read off integer points
    # and facet rows, so no H-form gets a double description; the
    # reference, which takes them off V-representations, runs unpatched
    import conefan.polyhedra as polyhedra

    def refuse(*args):
        raise AssertionError("a V-representation was built")

    system = make()
    with monkeypatch.context() as patch:
        patch.setattr(polyhedra, "cone_generators", refuse)
        rep = verify_closure_identity(
            system, power_bound=2, power_checks=1, refine=False
        )
    ref = cone_checks_reference(system, rep.fan, rep.exponent, 2)
    assert not rep.verified
    assert any(t.witness_weight for c in rep.cones for t in c.checks)
    assert _matches_reference(rep, ref)


def _sign_certified(live, cone):
    """Whether _cone_certified certifies the cone on plain live degrees."""
    from conefan.graded import _cone_certified

    _, frame, cuts = _cut_frame(_basis_table(live))
    live_normals = cone_from_generators(live).normals
    return _cone_certified(live_normals, frame, cuts, cone) is not None


def test_cone_certificate_needs_linear_costs_inside_the_live_cone():
    # the two chambers of the worked degrees are certified, the quadrant
    # they split is not
    worked = [(1, 0), (0, 1), (1, 1)]
    quadrant = cone_from_generators([(1, 0), (0, 1)])
    assert _sign_certified(worked, cone_from_generators([(1, 0), (1, 1)]))
    assert not _sign_certified(worked, quadrant)
    assert _sign_certified([(1, 0), (0, 1)], quadrant)
    # a ray has dimension 1, below the live rank: not certified, although
    # every cost is linear on it (the test is sufficient, not necessary)
    assert every_cost_linear_on(worked, cone_from_generators([(1, 1)]))
    assert not _sign_certified(worked, cone_from_generators([(1, 1)]))
    # live degrees whose cone misses the ray (0, 1); a run never gets
    # here, since the exponent search refuses such a ray first.  The cut
    # through (1, 1) crosses the quadrant, but no cut crosses the cone of
    # (1, 1) and (0, 1): only the live-cone guard refuses it
    assert not _sign_certified([(1, 0), (1, 1)], quadrant)
    assert not _sign_certified([(1, 0), (1, 1)], cone_from_generators([(1, 1), (0, 1)]))
    # a ray off the live plane, which the frame's coordinates forget
    plane = [(1, 0, 0), (0, 1, 0)]
    assert not _sign_certified(plane, cone_from_generators([(1, 0, 0), (1, 0, 1)]))
    assert _sign_certified(plane, cone_from_generators([(1, 0, 0), (1, 1, 0)]))
    # 13 live degrees: the cuts through (1, k) cross the quadrant, so its
    # signs refuse it; no cap is involved
    many = [(1, 0), (0, 1)] + [(1, k) for k in range(1, 12)]
    assert not _sign_certified(many, quadrant)
    assert _sign_certified(many, cone_from_generators([(1, 0), (11, 1)]))


def test_zero_ideal_systems_keep_their_verdicts():
    from conefan.errors import StabilizationError

    # the fan ray (0, 1) carries only the zero ideal, so its cone leaves
    # the live cone; the exponent search names that before any cone check
    lonely = GradedSystem.create(
        2, 1, [(1, 0), (0, 1)], [MI(1, [(1,)]), MonomialIdeal.zero(1)]
    )
    with pytest.raises(StabilizationError, match="nonzero ideal"):
        verify_closure_identity(lonely, power_bound=2)
    # the zero ideal at (1, 1) leaves every cone inside the live cone
    for refine in (True, False):
        rep = verify_closure_identity(zerogen_system(), power_bound=3, refine=refine)
        ref = cone_checks_reference(zerogen_system(), rep.fan, rep.exponent, 3)
        assert rep.verified
        assert _matches_reference(rep, ref)


# seeds of random_graded_system (one zero ideal allowed at multiples of 3)
# whose runs reach a verdict with and without refinement: zero ideals (15,
# 21, 45, 54, 96), falsified single-cone runs with some cones certified
# (16, 17, 28) and single-cone runs that verify on an uncertified cone (19,
# 108)
CORPUS_SLICE = (3, 15, 16, 17, 19, 21, 28, 45, 54, 96, 108)


@pytest.mark.parametrize("refine", [True, False])
def test_corpus_slice_matches_per_cone_reference(monkeypatch, refine):
    import conefan.graded as graded

    certify = graded._cone_certified
    outcomes = []

    def record(*args):
        outcomes.append(certify(*args))
        return outcomes[-1]

    monkeypatch.setattr(graded, "_cone_certified", record)
    if refine:
        # a refined run's cones are all certified: no tuple route
        monkeypatch.setattr(graded, "_check_tuple", _refuse_tuple_route)
    verdicts = set()
    for seed in CORPUS_SLICE:
        system = random_graded_system(random.Random(seed), allow_zero=seed % 3 == 0)
        rep = verify_closure_identity(
            system, power_bound=2, power_checks=1, refine=refine
        )
        ref = cone_checks_reference(system, rep.fan, rep.exponent, 2)
        assert _matches_reference(rep, ref), seed
        verdicts.add(rep.verified)
    # the linearity fan's cones are all certified; the single cones both
    # pass and go to the tuple route
    assert verdicts == ({True} if refine else {True, False})
    certified = {sides is not None for sides in outcomes}
    assert certified == ({True} if refine else {True, False})


def test_sign_certified_cones_pass_the_chamber_test():
    # every cone the sign vector certifies, the chamber test certifies
    # too; and a refined fan's cones inside the live cone are all certified.
    # The fans are those of the corpus slice's runs, refined and single-cone,
    # each with and without the smooth refinement, and STRADDLE_GENS's
    cases = []
    for seed in CORPUS_SLICE:
        system = random_graded_system(random.Random(seed), allow_zero=seed % 3 == 0)
        live = system.nonzero_part()[0]
        single = Fan.make([system.degree_cone()], system.grading_rank)
        for fan, refined in ((linearity_fan(system.degrees), True), (single, False)):
            cases += [(live, f, refined) for f in (fan, smooth_refine(fan))]
    straddle = linearity_fan(STRADDLE_GENS)
    cases += [(STRADDLE_GENS, f, True) for f in (straddle, smooth_refine(straddle))]
    whole = Fan.make([cone_from_generators(STRADDLE_GENS)], 3)
    cases += [(STRADDLE_GENS, f, False) for f in (whole, smooth_refine(whole))]
    certified = refused = 0
    for live, fan, refined in cases:
        live_cone = cone_from_generators(live)
        for cone in fan.maximal_cones:
            if _sign_certified(live, cone):
                certified += 1
                assert every_cost_linear_on(live, cone), (live, cone.rays)
            else:
                refused += 1
                assert not (refined and live_cone.contains_cone(cone)), (live, cone.rays)
    assert certified > 200 and refused > 20


# the verified systems of the CI smoke test, with the half-step system
# (rank 1) and a zero ideal; exponent_cap 210 lets the denominator system,
# which needs q = 105, verify too
CI_SYSTEMS = [
    worked_system,
    halfstep_system,
    zerogen_system,
    flat_system,
    bench_system,
    five_degree_system,
    seed61_system,
    rank3_system,
    denominator_system,
]


@pytest.mark.parametrize("make", [bench_system, five_degree_system])
def test_refined_report_does_not_grow_with_the_power_bound(make):
    # every cone of a refined run is certified and reports its sign vector,
    # not its tuples, so power_bound, which caps the tuple route alone,
    # changes nothing but the config entry
    def report(power_bound):
        rep = verify_closure_identity(make(), power_bound=power_bound, power_checks=1)
        assert rep.verified
        assert all(c.sides is not None and c.checks == () for c in rep.cones)
        out = rep.to_dict()
        assert out["config"].pop("power_bound") == power_bound
        assert all("checks" not in c for c in out["cones"])
        return out

    assert report(1) == report(6)


def _leibniz_det(rows) -> int:
    """Determinant of a square integer matrix as the sum over permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(row[j] for row, j in zip(rows, perm))
    return total


def _cuts_by_brute_force(live, rank):
    """(frame, sorted cut normals) of the live degrees from determinants
    alone: the frame is the first coordinate set, in lexicographic order,
    on which some live degrees have a nonzero minor of the largest size k;
    each independent (k - 1)-set T of live degrees spans the cut whose
    normal u has <u, x> = det(T | x) on the frame, made primitive with a
    positive first nonzero entry."""
    def minor(vectors, coords):
        return _leibniz_det([[v[i] for i in coords] for v in vectors])

    k = next(
        size
        for size in range(min(len(live), rank), 0, -1)
        if any(
            minor(vs, cs)
            for vs in combinations(live, size)
            for cs in combinations(range(rank), size)
        )
    )
    frame = next(
        cs
        for cs in combinations(range(rank), k)
        if any(minor(vs, cs) for vs in combinations(live, k))
    )
    unit = [[int(i == j) for i in range(k)] for j in range(k)]
    normals = set()
    for subset in combinations(live, k - 1):
        rows = [[v[i] for i in frame] for v in subset]
        u = [_leibniz_det(rows + [e]) for e in unit]
        if any(u):
            g = gcd(*u)
            first = next(x for x in u if x)
            normals.add(tuple(x // g if first > 0 else -x // g for x in u))
    return frame, sorted(normals)


@pytest.mark.parametrize("make", CI_SYSTEMS)
def test_certified_sides_rederived_from_the_live_degrees(make):
    # the report's cuts and each certified cone's sides follow from the
    # system's live degrees alone, with no table of bases: on every cut the
    # cone's rays lie on one side, never strictly on both
    system = make()
    for refine in (True, False):
        rep = verify_closure_identity(
            system, power_bound=1, exponent_cap=210, power_checks=1, refine=refine
        )
        frame, normals = _cuts_by_brute_force(system.nonzero_part()[0], system.grading_rank)
        assert rep.to_dict()["cuts"] == {
            "frame": list(frame),
            "normals": [list(u) for u in normals],
        }
        certified = [c for c in rep.cones if c.sides is not None]
        assert len(certified) == len(rep.cones) or not refine
        for c in certified:
            sides = []
            for u in normals:
                values = [sum(a * r[i] for a, i in zip(u, frame)) for r in c.rays]
                assert not (min(values) < 0 < max(values)), (c.rays, u)
                sides.append(1 if max(values) > 0 else -1 if min(values) < 0 else 0)
            assert c.sides == tuple(sides), c.rays
            assert c.passed and c.checks == ()


@pytest.mark.parametrize("make", CI_SYSTEMS)
def test_anchor_lp_matches_the_asymptotic_valuation(make):
    # the anchor solves asymptotic_valuation's LP on the live part with no
    # checks; at every facet of every ray's limit polyhedron both give the
    # support value that the limit polyhedron has there
    import conefan.graded as graded

    system = make()
    degrees, ideals = system.nonzero_part()
    forms = graded._RunPolyhedra(system)
    facets = 0
    for e in smooth_refine(linearity_fan(system.degrees)).rays():
        h, _, s = forms.limit_hull(e)
        for w, v in graded._facets(h):
            value = graded._live_valuation(degrees, ideals, w, e)
            assert value == asymptotic_valuation(system, w, e) == v * s, (e, w)
            facets += 1
    assert facets >= len(system.degrees)


def test_infeasible_anchor_lp_is_an_internal_error(monkeypatch):
    # the anchor's rays have limit polyhedra, so an infeasible LP there is
    # a bug (exit 3), never NotInConeError (exit 1, the FALSIFIED code)
    import conefan.graded as graded
    from conefan.errors import InternalError

    def infeasible(degrees, ideals, w, m):
        raise NotInConeError("no representation")

    monkeypatch.setattr(graded, "_live_valuation", infeasible)
    with pytest.raises(InternalError, match="its LP is infeasible"):
        verify_closure_identity(worked_system(), power_bound=1)


@pytest.mark.parametrize("refine", [True, False])
def test_corpus_slice_exponents_match_a_search_over_every_d(refine):
    # the exponent search tries only multiples of the lcm of P(e)'s vertex
    # denominators; it must find the first stable d of every d up to the cap
    from conefan.graded import _RunPolyhedra

    for seed in CORPUS_SLICE:
        system = random_graded_system(random.Random(seed), allow_zero=seed % 3 == 0)
        if refine:
            fan = linearity_fan(system.degrees)
        else:
            fan = Fan.make([system.degree_cone()], system.grading_rank)
        fan = smooth_refine(fan)
        cert = stabilizing_exponent(system, fan, cap=64, power_checks=1)
        forms = _RunPolyhedra(system)
        brute = tuple(
            (e, next(d for d in range(1, 65) if forms.missing_vertex(e, d) is None))
            for e in fan.rays()
        )
        assert cert.per_ray == brute, seed


def test_separating_weight_reads_both_sides_and_their_scales():
    # the orthant hull of the origin has only the coordinate facets, where
    # both sides have support value 0, so the two differ only at the other
    # side's facet weight (1, 1); and a side (h, points, s) is s * h, so
    # the hull of 2 * b at scale 1/2 is b's hull, and nothing separates
    from conefan.errors import InternalError
    from conefan.graded import _orthant_hull, _separating_weight

    origin, b = ((0, 0),), ((1, 0), (0, 1))
    sides = [(_orthant_hull(pts, 2), pts, 1) for pts in (origin, b)]
    assert _separating_weight(*sides) == (1, 1)
    assert _separating_weight(*sides[::-1]) == (1, 1)
    double = ((2, 0), (0, 2))
    half = (_orthant_hull(double, 2), double, Fraction(1, 2))
    with pytest.raises(InternalError, match="without a separating facet"):
        _separating_weight(half, sides[1])
    assert _separating_weight(half[:2] + (1,), sides[1]) == (1, 1)


@pytest.mark.parametrize("make", [worked_system, halfstep_system, bench_system])
def test_limit_support_read_from_facet_rows(make):
    # the LP anchor reads P(e)'s support at a facet weight off the facet
    # row (_facets), with no skipped row; it must be the minimum over
    # P(e), and s times the least value over the vertices of the run's
    # integer hull h, P(e) = s * h
    from conefan.graded import _RunPolyhedra, _facets, _least

    system = make()
    forms = _RunPolyhedra(system)
    for e in linearity_fan(system.degrees).rays():
        limit_h = asymptotic_newton(system, e)
        h, vertices, s = forms.limit_hull(e)
        rows = limit_h.inequalities
        assert rows and all(all(x <= 0 for x in a) and any(a) for a, _ in rows)
        for (w, v), (a, b) in zip(_facets(limit_h), rows, strict=True):
            g = -sum(a) // sum(w)
            assert gcd(*w) == 1
            assert tuple(-x for x in a) == tuple(g * x for x in w)
            assert v == Fraction(-b, g) == minimize_linear(limit_h, w).value
            assert v == s * _least(vertices, w)
        weights = sorted(w for w, _ in _facets(limit_h))
        assert sorted(w for w, _ in _facets(h)) == weights


@pytest.mark.parametrize("make", [worked_system, halfstep_system, bench_system])
def test_limit_polyhedron_scales_with_its_degree(make):
    # a run keys the limit polyhedra by primitive direction: P(t m) = t P(m)
    # exactly, since the representation polytope scales by t
    import conefan.graded as graded

    system = make()
    forms = graded._RunPolyhedra(system)
    for e in smooth_refine(linearity_fan(system.degrees)).rays():
        limit = asymptotic_newton(system, e)
        for t in (2, 3):
            m = tuple(t * x for x in e)
            assert asymptotic_newton(system, m) == scale_polyhedron(limit, t)
            h, _, s = forms.limit_hull(m)
            assert scale_polyhedron(h, s) == asymptotic_newton(system, m)


@st.composite
def dilate_cases(draw):
    """Integer points C with orthant hull h, a dilate t = k / den and
    integer points A: q C, whose hull is t h when k = den q, with points
    dropped and others added, so conv(A) + orthant is t h or is not."""
    n = draw(st.integers(1, 4))
    hull = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6))
    den = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    k = draw(st.one_of(st.just(den * q), st.integers(1, 9)))
    keep = draw(
        st.lists(
            st.sampled_from([True, True, True, False]),
            min_size=len(hull),
            max_size=len(hull),
        )
    )
    extra = draw(st.lists(st.tuples(*[st.integers(0, 12)] * n), max_size=3))
    points = [tuple(q * x for x in c) for c, kept in zip(hull, keep) if kept]
    points += extra
    assume(points)
    return hull, den, k, points


def _dilate_case(case):
    """(h, its vertices, t, t h, the points inside t h, those outside)."""
    from conefan.graded import _orthant_hull, _orthant_vertices

    hull, den, k, points = case
    h = _orthant_hull(hull, len(hull[0]))
    t = Fraction(k, den)
    dilate = scale_polyhedron(h, t)
    inside = [a for a in points if contains(dilate, a)]
    outside = [a for a in points if not contains(dilate, a)]
    return h, _orthant_vertices(h, hull), t, dilate, inside, outside


@settings(max_examples=400, deadline=None)
@given(dilate_cases())
# equal: a non-vertex dropped, and a point inside 2 h added
@example(([(0, 4), (2, 2), (4, 0)], 1, 2, [(0, 8), (8, 0), (5, 5)]))
@example(([(1, 1, 0), (0, 2, 3)], 3, 6, [(2, 2, 0), (0, 4, 6), (9, 9, 9)]))
# unequal: a vertex dropped, a point outside, a dilate off the lattice
@example(([(0, 4), (2, 2), (4, 0)], 1, 2, [(0, 8), (8, 0)]))
@example(([(0, 4), (4, 0)], 1, 1, [(0, 4), (4, 0), (1, 1)]))
@example(([(1, 2)], 2, 1, [(1, 1)]))
def test_point_certificate_decides_dilate_equality(case):
    # for points inside t h, the vertex lookup decides conv(points) +
    # orthant == t h; the points outside are dropped, and with none left
    # (a zero ideal) some vertex is missing
    from conefan.graded import _missing_vertex, _orthant_hull

    h, vertices, t, dilate, inside, _ = _dilate_case(case)
    missing = _missing_vertex(inside, vertices, t)
    if not inside:
        assert missing is not None
        return
    expected = _orthant_hull(inside, h.ambient_dim) == dilate
    event(f"equal: {expected}")
    assert (missing is None) is expected
    if missing is not None:
        # the named vertex is a vertex of t h that no point is
        assert missing in [tuple(t * x for x in v) for v in vertices]
        assert missing not in inside


@settings(max_examples=400, deadline=None)
@given(dilate_cases())
@example(([(0, 4), (4, 0)], 1, 1, [(0, 4), (4, 0), (1, 1)]))
@example(([(1, 2)], 2, 1, [(1, 1)]))
def test_point_outside_the_dilate_is_an_internal_error(case):
    # the containment check raises, naming a point outside t h, exactly
    # when there is one
    from conefan.errors import InternalError
    from conefan.graded import _check_inside

    h, _, t, _, _, outside = _dilate_case(case)
    _, _, _, points = case
    event(f"outside: {bool(outside)}")
    if not outside:
        _check_inside(points, h, t, "inside")
        return
    with pytest.raises(InternalError) as err:
        _check_inside(points, h, t, "outside")
    named = re.fullmatch(r"outside: its point \((.*)\) breaks .*", str(err.value))
    assert named and tuple(int(x) for x in named.group(1).split(",") if x) in outside


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=12)
    )
)
# (2, 2) is minimal but not a vertex, (3, 3) is not minimal; the repeated
# minimal point (1, 1, 1) is the centre of the other three, no vertex
@example([(0, 4), (2, 2), (4, 0), (3, 3)])
@example([(1, 1, 1), (0, 0, 3), (3, 0, 0), (0, 3, 0), (1, 1, 1)])
def test_orthant_vertices_read_from_facet_incidences(points):
    from conefan.graded import _orthant_hull, _orthant_vertices
    from conefan.polyhedra import dual_description

    n = len(points[0])
    h = _orthant_hull(points, n)
    expected = sorted(
        tuple(x.numerator for x in v) for v in dual_description(h).vertices
    )
    vertices = _orthant_vertices(h, points)
    minimal = minimalize_reference(points)
    event(f"all minimal points are vertices: {len(vertices) == len(minimal)}")
    assert sorted(vertices) == expected
