import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import certificate_check_reference, random_generators

from conefan import _kernel, _simplex
from conefan.errors import InputError, NotInConeError
from conefan.lp import (
    LpInstance,
    duality_check,
    price_polyhedron,
    representation_cost,
    simplex_solve,
)
from conefan.polyhedra import dual_description
from conefan.rational import dot, vec

V3 = [(1, 0), (0, 1), (1, 1)]


def test_simplex_optimal():
    out = simplex_solve(LpInstance.make([1, 1, 1], [[1, 0, 1], [0, 1, 1]], [1, 1]))
    assert out.status == "optimal"
    assert out.value == 1
    assert out.primal == vec([0, 0, 1])
    assert dot(vec([1, 1]), out.dual) == out.value


def test_simplex_zero_rhs():
    out = simplex_solve(LpInstance.make([1, 1, 1], [[1, 0, 1], [0, 1, 1]], [0, 0]))
    assert out.status == "optimal" and out.value == 0
    assert out.primal == vec([0, 0, 0])


def test_simplex_infeasible_farkas():
    out = simplex_solve(LpInstance.make([1], [[1], [0]], [0, 1]))
    assert out.status == "infeasible"
    y = out.dual
    assert y[0] * 1 + y[1] * 0 <= 0
    assert y[0] * 0 + y[1] * 1 > 0


def test_simplex_unbounded_ray():
    out = simplex_solve(LpInstance.make([-1, 0], [[1, -1]], [0]))
    assert out.status == "unbounded"
    d = out.primal
    assert all(x >= 0 for x in d)
    assert d[0] - d[1] == 0
    assert -d[0] < 0


def _random_instance(rng):
    r = rng.randint(1, 8)
    n = rng.randint(1, 5)
    A = [[Fraction(rng.randint(-9, 9)) for _ in range(r)] for _ in range(n)]
    b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
    c = [Fraction(rng.randint(-9, 9)) for _ in range(r)]
    return LpInstance.make(c, A, b)


def test_strong_duality_random_battery():
    rng = random.Random(2024)
    optimal = 0
    for _ in range(250):
        inst = _random_instance(rng)
        out = simplex_solve(inst)
        if out.status == "optimal":
            optimal += 1
            assert dot(inst.cost, out.primal) == out.value
            assert dot(inst.rhs, out.dual) == out.value
            assert all(x >= 0 for x in out.primal)
            for row, bi in zip(inst.matrix, inst.rhs):
                assert dot(row, out.primal) == bi
    assert optimal >= 20


def test_representation_cost_examples():
    r = representation_cost(V3, (1, 1, 1), (1, 1))
    assert r.value == 1 and r.witness == vec([0, 0, 1])
    r = representation_cost(V3, (1, 1, 1), (2, 1))
    assert r.value == 2 and r.witness == vec([1, 0, 1])
    r = representation_cost(V3, (0, 0, 0), (3, 7))
    assert r.value == 0


def test_representation_cost_domain_errors():
    with pytest.raises(NotInConeError):
        representation_cost(V3, (1, 1, 1), (-1, 0))
    with pytest.raises(InputError):
        representation_cost(V3, (1, -1, 1), (1, 1))
    with pytest.raises(NotInConeError):
        representation_cost([], (), (1,))
    assert representation_cost([], (), (0, 0)).value == 0


def _representation_outcome(gens, costs, target):
    try:
        return representation_cost(gens, costs, target)
    except NotInConeError:
        return NotInConeError


def test_representation_cost_int_and_fraction_inputs_agree():
    # int entries reach the simplex as ints, Fractions as Fractions: equal
    # values must give the identical optimum, whose value and witness are
    # Fractions either way
    rng = random.Random(23)
    cases = [(V3, (1, 1, 1), (2, 1)), (V3, (0, 2, 1), (-1, 0))]
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = random_generators(rng, rng.randint(1, 5), n)
        gens = [tuple(int(x) for x in g) for g in gens]
        costs = tuple(rng.randint(0, 6) for _ in gens)
        target = tuple(rng.randint(-1, 6) for _ in range(n))
        cases.append((gens, costs, target))
    solved = 0
    for gens, costs, target in cases:
        ints = _representation_outcome(gens, costs, target)
        fracs = _representation_outcome(
            [vec(g) for g in gens], vec(costs), vec(target)
        )
        mixed = _representation_outcome(
            [tuple(str(x) for x in g) for g in gens], costs, vec(target)
        )
        assert ints == fracs == mixed, (gens, costs, target)
        if ints is not NotInConeError:
            solved += 1
            assert type(ints.value) is Fraction
            assert all(type(x) is Fraction for x in ints.witness)
    assert 10 <= solved < len(cases)


@pytest.mark.parametrize("bad", [True, 1.0, "x"])
def test_representation_cost_rejects_bools_and_floats_on_any_memo(bad):
    # (True,) == (1,) as a memo key, so validation must come first; each
    # bad call equals the good one with 1 in place of the bad entry
    gens, costs, target = [(1, 0), (0, 1), (1, 1)], [1, 1, 1], [1, 1]
    calls = [
        ([(bad, 0), (0, 1), (1, 1)], costs, target),
        (gens, [bad, 1, 1], target),
        (gens, costs, [bad, 1]),
    ]
    for warm in (False, True):
        if warm:
            representation_cost(gens, costs, target)
        for args in calls:
            with pytest.raises(InputError):
                representation_cost(*args)


def test_price_polyhedron():
    Q = price_polyhedron(V3, (1, 1, 1))
    assert len(Q.inequalities) == 3
    assert Q.inequalities[0] == (vec([1, 0]), Fraction(1))
    homogeneous = price_polyhedron(V3, (0, 0, 0))
    V = dual_description(homogeneous)
    assert V.vertices == (vec([0, 0]),)
    assert set(V.rays) == {(-1, 0), (0, -1)}


def test_price_polyhedron_checks_a_given_ambient_dim():
    # with generators, a given ambient_dim must be their length; it is
    # never silently replaced by it
    Q = price_polyhedron([[1, 0]], [1])
    assert Q.ambient_dim == 2
    assert price_polyhedron([[1, 0]], [1], ambient_dim=2) == Q
    for dim in (1, 3):
        with pytest.raises(InputError, match=f"ambient_dim {dim} differs"):
            price_polyhedron([[1, 0]], [1], ambient_dim=dim)


def test_duality_check_examples():
    d = duality_check(V3, (1, 1, 1), (1, 1))
    assert d.primal_value == d.dual_value == 1 and d.gap_zero
    assert d.maximizer in (vec([1, 0]), vec([0, 1]))
    d = duality_check(V3, (1, 1, 1), (1, 0))
    assert d.primal_value == d.dual_value == 1
    assert d.maximizer == vec([1, 0])
    d = duality_check(V3, (1, 1, 1), (0, 0))
    assert d.primal_value == d.dual_value == 0


def test_duality_check_random_battery():
    rng = random.Random(99)
    for _ in range(200):
        r = rng.randint(1, 6)
        n = rng.randint(1, 4)
        gens = random_generators(rng, r, n)
        costs = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(r)]
        lam = [Fraction(rng.randint(0, 4)) for _ in range(r)]
        target = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n)]
        d = duality_check(gens, costs, target)
        assert d.gap_zero
        assert d.primal_value == d.dual_value


def test_value_homogeneity_and_subadditivity():
    rng = random.Random(42)
    checked = 0
    while checked < 150:
        r = rng.randint(1, 5)
        n = rng.randint(1, 4)
        gens = random_generators(rng, r, n)
        costs = [Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(r)]
        lam1 = [Fraction(rng.randint(0, 3)) for _ in range(r)]
        lam2 = [Fraction(rng.randint(0, 3)) for _ in range(r)]
        v1 = tuple(sum(l * g[i] for l, g in zip(lam1, gens)) for i in range(n))
        v2 = tuple(sum(l * g[i] for l, g in zip(lam2, gens)) for i in range(n))
        t = Fraction(rng.randint(0, 9), rng.randint(1, 4))
        f1 = representation_cost(gens, costs, v1).value
        f2 = representation_cost(gens, costs, v2).value
        scaled = representation_cost(gens, costs, tuple(t * x for x in v1)).value
        assert scaled == t * f1
        both = representation_cost(
            gens, costs, tuple(a + b for a, b in zip(v1, v2))
        ).value
        assert both <= f1 + f2
        checked += 1


@st.composite
def _cost_queries(draw):
    """Generators in the nonnegative orthant (a pointed cone, often of
    lower dimension), rational costs >= 0, two targets in the cone as
    integer combinations (possibly empty) and a rational scale t >= 0."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 5))
    gen = st.tuples(*[st.integers(0, 5)] * n).filter(any)
    gens = draw(st.lists(gen, min_size=r, max_size=r))
    cost = st.builds(Fraction, st.integers(0, 8), st.integers(1, 3))
    costs = draw(st.lists(cost, min_size=r, max_size=r))
    lams = st.lists(st.integers(0, 3), min_size=r, max_size=r)
    lam1, lam2 = draw(lams), draw(lams)
    t = draw(st.builds(Fraction, st.integers(0, 9), st.integers(1, 4)))
    return gens, costs, lam1, lam2, t


@settings(max_examples=150, deadline=None)
@given(_cost_queries())
@example(([(1, 2)], [Fraction(3)], [0], [0], Fraction(0)))
@example(([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [1, 1, 1], [1, 0, 2], [0, 3, 1], Fraction(5, 2)))
@example(([(1, 1, 1), (2, 2, 2)], [Fraction(1), Fraction(3)], [2, 1], [0, 0], Fraction(1, 3)))
@example(([(1, 0), (0, 1), (1, 1)], [0, 0, 0], [1, 1, 1], [3, 0, 2], Fraction(7)))
def test_value_sublinear_property(case):
    # phi(v) = representation_cost(gens, costs, v).value is positively
    # homogeneous and subadditive on the cone of the generators
    gens, costs, lam1, lam2, t = case
    n = len(gens[0])
    v1 = tuple(sum(l * g[i] for l, g in zip(lam1, gens)) for i in range(n))
    v2 = tuple(sum(l * g[i] for l, g in zip(lam2, gens)) for i in range(n))

    def phi(v):
        return representation_cost(gens, costs, v).value

    f1, f2 = phi(v1), phi(v2)
    assert phi(tuple(t * x for x in v1)) == t * f1
    assert phi(tuple(a + b for a, b in zip(v1, v2))) <= f1 + f2
    assert f1 <= sum(c * l for c, l in zip(costs, lam1))


def test_value_monotone_in_costs():
    rng = random.Random(8)
    for _ in range(80):
        r = rng.randint(1, 5)
        n = rng.randint(1, 3)
        gens = random_generators(rng, r, n)
        costs = [Fraction(rng.randint(0, 6)) for _ in range(r)]
        bumps = [Fraction(rng.randint(0, 3)) for _ in range(r)]
        higher = [a + b for a, b in zip(costs, bumps)]
        lam = [Fraction(rng.randint(0, 3)) for _ in range(r)]
        target = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        low = representation_cost(gens, costs, target).value
        high = representation_cost(gens, higher, target).value
        assert low <= high


def test_value_equals_vertex_minimum_formula():
    # the map costs -> value is the minimum of <costs, w> over the vertices
    # of the polytope part of the representation polyhedron
    rng = random.Random(31)
    from conefan.polyhedra import HPolyhedron

    for _ in range(40):
        r = rng.randint(1, 5)
        n = rng.randint(1, 3)
        gens = random_generators(rng, r, n)
        lam = [Fraction(rng.randint(0, 3)) for _ in range(r)]
        target = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        rows = []
        for i in range(r):
            normal = [Fraction(0)] * r
            normal[i] = Fraction(-1)
            rows.append((tuple(normal), Fraction(0)))
        eqs = [
            (tuple(g[i] for g in gens), target[i])
            for i in range(n)
        ]
        P = HPolyhedron.from_rows(rows, eqs, r)
        verts = dual_description(P).vertices
        assert verts
        for _ in range(4):
            costs = [Fraction(rng.randint(0, 7), rng.randint(1, 3)) for _ in range(r)]
            expect = min(dot(vec(costs), w) for w in verts)
            assert representation_cost(gens, costs, target).value == expect


def test_price_polyhedron_rejects_ragged_generators():
    # the zero generator [0] gives a row with zero normal, which used to be
    # dropped without a word, as representation_cost refuses it
    for gens in ([[1, 0], [0]], [[1, 0], [0, 1, 1]]):
        with pytest.raises(InputError, match="generator dimension mismatch"):
            price_polyhedron(gens, [1, 1])
        with pytest.raises(InputError, match="generator dimension mismatch"):
            representation_cost(gens, [1, 1], (1, 0))


def test_price_polyhedron_no_generators_is_whole_space():
    Q = price_polyhedron([], [], ambient_dim=2)
    assert not Q.inequalities and not Q.equalities and not Q.empty
    V = dual_description(Q)
    assert len(V.lineality) == 2


F = Fraction


def _ints(v):
    (nums,), (den,) = _kernel._to_int_rows([list(v)])
    return nums, den


def _check(kind, cert, c, A, b):
    """Run solve_standard's integer check of the given kind on a Fraction
    certificate: the message of the AssertionError it raises, None when
    it passes, or the value when an optimality check passes."""
    lp = _simplex._int_lp(list(c), [list(r) for r in A], list(b))
    try:
        if kind == "optimal":
            x, y = cert
            return _simplex._check_optimal(*_ints(x), *_ints(y), lp)
        if kind == "infeasible":
            _simplex._check_farkas(_ints(cert)[0], lp)
        else:
            _simplex._check_ray(_ints(cert)[0], lp)
    except AssertionError as exc:
        return str(exc)
    return None


# min c.x over A x = b, x >= 0, with non-unit denominators in c and in every row
_C = [F(1, 2), F(1, 3), F(2, 5)]
_A = [[F(1, 2), F(1), F(0)], [F(1, 3), F(0), F(2, 3)]]
_B = [F(3, 4), F(5, 6)]


def test_check_optimal_rejects_perturbed_certificates():
    res = _simplex.solve_standard(_C, _A, _B)
    assert res.status == "optimal"
    x, y = res.x, res.y
    assert any(v.denominator > 1 for v in x + y)
    assert _check("optimal", (x, y), _C, _A, _B) == res.value
    bumped = [x[0] + F(1, 7)] + list(x[1:])
    assert _check("optimal", (bumped, y), _C, _A, _B) == (
        "primal solution violates A x = b"
    )
    # column 1 of A^T y is y_0, and c_1 = 1/3
    broken = [F(1, 3) + F(1, 7), y[1]]
    assert _check("optimal", (x, broken), _C, _A, _B) == (
        "dual solution violates A^T y <= c"
    )
    # y = 0 is dual feasible for c >= 0, with b.y = 0 < c.x
    assert _check("optimal", (x, [F(0), F(0)]), _C, _A, _B) == (
        "nonzero duality gap in verified optimum"
    )


def test_check_farkas_rejects_zero_gain():
    # x/2 = 1/3 and x/3 = 1/2 have no common solution
    c, A, b = [F(1, 4)], [[F(1, 2)], [F(1, 3)]], [F(1, 3), F(1, 2)]
    res = _simplex.solve_standard(c, A, b)
    assert res.status == "infeasible"
    assert _check("infeasible", res.y, c, A, b) is None
    # A^T y = -5/12 <= 0, but b.y = -1/2 + 1/2 = 0
    flat = [F(-3, 2), F(1)]
    assert _check("infeasible", flat, c, A, b) == (
        "invalid Farkas certificate (b.y <= 0)"
    )


def test_check_ray_rejects_non_improving_ray():
    c = [F(-1, 2), F(0), F(0)]
    A = [[F(1, 3), F(-1, 5), F(1, 2)]]
    b = [F(1, 7)]
    res = _simplex.solve_standard(c, A, b)
    assert res.status == "unbounded"
    assert _check("unbounded", res.ray, c, A, b) is None
    # A d = -1 + 1 = 0 and d >= 0, but c.d = 0
    flat = [F(0), F(5, 3), F(2, 3)]
    assert _check("unbounded", flat, c, A, b) == (
        "ray does not improve the objective"
    )


_entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(-6, 6), st.integers(1, 6)))
_nudge = st.one_of(st.just(F(0)), st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 7)))


@st.composite
def _perturbed_certificates(draw):
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 4))
    A = [[draw(_entry) for _ in range(n)] for _ in range(m)]
    b = [draw(_entry) for _ in range(m)]
    c = [draw(_entry) for _ in range(n)]
    res = _simplex.solve_standard(c, A, b)

    def nudge(v):
        return [t + draw(_nudge) for t in v]

    if res.status == "optimal":
        cert = (nudge(res.x), nudge(res.y))
    elif res.status == "infeasible":
        cert = nudge(res.y)
    else:
        cert = nudge(res.ray)
    return res.status, cert, c, A, b


@settings(max_examples=400, deadline=None)
@given(_perturbed_certificates())
def test_integer_checks_reject_what_fraction_checks_reject(case):
    kind, cert, c, A, b = case
    got = _check(kind, cert, c, A, b)
    if kind == "optimal" and not isinstance(got, str):
        # a passing optimality check returns the value c.x
        assert got == dot(c, cert[0])
        got = None
    assert got == certificate_check_reference(kind, cert, c, A, b)


def test_lp_path_checks_survive_python_O():
    # under -O bare asserts vanish; these checks must still raise, the
    # last one where asymptotic_newton hands its orthant hull a point that
    # is not all ints
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "from conefan import _kernel, _simplex, lp\n"
        "_kernel.simplex_rows = lambda rows, den, basis, k: ('unbounded', 0, den)\n"
        "try:\n"
        "    _simplex.solve_standard([1], [[1]], [1])\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "_simplex.solve_int = lambda lp: _simplex.StandardResult(\n"
        "    'unbounded', ray=(1,))\n"
        "try:\n"
        "    lp.representation_cost([(1,)], [1], (1,))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "from fractions import Fraction\n"
        "from conefan import graded\n"
        "system = graded.GradedSystem.create(\n"
        "    1, 1, [(1,)], [graded.MonomialIdeal.from_exponents(1, [(1,)])])\n"
        "graded._minkowski_points = lambda parts, n: {(Fraction(1, 2),)}\n"
        "try:\n"
        "    graded.asymptotic_newton(system, (1,))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "phase 1 cannot be unbounded",
        "nonnegative costs cannot be unbounded",
        "hull point (Fraction(1, 2),) is not an integer point",
    ]
