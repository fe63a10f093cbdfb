"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact rational arithmetic, so every comparison below is
bit-exact; the only numeric thresholds are instance counts, the 95%
optimality rate of the pivot reduction, and wall-clock budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction

from helpers import (
    brute_recession_rays,
    brute_vertices,
    np_membership_set,
    random_generators,
    random_h_polyhedron,
)

from conefan.cli import main
from conefan.fans import (
    Fan,
    caratheodory_reduce,
    cone_from_generators,
    is_cost_linear_on,
    is_smooth,
    linearity_fan,
    normal_fan,
    refines,
    smooth_refine,
)
from conefan.graded import (
    GradedSystem,
    MonomialIdeal,
    asymptotic_limit_check,
    closure_equal,
    newton_hform,
)
from conefan.linalg import hermite_basis_det, rank
from conefan.lp import (
    LpInstance,
    duality_check,
    price_polyhedron,
    representation_cost,
    simplex_solve,
)
from conefan.polyhedra import UNBOUNDED, contains, minimize_linear
from conefan.rational import dot, ivec, primitive_int_vector, vec

MI = MonomialIdeal.from_exponents


def _passline(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def worked_system():
    return GradedSystem.create(
        2,
        2,
        [(1, 0), (0, 1), (1, 1)],
        [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1), (2, 0)])],
    )


def halfstep_system():
    return GradedSystem.create(
        1,
        2,
        [(1,), (2,)],
        [MI(2, [(2, 0), (0, 2)]), MI(2, [(1, 0), (0, 1)])],
    )


def trivial_system():
    return GradedSystem.create(1, 1, [(1,)], [MI(1, [(1,)])])


def test_criterion_1_lp_duality_suite():
    start = time.time()
    rng = random.Random(10)
    optimal_count = 0
    for _ in range(200):
        r = rng.randint(1, 8)
        n = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-9, 9)) for _ in range(r)] for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        c = [Fraction(rng.randint(-9, 9)) for _ in range(r)]
        inst = LpInstance.make(c, A, b)
        out = simplex_solve(inst)
        if out.status == "optimal":
            optimal_count += 1
            assert dot(inst.cost, out.primal) == out.value
            assert dot(inst.rhs, out.dual) == out.value
    assert optimal_count >= 20
    checked = 0
    for _ in range(200):
        r = rng.randint(1, 8)
        n = rng.randint(1, 5)
        gens = random_generators(rng, r, n, lo=0, hi=9)
        costs = [Fraction(rng.randint(0, 9)) for _ in range(r)]
        lam = [Fraction(rng.randint(0, 3)) for _ in range(r)]
        target = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        d = duality_check(gens, costs, target)
        assert d.gap_zero and d.primal_value == d.dual_value
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 30, f"runtime target exceeded: {elapsed:.1f}s"
    _passline(
        1,
        f"zero duality gap on {optimal_count} optimal of 200 random programs "
        f"and {checked} dual cross-checks in {elapsed:.1f}s",
    )


def test_criterion_2_vertex_minimization_suite():
    start = time.time()
    rng = random.Random(20)
    bounded = unbounded = 0
    count = 0
    while count < 100:
        dim = rng.randint(1, 4)
        P = random_h_polyhedron(rng, dim)
        u = vec([Fraction(rng.randint(-6, 6)) for _ in range(dim)])
        res = minimize_linear(P, u)
        rays = brute_recession_rays(P)
        negative_ray = any(dot(u, vec(r)) < 0 for r in rays)
        if res is UNBOUNDED:
            assert negative_ray, "flagged unbounded without a negative ray"
            unbounded += 1
        else:
            assert not negative_ray, "missed an unbounded direction"
            verts = brute_vertices(P)
            assert verts, "bounded minimum without vertices"
            assert res.value == min(dot(u, v) for v in verts)
            assert all(x.denominator >= 1 for x in res.argmin)
            assert contains(P, res.argmin)
            bounded += 1
        count += 1
    assert bounded >= 20 and unbounded >= 10
    elapsed = time.time() - start
    _passline(
        2,
        f"{bounded} bounded minima matched brute force, {unbounded} unbounded "
        f"flagged exactly, in {elapsed:.1f}s",
    )


GENERATOR_SETS = [
    [(1, 0), (0, 1), (1, 1)],
    [(1, 0), (0, 1), (1, 2)],
    [(1, 0), (0, 1), (2, 1), (1, 2)],
    [(2, 1), (1, 2)],
    [(1, 1), (1, 3), (3, 1)],
    [(1, 0), (1, 1), (1, 3)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1)],
]


def _sample_costs(rng, r):
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(r))


def test_criterion_3_linearity_suite():
    start = time.time()
    rng = random.Random(30)
    fan_cache = {}
    alpha_count = 50
    for gens in GENERATOR_SETS:
        fan = linearity_fan(gens)
        fan_cache[tuple(gens)] = fan
        for _ in range(alpha_count):
            costs = _sample_costs(rng, len(gens))
            for cone in fan.maximal_cones:
                assert is_cost_linear_on(gens, costs, cone), (
                    gens,
                    costs,
                    cone.rays,
                )
    # homogeneity and subadditivity on 500 random triples
    triples = 0
    while triples < 500:
        gens = GENERATOR_SETS[rng.randrange(len(GENERATOR_SETS))]
        n = len(gens[0])
        costs = _sample_costs(rng, len(gens))
        lam1 = [Fraction(rng.randint(0, 3)) for _ in gens]
        lam2 = [Fraction(rng.randint(0, 3)) for _ in gens]
        v1 = tuple(sum(l * g[i] for l, g in zip(lam1, gens)) for i in range(n))
        v2 = tuple(sum(l * g[i] for l, g in zip(lam2, gens)) for i in range(n))
        t = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        f1 = representation_cost(gens, costs, v1).value
        f2 = representation_cost(gens, costs, v2).value
        assert (
            representation_cost(gens, costs, tuple(t * x for x in v1)).value
            == t * f1
        )
        assert (
            representation_cost(
                gens, costs, tuple(a + b for a, b in zip(v1, v2))
            ).value
            <= f1 + f2
        )
        triples += 1
    # negative control: the value function bends inside the unrefined cone
    control = [(1, 0), (0, 1), (1, 1)]
    whole = cone_from_generators(control)
    assert not is_cost_linear_on(control, (1, 1, 1), whole)
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    _passline(
        3,
        f"linearity on every chamber for {len(GENERATOR_SETS)} generator sets x "
        f"{alpha_count} cost vectors, 500 homogeneity/subadditivity triples, "
        f"negative control bends, in {elapsed:.1f}s",
    )


def test_criterion_4_normal_fan_suite():
    start = time.time()
    rng = random.Random(40)
    checked = 0
    for gens in GENERATOR_SETS:
        fan = linearity_fan(gens)
        support = cone_from_generators(gens)
        gen_rays = {primitive_int_vector(ivec(g)) for g in gens}
        for _ in range(12):
            costs = _sample_costs(rng, len(gens))
            nf = normal_fan(price_polyhedron(gens, costs))
            assert nf.support_hull() == support
            for cone in nf.maximal_cones:
                for ray in cone.rays:
                    assert ray in gen_rays, (ray, gens)
            assert refines(fan, nf)
            checked += 1
    elapsed = time.time() - start
    _passline(
        4,
        f"{checked} normal fans: support equals the generator cone, rays from "
        f"the generator set, linearity fan refines each, in {elapsed:.1f}s",
    )


def test_criterion_5_caratheodory_suite():
    start = time.time()
    rng = random.Random(50)
    matched = 0
    total = 500
    for _ in range(total):
        r = rng.randint(2, 6)
        n = rng.randint(1, 4)
        gens = random_generators(rng, r, n)
        costs = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(r)]
        lam = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(r)]
        target = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        before = sum(l * c for l, c in zip(lam, costs))
        out = caratheodory_reduce(gens, costs, lam)
        after = sum(l * c for l, c in zip(out, costs))
        assert tuple(
            sum(l * g[i] for l, g in zip(out, gens)) for i in range(n)
        ) == target
        assert after <= before
        support = [gens[i] for i, x in enumerate(out) if x != 0]
        assert rank(support) == len(support)
        assert caratheodory_reduce(gens, costs, out) == out
        optimum = representation_cost(gens, costs, target).value
        assert after >= optimum, "pivot reduction beat the optimum"
        if after == optimum:
            matched += 1
    rate = matched / total
    assert rate >= 0.95, f"optimum matched in only {rate:.1%}"
    elapsed = time.time() - start
    _passline(
        5,
        f"{total} reductions preserve the vector with independent support; "
        f"optimum matched in {rate:.1%}, never beaten, in {elapsed:.1f}s",
    )


def test_criterion_6_smooth_refinement_suite():
    start = time.time()
    refined = 0
    for a in range(1, 8):
        for b in range(1, 8):
            base = cone_from_generators([(1, 0), (a, b)])
            if base.dim != 2:
                continue
            f = Fan.make([base], 2)
            sf = smooth_refine(f)
            for cone in sf.maximal_cones:
                assert is_smooth(cone)
                assert hermite_basis_det(cone.rays)[1] == 1
            assert refines(sf, f)
            refined += 1
    three_d = [
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 2, 4)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 5)],
        [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)],
    ]
    for gens in three_d:
        base = cone_from_generators(gens)
        f = Fan.make([base], 3)
        sf = smooth_refine(f)
        for cone in sf.maximal_cones:
            assert is_smooth(cone)
            assert hermite_basis_det(cone.rays)[1] == 1
        assert refines(sf, f)
        refined += 1
    elapsed = time.time() - start
    assert elapsed < 30, f"runtime target exceeded: {elapsed:.1f}s"
    _passline(
        6,
        f"{refined} cones refined to all-smooth fans with unchanged support "
        f"and unit lattice determinants in {elapsed:.1f}s",
    )


def test_criterion_7_end_to_end_verification(tmp_path, capsys):
    import json

    start = time.time()
    worked = {
        "ambient_dim": 2,
        "grading_rank": 2,
        "generators": [
            {"degree": [1, 0], "ideal": [[1, 0]]},
            {"degree": [0, 1], "ideal": [[0, 1]]},
            {"degree": [1, 1], "ideal": [[1, 1], [2, 0]]},
        ],
    }
    halfstep = {
        "ambient_dim": 2,
        "grading_rank": 1,
        "generators": [
            {"degree": [1], "ideal": [[2, 0], [0, 2]]},
            {"degree": [2], "ideal": [[1, 0], [0, 1]]},
        ],
    }
    wpath = tmp_path / "worked.json"
    wpath.write_text(json.dumps(worked))
    hpath = tmp_path / "halfstep.json"
    hpath.write_text(json.dumps(halfstep))

    code = main(["verify", str(wpath), "--p-bound", "4"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "VERIFIED (d = 1" in out

    code = main(["verify", str(wpath), "--p-bound", "4", "--no-refine"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FALSIFIED" in out
    assert "weight" in out and "tuple" in out

    code = main(["verify", str(hpath), "--p-bound", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFIED (d = 2" in out
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    _passline(
        7,
        "worked system verified with d=1, single-cone debug run falsified "
        f"with witness, half-step system verified with d=2, in {elapsed:.1f}s",
    )


def test_criterion_8_asymptotic_certification():
    start = time.time()
    systems = [worked_system(), halfstep_system(), trivial_system()]
    checked = 0
    for system in systems:
        weights = set()
        for ideal in system.ideals:
            if ideal.is_zero:
                continue
            for normal, _ in newton_hform(ideal).inequalities:
                w = tuple(-x for x in ivec(normal))
                if any(x < 0 for x in w) or all(x == 0 for x in w):
                    continue
                weights.add(primitive_int_vector(w))
        cone = system.degree_cone()
        s = system.grading_rank
        lattice = [
            pt
            for pt in _small_lattice_points(s, 4)
            if any(pt) and cone.contains_point(vec(pt))
        ]
        for w in sorted(weights):
            for m in lattice:
                lc = asymptotic_limit_check(system, w, m, 8)
                assert lc.consistent, (system.degrees, w, m, lc)
                checked += 1
    elapsed = time.time() - start
    _passline(
        8,
        f"{checked} (weight, degree) pairs: sequence dominates the LP value "
        f"and attains it within 8 steps, in {elapsed:.1f}s",
    )


def _small_lattice_points(dim, bound):
    out = []

    def scan(prefix, remaining):
        if len(prefix) == dim:
            out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            scan(prefix + [v], remaining - v)

    scan([], bound)
    return out


def test_criterion_9_closure_oracle():
    start = time.time()
    rng = random.Random(90)
    agreements = 0
    total = 200
    for _ in range(total):
        n = rng.randint(1, 3)
        gens_a = [[rng.randint(0, 6) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        gens_b = [[rng.randint(0, 6) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        I = MI(n, gens_a)
        if rng.random() < 0.35:
            bumped = [min(6, e + rng.randint(0, 1)) for e in gens_a[0]]
            J = MI(n, gens_a + [bumped])
        else:
            J = MI(n, gens_b)
        got = closure_equal(I, J)
        expect = np_membership_set(I, 30) == np_membership_set(J, 30)
        assert got == expect, (I.gens, J.gens)
        agreements += 1
    assert agreements == total
    elapsed = time.time() - start
    _passline(
        9,
        f"{agreements}/{total} random ideal pairs agree with the bounded "
        f"lattice-point oracle in {elapsed:.1f}s",
    )
