"""Shared oracles and random-instance generators for the test suite.

The brute-force routines here are deliberately independent of the library
paths they validate: vertices by enumerating constraint subsets, recession
rays from the homogeneous system, Newton-polyhedron membership by direct
inequality evaluation on integer points, minimal generators by pairwise
divisibility, row reduction and simplex pivoting by plain Fraction
arithmetic, lattice determinants by one elimination pass per minor,
canonical bases and H-forms by Fraction row reduction, parallelepiped
points by a bounding-box scan, representations of a degree by a search
bounded only by the theta-weight, projection by
Fourier-Motzkin elimination with LP redundancy removal, the linearity fan
by cutting every chamber with every hyperplane, its cut normals by
minors, stellar scores by building the trial subdivision, simplicial
cones by double description, the verifier's cone checks with nothing
shared between cones, the ideal of a degree with a fresh power for every
factor, and the value classes as the frozen dataclasses they stand for.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from conefan import _kernel, fans
from conefan._simplex import StandardResult, solve_standard
from conefan.errors import (
    BudgetExceededError,
    CapExceededError,
    InputError,
    InternalError,
    NotInConeError,
    NotPointedError,
)
from conefan.linalg import kernel_basis, linear_solve, rank, rref
from conefan.polyhedra import (
    DEFAULT_DIM_CAP,
    HPolyhedron,
    canonical_h,
    contains,
    dual_description,
    minimize_linear,
)
from conefan.rational import Vec, dot, frac, primitive_direction, sign_normal, vec


def brute_vertices(P: HPolyhedron) -> set:
    """0-faces by enumerating dim-subsets of tight constraints."""
    n = P.ambient_dim
    rows = [(vec(a), b) for a, b in P.inequalities] + [
        (vec(a), b) for a, b in P.equalities
    ]
    out = set()
    for subset in combinations(range(len(rows)), n):
        A = tuple(rows[i][0] for i in subset)
        b = vec([rows[i][1] for i in subset])
        if rank(A) != n:
            continue
        sol = linear_solve(A, b)
        if sol is None:
            continue
        x = sol.particular
        if contains(P, x):
            out.add(x)
    return out


def brute_recession_rays(P: HPolyhedron) -> set:
    """Extreme rays of the recession cone, assuming it is pointed."""
    from conefan.rational import primitive_direction

    n = P.ambient_dim
    normals = [vec(a) for a, _ in P.inequalities] + [
        vec(a) for a, _ in P.equalities
    ] + [vec(tuple(-x for x in a)) for a, _ in P.equalities]
    out = set()
    for size in range(n):
        for subset in combinations(range(len(normals)), size):
            A = tuple(normals[i] for i in subset)
            if A and rank(A) != n - 1:
                continue
            if not A and n != 1:
                continue
            from conefan.linalg import kernel_basis

            kb = kernel_basis(A) if A else ((Fraction(1),),)
            if len(kb) != 1:
                continue
            for cand in (kb[0], tuple(-x for x in kb[0])):
                if all(dot(u, cand) <= 0 for u, _ in P.inequalities) and all(
                    dot(u, cand) == 0 for u, _ in P.equalities
                ):
                    tight = [
                        u
                        for u, _ in P.inequalities
                        if dot(u, cand) == 0
                    ] + [u for u, _ in P.equalities] + [
                        vec(tuple(-x for x in u)) for u, _ in P.equalities
                    ]
                    if rank(tight) == n - 1:
                        out.add(primitive_direction(cand))
    return out


def minimalize_reference(exponents) -> tuple:
    """Minimal generators by the quadratic divisibility scan, in sorted order.

    Sorting first means any exponent dividing e sorts before e, so one pass
    against the generators already kept suffices.
    """
    pts = sorted(set(exponents))
    keep = []
    for e in pts:
        if not any(
            all(f[i] <= e[i] for i in range(len(e))) for f in keep if f != e
        ):
            keep.append(e)
    return tuple(keep)


def newton_polyhedron_reference(I):
    """Newton polyhedron by the V-route: canonical_vrep of the raw
    conv(generator exponents) + orthant, without any hull shortcut."""
    from conefan.polyhedra import VRepresentation, canonical_vrep

    n = I.ambient
    unit_rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return canonical_vrep(
        VRepresentation.make(
            vertices=[vec(g) for g in I.gens], rays=unit_rays, ambient_dim=n
        )
    )


def orthant_hull_reference(points, n: int):
    """conv(points) + nonnegative orthant by the V-route: a VRepresentation
    of the minimal points (Fractions) and the unit rays, then vrep_to_h."""
    from conefan.graded import _minimalize
    from conefan.polyhedra import VRepresentation, vrep_to_h

    unit_rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return vrep_to_h(
        VRepresentation.make(
            vertices=_minimalize(points), rays=unit_rays, ambient_dim=n
        )
    )


def scale_polyhedron_reference(P: HPolyhedron, t) -> HPolyhedron:
    """The dilate t*P by scaling every offset in Fractions and clearing
    denominators row by row with primitive_direction."""
    t = Fraction(t)
    if P.empty:
        return P
    ineq_rows = sorted(
        primitive_direction((*normal, offset * t)) for normal, offset in P.inequalities
    )
    eq_rows = sorted(
        sign_normal(primitive_direction((*normal, offset * t)))
        for normal, offset in P.equalities
    )
    return HPolyhedron(
        tuple((r[:-1], r[-1]) for r in ineq_rows),
        tuple((r[:-1], r[-1]) for r in eq_rows),
        P.ambient_dim,
    )



def homogeneous_rows_reference(P: HPolyhedron) -> tuple:
    """Integer rows of the homogenization by negating each normal in
    Fractions and clearing denominators row by row with primitive_direction."""
    rows = set()
    for normal, offset in P.inequalities:
        rows.add(primitive_direction((*(-Fraction(x) for x in normal), offset)))
    for normal, offset in P.equalities:
        r = primitive_direction((*(-Fraction(x) for x in normal), offset))
        rows.add(r)
        rows.add(tuple(-x for x in r))
    t_row = tuple([0] * P.ambient_dim + [1])
    rows.discard(t_row)
    return (t_row,) + tuple(sorted(rows))


def primitive_reference(v) -> tuple:
    """Primitive integer vector on the ray of a rational vector, in
    Fractions: divide by the absolute value of the first nonzero entry,
    then scale by the lcm of the denominators, which leaves entries with
    gcd 1 and no division by a gcd.  The zero vector maps to itself."""
    v = [Fraction(x) for x in v]
    head = next((abs(x) for x in v if x != 0), Fraction(1))
    v = [x / head for x in v]
    scale = 1
    for x in v:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    return tuple(int(x * scale) for x in v)


def _det_reference(rows) -> int:
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det_reference([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def adjugate_reference(rows) -> tuple:
    """(adj, det) of a square integer matrix from its definition: adj[j][i]
    is the (i, j) cofactor, each minor expanded along its first row."""
    rows = [list(r) for r in rows]
    n = len(rows)
    adj = [
        [
            (-1) ** (i + j)
            * _det_reference([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
            for i in range(n)
        ]
        for j in range(n)
    ]
    return adj, _det_reference(rows)


def sign_normal_reference(v) -> tuple:
    """The vector or its negative: a positive first nonzero entry is the
    lexicographically larger of the two."""
    return max(tuple(v), tuple(-x for x in v))


def frame_reference(vectors) -> tuple:
    """First coordinate set, in lexicographic order, on which the vectors
    have their full rank, by trying coordinate combinations in turn, with
    one Fraction rank each: the search fans._ray_frame and
    graded._basic_solutions ran before they read echelon pivots."""
    k = rank(vectors)
    if k == 0:
        return ()
    return next(
        coords
        for coords in combinations(range(len(vectors[0])), k)
        if rank([[v[i] for i in coords] for v in vectors]) == k
    )


def cut_normals_reference(generators) -> tuple:
    """The sorted primitive, sign-normal cut normals of integer generators
    on their frame (frame_reference): for every (k - 1)-set of the
    generators' frame coordinates, the signed (k - 1)-minors of its rows,
    which span their kernel and all vanish exactly when the rows have rank
    below k - 1.  This is the minor loop fans._cut_frame ran before it read
    its cuts off the bases' adjugates."""
    frame = frame_reference(generators)
    k = len(frame)
    coord_gens = [[g[i] for i in frame] for g in generators]
    cuts = set()
    for rows in combinations(coord_gens, k - 1) if k else ():
        u = [
            (-1) ** j * _det_reference([r[:j] + r[j + 1 :] for r in rows])
            for j in range(k)
        ]
        if any(u):
            cuts.add(sign_normal_reference(primitive_reference(u)))
    return tuple(sorted(cuts))


def rref_reference(rows):
    """Gauss-Jordan elimination on Fractions; (rows, pivot columns).
    Integer entries, which linalg.rref passes as they are, become Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pr = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        pivot_reference(m, row, col)
        pivots.append(col)
        row += 1
    return m, pivots


def pivot_reference(tab, prow, pcol):
    """One Gauss-Jordan pivot on a Fraction tableau, in place."""
    piv = tab[prow][pcol]
    if piv != 1:
        tab[prow] = [x / piv for x in tab[prow]]
    prow_vals = tab[prow]
    for i in range(len(tab)):
        if i != prow and tab[i][pcol] != 0:
            f = tab[i][pcol]
            tab[i] = [a - f * b for a, b in zip(tab[i], prow_vals)]


def gauss_jordan_reference(rows):
    """Gauss-Jordan elimination on Fractions, with _kernel.gauss_jordan's
    return value (den, pivots, sign): den is the absolute value of the
    product of the pivot entries as they are met, sign that product's sign
    times the sign of the row swaps, and each row is replaced in place by
    its reduced row times den, which must be an integer row."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    det = Fraction(1)
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pr = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if pr is None:
            continue
        if pr != row:
            m[row], m[pr] = m[pr], m[row]
            det = -det
        det *= m[row][col]
        pivot_reference(m, row, col)
        pivots.append(col)
    den = abs(det)
    for i, r in enumerate(m):
        scaled = [x * den for x in r]
        if any(x.denominator != 1 for x in scaled):
            raise AssertionError(f"row {i} times {den} is not integral")
        rows[i] = [int(x) for x in scaled]
    return int(den), pivots, 1 if det > 0 else -1


def pivot_det_reference(work) -> int:
    """Determinant of the leading n x n block of the n integer rows of
    work, reduced in place by one fraction-free Gauss-Jordan pass of its
    own (_kernel._pivot, row swaps only below the pivot), stopping at the
    first column with no pivot: the pass linalg.int_adjugate and
    echelon_lattice_det ran before both read conefan._kernel.gauss_jordan."""
    n = len(work)
    sign = 1
    den = 1
    for k in range(n):
        p = next((i for i in range(k, n) if work[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            work[k], work[p] = work[p], work[k]
            sign = -sign
        if work[k][k] < 0:
            sign = -sign
        den = _kernel._pivot(work, den, k, k)
    return sign * den


def lattice_det_reference(rows) -> int:
    """gcd of the maximal minors of integer rows (1 for no rows), one
    determinant pass per minor: the loop linalg.echelon_lattice_det ran
    before it read the pivots of the transpose's echelon."""
    if not rows:
        return 1
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, pivot_det_reference([[row[c] for c in cols] for row in rows]))
        if g == 1:
            break
    return g


def canonical_basis_reference(vectors) -> tuple:
    """Primitive rows of the Fraction reduced echelon form of rational
    vectors: the route _dd._canonical_basis took before it read
    gauss_jordan's integer rows."""
    if not vectors:
        return ()
    red, pivots = rref_reference(vectors)
    return tuple(primitive_direction(tuple(r)) for r in red[: len(pivots)])


def reduce_mod_equalities_reference(rows, eq_red, eq_pivots) -> list:
    """Reduce each (normal, offset) row modulo the Fraction reduced rows
    eq_red of the equalities, one pivot at a time; a row whose normal
    vanishes is dropped, or is an absurd row when its offset is negative."""
    out = []
    for normal, offset in rows:
        aug = list(normal) + [offset]
        for i, p in enumerate(eq_pivots):
            if aug[p] != 0:
                f = aug[p]
                aug = [a - f * b for a, b in zip(aug, eq_red[i])]
        normal2 = tuple(aug[:-1])
        offset2 = aug[-1]
        if all(x == 0 for x in normal2):
            if offset2 < 0:
                raise InternalError("facet reduced to an absurd row")
            continue
        out.append((normal2, offset2))
    return out


def hform_from_dd_reference(lin, rays, n: int) -> HPolyhedron:
    """polyhedra._hform_from_dd on Fractions: the equalities' reduced
    echelon form by rref_reference, each inequality reduced modulo it by
    reduce_mod_equalities_reference, every row then made primitive, and
    the equality rows sign-normal."""
    ineqs = []
    for r in rays:
        if not any(r[:n]):
            if r[n] < 0:
                raise InternalError("homogenized hull gave an absurd row")
            continue
        ineqs.append(tuple(-x for x in r[:n]) + (r[n],))
    eqs = [list(l[:n]) + [-l[n]] for l in lin]
    red, pivots = rref_reference(eqs)
    if pivots and pivots[-1] == n:
        raise InternalError("inconsistent affine hull")
    eq_red = red[: len(pivots)]
    reduced = reduce_mod_equalities_reference(
        [(r[:n], r[n]) for r in ineqs], eq_red, pivots
    )
    ineq_rows = sorted({primitive_direction((*a, c)) for a, c in reduced})
    eq_rows = sorted({sign_normal(primitive_direction(r)) for r in eq_red})
    return HPolyhedron(
        tuple((r[:-1], r[-1]) for r in ineq_rows),
        tuple((r[:-1], r[-1]) for r in eq_rows),
        n,
    )


def simplex_core_reference(tableau, basis, allowed_cols):
    """Bland-rule simplex on a Fraction tableau, dividing out every ratio.

    tableau: (m+1) x (n+1) Fractions, last row = reduced costs, last column
    = right-hand side; only columns < allowed_cols may enter.  The inputs
    are not modified.  Returns (status, entering_col, tableau, basis) as
    conefan._kernel.simplex_rows would leave them, in Fractions.
    """
    tab = [list(r) for r in tableau]
    basis = list(basis)
    m = len(tab) - 1
    rhs_col = len(tab[0]) - 1
    while True:
        enter = next((j for j in range(allowed_cols) if tab[m][j] < 0), -1)
        if enter < 0:
            return "optimal", -1, tab, basis
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][rhs_col] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", enter, tab, basis
        pivot_reference(tab, leave, enter)
        basis[leave] = enter


def solve_standard_reference(c, A, b):
    """Two-phase Bland simplex on Fraction tableaux, dividing out every ratio.

    The Fraction route conefan._simplex.solve_standard replaced: same
    tableau, same pivot rule, duals read as c_B times the artificial
    columns.  Returns (status, x, y, ray, value) without certificate checks.
    """
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    m, n = len(rows), len(c)
    signs = [-1 if v < 0 else 1 for v in rhs]
    tab = []
    for i in range(m):
        row = [signs[i] * v for v in rows[i]] + [Fraction(0)] * m
        row += [signs[i] * rhs[i]]
        row[n + i] = Fraction(1)
        tab.append(row)
    obj = [-sum((tab[i][j] for i in range(m)), Fraction(0)) for j in range(n)]
    obj += [Fraction(0)] * m + [-sum((tab[i][-1] for i in range(m)), Fraction(0))]
    tab.append(obj)
    status, _, tab, basis = simplex_core_reference(tab, list(range(n, n + m)), n)
    assert status == "optimal"
    if tab[m][-1] < 0:
        y = tuple(signs[i] * (1 - tab[m][n + i]) for i in range(m))
        return "infeasible", None, y, None, None
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                pivot_reference(tab, i, piv)
                basis[i] = piv
    cb = [c[k] if k < n else Fraction(0) for k in basis]
    obj = [c[j] if j < n else Fraction(0) for j in range(n + m + 1)]
    for i in range(m):
        obj = [o - cb[i] * v for o, v in zip(obj, tab[i])]
    tab[m] = obj
    status, enter, tab, basis = simplex_core_reference(tab, basis, n)
    if status == "unbounded":
        ray = [Fraction(0)] * n
        ray[enter] = Fraction(1)
        for i in range(m):
            if basis[i] < n:
                ray[basis[i]] = -tab[i][enter]
        return "unbounded", None, None, tuple(ray), None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    cb = [c[k] if k < n else Fraction(0) for k in basis]
    y = tuple(
        signs[k] * sum((cb[i] * tab[i][n + k] for i in range(m)), Fraction(0))
        for k in range(m)
    )
    return "optimal", tuple(x), y, None, dot(c, x)


def certificate_check_reference(kind, cert, c, A, b):
    """The Fraction certificate tests that solve_standard applies: the
    message of the first test a certificate fails, or None when it holds.

    kind "optimal" takes cert = (x, y), "infeasible" a Farkas y and
    "unbounded" an improving ray.
    """
    m, n = len(A), len(c)
    col = [[A[i][j] for i in range(m)] for j in range(n)]
    if kind == "infeasible":
        if any(dot(col[j], cert) > 0 for j in range(n)):
            return "invalid Farkas certificate (A^T y > 0)"
        if dot(b, cert) <= 0:
            return "invalid Farkas certificate (b.y <= 0)"
        return None
    if kind == "unbounded":
        if any(v < 0 for v in cert):
            return "improving ray has a negative entry"
        if any(dot(row, cert) != 0 for row in A):
            return "improving ray violates A d = 0"
        if dot(c, cert) >= 0:
            return "ray does not improve the objective"
        return None
    x, y = cert
    if any(v < 0 for v in x):
        return "primal solution has a negative entry"
    if any(dot(A[i], x) != b[i] for i in range(m)):
        return "primal solution violates A x = b"
    if any(dot(col[j], y) > c[j] for j in range(n)):
        return "dual solution violates A^T y <= c"
    if dot(c, x) != dot(b, y):
        return "nonzero duality gap in verified optimum"
    return None


def random_h_polyhedron(rng: random.Random, dim: int, nonempty=True) -> HPolyhedron:
    """Random rational H-polyhedron; nonempty by construction when asked."""
    count = rng.randint(dim, 2 * dim + 2)
    anchor = vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)])
    rows = []
    for _ in range(count):
        normal = [Fraction(rng.randint(-9, 9)) for _ in range(dim)]
        if all(x == 0 for x in normal):
            normal[rng.randrange(dim)] = Fraction(1)
        if nonempty:
            slack = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            offset = dot(vec(normal), anchor) + slack
        else:
            offset = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        rows.append((tuple(normal), offset))
    return HPolyhedron.from_rows(rows, (), dim)


# five generators in rank 3 whose linearity fan has a chamber that a
# basis cone meets only in a ray, though no facet normal separates them
STRADDLE_GENS = [(0, 0, 1), (4, 0, 1), (2, 3, 1), (-3, 3, 1), (2, -4, 1)]


def random_generators(rng: random.Random, r: int, n: int, lo=0, hi=5):
    """Random generator set spanning a pointed cone inside the orthant."""
    gens = []
    while len(gens) < r:
        g = tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))
        if all(x == 0 for x in g):
            continue
        gens.append(g)
    return gens


def random_graded_system(rng: random.Random, allow_zero: bool = False):
    """Random graded system of the verifier's corpus: grading rank s and
    ambient dimension n in 2..3, s to s + 2 distinct nonzero degrees with
    entries 0..3 (so the degree cone is pointed), and ideals of 1..3
    generators with entries 0..3; with allow_zero, one ideal may be zero."""
    from conefan.graded import GradedSystem, MonomialIdeal

    s = rng.randint(2, 3)
    n = rng.randint(2, 3)
    degrees: list[tuple] = []
    count = rng.randint(s, s + 2)
    while len(degrees) < count:
        g = tuple(rng.randint(0, 3) for _ in range(s))
        if any(g) and g not in degrees:
            degrees.append(g)
    ideals = [
        MonomialIdeal.from_exponents(
            n,
            [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))],
        )
        for _ in degrees
    ]
    if allow_zero and rng.random() < 0.5:
        ideals[rng.randrange(count)] = MonomialIdeal.zero(n)
    return GradedSystem.create(s, n, degrees, ideals)


def np_membership_set(I, bound: int) -> frozenset:
    """Integer points of the Newton polyhedron with coordinate sum <= bound."""
    from conefan.graded import newton_hform
    from conefan.rational import ivec

    H = newton_hform(I)
    n = I.ambient
    rows = [(ivec(a), int(b)) for a, b in H.inequalities]
    member = []

    def scan(prefix, remaining):
        if len(prefix) == n:
            for a, b in rows:
                if sum(x * y for x, y in zip(a, prefix)) > b:
                    return
            member.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            scan(prefix + [v], remaining - v)

    scan([], bound)
    return frozenset(member)


def representations_reference(sys, m) -> tuple:
    """Representations of degree m by the unpruned theta-weight search.

    The search graded._representations ran before it pruned by
    suffix-cone membership: every level tries each exponent up to the
    remaining theta-weight and only the leaves check the remainder.
    """
    from conefan.rational import idot

    theta = sys._theta
    degrees = sys.degrees
    weights = [idot(theta, d) for d in degrees]
    target_weight = idot(theta, m)
    found = []

    def dfs(idx, remaining, remaining_weight, prefix):
        if idx == len(degrees):
            if all(x == 0 for x in remaining):
                found.append(tuple(prefix))
            return
        top = 0 if sys.ideals[idx].is_zero else remaining_weight // weights[idx]
        for l in range(top + 1):
            prefix.append(l)
            dfs(
                idx + 1,
                tuple(r - l * d for r, d in zip(remaining, degrees[idx])),
                remaining_weight - l * weights[idx],
                prefix,
            )
            prefix.pop()

    if target_weight >= 0:
        dfs(0, tuple(m), target_weight, [])
    return tuple(found)


def maximize_over_h(
    objective: Sequence,
    inequalities: Sequence[tuple[Sequence, object]],
    equalities: Sequence[tuple[Sequence, object]],
    dim: int,
) -> StandardResult:
    """Maximize <objective, x> over an H-system with free variables.

    Splits x = u - w with u, w >= 0 and adds one slack per inequality.
    Returns a StandardResult whose value (when optimal) is the maximum and
    whose x is a maximizer in the original coordinates.
    """
    n_ineq = len(inequalities)
    A = []
    b = []
    for idx, (normal, offset) in enumerate(inequalities):
        row = [frac(v) for v in normal] + [-frac(v) for v in normal]
        row += [Fraction(0)] * n_ineq
        row[2 * dim + idx] = Fraction(1)
        A.append(row)
        b.append(frac(offset))
    for normal, offset in equalities:
        row = [frac(v) for v in normal] + [-frac(v) for v in normal]
        row += [Fraction(0)] * n_ineq
        A.append(row)
        b.append(frac(offset))
    c = [-frac(v) for v in objective] + [frac(v) for v in objective]
    c += [Fraction(0)] * n_ineq
    res = solve_standard(c, A, b)
    if res.status != "optimal":
        return res
    x = tuple(res.x[i] - res.x[dim + i] for i in range(dim))
    return StandardResult(status="optimal", x=x, value=-res.value)


# Fourier-Motzkin projection with exact LP redundancy removal; the library
# projects through the double description instead.
_FM_ROW_BUDGET = 2000
_LP_PRUNE_THRESHOLD = 24


def _prune_rows(
    ineqs: list[tuple[Vec, Fraction]],
    eqs: list[tuple[Vec, Fraction]],
    dim: int,
    force_lp: bool,
):
    """Cheap dedup plus (optionally) exact LP redundancy removal.

    Returns None when the system is detected infeasible.
    """
    seen = {}
    for normal, offset in ineqs:
        row = primitive_direction((*normal, offset))
        key, off = row[:-1], row[-1]
        zero_normal = all(x == 0 for x in key)
        if zero_normal:
            if off < 0:
                return None
            continue
        # identical normals keep the tightest offset
        prev = seen.get(key)
        if prev is None or (off, ) < prev[1:]:
            seen[key] = (key, off)
    rows = [
        (vec(k), Fraction(off))
        for k, (key, off) in sorted(seen.items())
    ]
    if not force_lp and len(rows) <= _LP_PRUNE_THRESHOLD:
        return rows
    kept = list(rows)
    i = 0
    while i < len(kept):
        candidate = kept[i]
        rest = kept[:i] + kept[i + 1 :]
        res = maximize_over_h(candidate[0], rest, eqs, dim)
        if res.status == "infeasible":
            return None
        if res.status == "optimal" and res.value <= candidate[1]:
            kept.pop(i)
        else:
            i += 1
    return kept


def project_fm_reference(P: HPolyhedron, keep: Sequence[int]) -> HPolyhedron:
    """Image of P under projection onto the 0-based coordinates in `keep`,
    by elimination: the independent oracle for conefan.polyhedra.project.

    Variables outside `keep` are eliminated one at a time: by substitution
    when they occur in an equality, by Fourier-Motzkin combination of the
    positive and negative inequality rows otherwise.  Redundant rows are
    removed by exact feasibility tests along the way.  Works in any
    ambient dimension; the result is canonical when at most
    DEFAULT_DIM_CAP coordinates are kept.
    """
    keep = sorted(set(keep))
    n = P.ambient_dim
    if any(k < 0 or k >= n for k in keep):
        raise InputError("projection indices out of range")
    if not keep:
        raise InputError("projection needs at least one coordinate")
    if P.empty:
        return HPolyhedron.make_empty(len(keep))
    ineqs = [(vec(a), frac(b)) for a, b in P.inequalities]
    eqs = [(vec(a), frac(b)) for a, b in P.equalities]
    drop = [j for j in range(n) if j not in keep]
    while drop:
        # eliminate the variable with the fewest pairings first
        def fm_cost(j):
            pos = sum(1 for a, _ in ineqs if a[j] > 0)
            neg = sum(1 for a, _ in ineqs if a[j] < 0)
            return pos * neg

        subst = [j for j in drop if any(a[j] != 0 for a, _ in eqs)]
        if subst:
            j = subst[0]
            eq = next((row for row in eqs if row[0][j] != 0))
            eqs.remove(eq)
            enorm, eoff = eq

            def substitute(row):
                a, b = row
                if a[j] == 0:
                    return row
                f = a[j] / enorm[j]
                return (
                    tuple(x - f * y for x, y in zip(a, enorm)),
                    b - f * eoff,
                )

            ineqs = [substitute(r) for r in ineqs]
            eqs = [substitute(r) for r in eqs]
        else:
            j = min(drop, key=fm_cost)
            pos = [r for r in ineqs if r[0][j] > 0]
            neg = [r for r in ineqs if r[0][j] < 0]
            zero = [r for r in ineqs if r[0][j] == 0]
            combos = []
            for (ap, bp) in pos:
                for (an, bn) in neg:
                    coef_p = ap[j]
                    coef_n = -an[j]
                    normal = tuple(
                        coef_n * x + coef_p * y for x, y in zip(ap, an)
                    )
                    combos.append((normal, coef_n * bp + coef_p * bn))
            ineqs = zero + combos
        drop.remove(j)
        pruned = _prune_rows(ineqs, eqs, n, force_lp=False)
        if pruned is None:
            return HPolyhedron.make_empty(len(keep))
        ineqs = pruned
        if len(ineqs) > _FM_ROW_BUDGET:
            raise BudgetExceededError(
                f"projection exceeded {_FM_ROW_BUDGET} intermediate rows"
            )
    proj_ineqs = [
        (tuple(a[k] for k in keep), b)
        for a, b in ineqs
        if all(a[j] == 0 for j in range(n) if j not in keep)
    ]
    proj_eqs = [
        (tuple(a[k] for k in keep), b)
        for a, b in eqs
        if all(a[j] == 0 for j in range(n) if j not in keep)
    ]
    if len(proj_ineqs) != len(ineqs) or len(proj_eqs) != len(eqs):
        raise InternalError("eliminated variable left a nonzero coefficient")
    out = HPolyhedron.from_rows(proj_ineqs, proj_eqs, ambient_dim=len(keep))
    if len(keep) <= DEFAULT_DIM_CAP:
        return canonical_h(out)
    return out


def asymptotic_newton_via_lift(system, m):
    """Literal lift-and-project route to the limit Newton polyhedron.

    Builds {(l, u, x) : l >= 0, sum l_i m_i = m, u a convex splitting of
    each l_i over the Newton polyhedron vertices of ideal i, x >= sum u V}
    and projects to the x block with Fourier-Motzkin.  Serves as the
    independent oracle for conefan.graded.asymptotic_newton.
    """
    from conefan.graded import newton_polyhedron
    from conefan.rational import ivec

    m = ivec(m)
    n = system.ambient
    pairs = [
        (d, I) for d, I in zip(system.degrees, system.ideals) if not I.is_zero
    ]
    degrees = [p[0] for p in pairs]
    ideals = [p[1] for p in pairs]
    vertex_lists = [newton_polyhedron(I).vertices for I in ideals]
    k = len(degrees)
    mu_count = sum(len(v) for v in vertex_lists)
    total = k + mu_count + n
    eqs = []
    for row in range(system.grading_rank):
        normal = [Fraction(0)] * total
        for i in range(k):
            normal[i] = Fraction(degrees[i][row])
        eqs.append((tuple(normal), Fraction(m[row])))
    offset = k
    mu_index = []
    for i, verts in enumerate(vertex_lists):
        idxs = list(range(offset, offset + len(verts)))
        mu_index.append(idxs)
        offset += len(verts)
        normal = [Fraction(0)] * total
        normal[i] = Fraction(1)
        for j in idxs:
            normal[j] = Fraction(-1)
        eqs.append((tuple(normal), Fraction(0)))
    ineqs = []
    for i in range(k + mu_count):
        row = [Fraction(0)] * total
        row[i] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    for coord in range(n):
        row = [Fraction(0)] * total
        for i, verts in enumerate(vertex_lists):
            for j, v in zip(mu_index[i], verts):
                row[j] = v[coord]
        row[k + mu_count + coord] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    lifted = HPolyhedron.from_rows(ineqs, eqs, ambient_dim=total)
    return project_fm_reference(lifted, range(k + mu_count, total))


def representation_vertices_reference(system, m) -> tuple:
    """Vertices of the representation polytope {l >= 0 : sum l_i d_i = m}
    over the degrees with nonzero ideal, as Fraction tuples, from the
    double description of its H-form.  Raises NotInConeError when the
    polytope is empty and InternalError when it is unbounded."""
    degrees, _ = system.nonzero_part()
    r = len(degrees)
    nonneg = [(tuple(-1 if j == i else 0 for j in range(r)), 0) for i in range(r)]
    eqs = [(tuple(d[j] for d in degrees), m[j]) for j in range(system.grading_rank)]
    polytope = dual_description(HPolyhedron.from_rows(nonneg, eqs, ambient_dim=r))
    if polytope.empty:
        raise NotInConeError(f"degree {tuple(m)} admits no representation")
    if polytope.rays or polytope.lineality:
        raise InternalError("representation polytope unbounded")
    return polytope.vertices


def asymptotic_newton_reference(system, m):
    """Limit Newton polyhedron as the V-route hull of the Fraction weighted
    Minkowski sums at the vertices of representation_vertices_reference."""
    from conefan.graded import _minkowski_points, newton_polyhedron

    n = system.ambient
    if all(x == 0 for x in m):
        return orthant_hull_reference([(0,) * n], n)
    _, ideals = system.nonzero_part()
    if not ideals:
        raise NotInConeError(f"degree {tuple(m)} is reachable only through zero ideals")
    vertex_lists = [newton_polyhedron(I).vertices for I in ideals]
    points: set = set()
    for lam in representation_vertices_reference(system, m):
        points |= _minkowski_points(zip(vertex_lists, lam), n)
    return orthant_hull_reference(points, n)


def is_cost_linear_on_sampled(generators, costs, cone, sample_count=8, seed=0):
    """Sampled linearity test of the minimum representation cost.

    Evaluates the cost at every ray and at the ray sum plus sample_count
    pseudo-random nonnegative rational combinations of the rays; False as
    soon as one value differs from the linear interpolation of the ray
    values.  It can only miss a bend, never invent one.
    """
    from conefan.lp import representation_cost

    if not cone.rays:
        return True
    ray_values = [
        representation_cost(generators, costs, vec(r)).value for r in cone.rays
    ]
    rng = random.Random(seed)
    combos = [tuple(Fraction(1) for _ in cone.rays)]
    for _ in range(sample_count):
        combos.append(
            tuple(
                Fraction(rng.randint(0, 8), rng.randint(1, 4))
                for _ in cone.rays
            )
        )
    for ts in combos:
        point = [Fraction(0)] * cone.ambient_dim
        for t, r in zip(ts, cone.rays):
            point = [a + t * b for a, b in zip(point, r)]
        expected = sum((t * v for t, v in zip(ts, ray_values)), Fraction(0))
        actual = representation_cost(generators, costs, tuple(point)).value
        if actual != expected:
            return False
    return True


def parallelepiped_lattice_points_reference(c) -> list:
    """Nonzero lattice points with all ray-coordinates in [0, 1).

    Bounding-box scan of a simplicial cone: one linear solve per integer
    point of the box spanned by the rays' coordinate-wise sign parts.
    """
    rays = c.rays
    n = c.ambient_dim
    lows = [sum(min(0, r[i]) for r in rays) for i in range(n)]
    highs = [sum(max(0, r[i]) for r in rays) for i in range(n)]
    matrix = tuple(tuple(Fraction(r[i]) for r in rays) for i in range(n))
    found = []

    def scan(idx: int, point: list[int]):
        if idx == n:
            if all(x == 0 for x in point):
                return
            sol = linear_solve(matrix, vec(point))
            if sol is None:
                return
            lam = sol.particular
            if all(0 <= t < 1 for t in lam):
                found.append(tuple(point))
            return
        for x in range(lows[idx], highs[idx] + 1):
            point.append(x)
            scan(idx + 1, point)
            point.pop()

    scan(0, [])
    return found


def parallelepiped_points_reference(c) -> list:
    """Sorted primitive directions of the box scan's lattice points."""
    points = parallelepiped_lattice_points_reference(c)
    return sorted({primitive_direction(vec(p)) for p in points})


def linearity_fan_reference(generators):
    """fans.linearity_fan cutting every chamber by every hyperplane.

    Both halves of each chamber come from a double description and the
    lower-dimensional ones are dropped.  The chambers are built on the
    pivot coordinates of the Fraction rref of the generators, and always
    go back to ambient coordinates through its rows, also when they are
    the identity.
    """
    gens = [vec(g) for g in generators]
    if not gens:
        raise InputError("linearity fan needs at least one generator")
    n = len(gens[0])
    support = fans.cone_from_generators(gens)
    d = support.dim
    if d <= 1:
        return fans.Fan.make([support], n)
    if len(gens) > fans.INDEPENDENT_SUBSET_CAP:
        raise CapExceededError(
            f"linearity fan capped at {fans.INDEPENDENT_SUBSET_CAP} generators"
        )
    red, pivots = rref(gens)
    basis = red[: len(pivots)]
    coord_gens = [tuple(g[p] for p in pivots) for g in gens]
    cuts = set()
    for subset in combinations(range(len(coord_gens)), d - 1):
        rows = [coord_gens[i] for i in subset]
        if rank(rows) == d - 1:
            cuts.add(primitive_direction(kernel_basis(rows)[0]))
    chambers = [fans.cone_from_generators(coord_gens)]
    for u in sorted(cuts):
        mu = tuple(-x for x in u)
        nxt = set()
        for sigma in chambers:
            for half in (u, mu):
                piece = fans.cone_from_normals(sigma.normals + (half,))
                if piece.dim == d:
                    nxt.add(piece)
        chambers = sorted(nxt)
    out = []
    for sigma in chambers:
        ambient_rays = [
            [sum(c * b[t] for c, b in zip(r, basis)) for t in range(n)]
            for r in sigma.rays
        ]
        out.append(fans.cone_from_generators(ambient_rays))
    return fans.Fan.make(out, n)


def stellar_score_reference(fan, x) -> int:
    """fans._stellar_score by building the trial subdivision at x: the
    largest multiplicity among its cones that the fan did not have, as
    smooth_refine scored its candidates before the closed form."""
    current = set(fan.maximal_cones)
    trial = fans._stellar_subdivide(fan, x)
    return max(
        (c.multiplicity() for c in trial.maximal_cones if c not in current),
        default=1,
    )


def cone_from_primitive_rays_reference(rays, dim):
    """fans._cone_from_primitive_rays through the two double descriptions
    of fans._hull, for any ray set: the dual cone's generators are the
    normals, and their dual cone's extreme rays are the rays."""
    normals, lin, extreme = fans._hull(tuple(rays), dim)
    if lin:
        raise NotPointedError(lin[0])
    return fans.Cone(extreme, normals, dim)


def _first_differing_weight(a, b):
    """The first of the sorted primitive facet weights w >= 0 of two Newton
    polyhedra at which their minima of <w, x> differ, or None."""
    from conefan.rational import primitive_int_vector

    weights = {
        primitive_int_vector(tuple(-x for x in normal))
        for h in (a, b)
        for normal, _ in h.inequalities
        if all(x <= 0 for x in normal) and any(normal)
    }
    return next(
        (
            w
            for w in sorted(weights)
            if minimize_linear(a, w).value != minimize_linear(b, w).value
        ),
        None,
    )


def cone_checks_reference(system, fan, d, power_bound) -> tuple:
    """verify_closure_identity's cone checks with nothing shared: every
    maximal cone checks each of its tuples itself, with its own ray
    polyhedra, and every product of ray ideals, one factor too, is the
    orthant hull of the Minkowski points of the ray polyhedra's vertices,
    read off their double descriptions.  Each ray's polyhedron is hulled
    from its degree ideal, and must equal d times its limit polyhedron,
    the stability the run takes from its exponent certificate.  The chain
    holds when the product equals d times the limit polyhedron of the
    tuple's degree (additivity), and both theorem links, the product
    inside the degree ideal's polyhedron and that one inside d P(m), are
    asserted; witnesses are found by scanning the sorted facet weights."""
    from conefan import graded
    from conefan.polyhedra import scale_polyhedron

    n = system.ambient
    out = []
    for cone in fan.maximal_cones:
        rays = cone.rays
        ray_h = {
            e: graded._degree_newton_hform(system, graded._scaled_degree(e, d))
            for e in rays
        }
        assert ray_h == {
            e: scale_polyhedron(graded.asymptotic_newton(system, e), d) for e in rays
        }
        vertices = {}
        for e, h in ray_h.items():
            vs = dual_description(h).vertices
            assert all(x.denominator == 1 for v in vs for x in v)
            vertices[e] = [tuple(int(x) for x in v) for v in vs]
        checks = []
        for p in graded._power_tuples(len(rays), power_bound):
            m = tuple(
                sum(pi * e[j] for pi, e in zip(p, rays))
                for j in range(system.grading_rank)
            )
            if not any(p):
                # a_0 and the empty product are both the unit ideal
                checks.append(
                    graded.TupleCheck(p, m, True, None, None, None, True, None)
                )
                continue
            left_h = graded._degree_newton_hform(system, graded._scaled_degree(m, d))
            parts = [(vertices[e], pi) for pi, e in zip(p, rays)]
            right_h = graded._orthant_hull(
                minimalize_reference(graded._minkowski_points(parts, n)), n
            )
            asym_h = scale_polyhedron(graded.asymptotic_newton(system, m), d)
            assert left_h is not None
            assert all(contains(left_h, v) for v in dual_description(right_h).vertices)
            assert all(contains(asym_h, v) for v in dual_description(left_h).vertices)
            witness = _first_differing_weight(left_h, right_h)
            lval = rval = None
            if witness is not None:
                lval = minimize_linear(left_h, witness).value
                rval = minimize_linear(right_h, witness).value
            chain_w = _first_differing_weight(asym_h, right_h)
            note = None
            if chain_w is not None:
                note = f"additivity failed on the cone at weight {chain_w}"
            checks.append(
                graded.TupleCheck(
                    p,
                    m,
                    witness is None,
                    witness,
                    lval,
                    rval,
                    chain_w is None,
                    note,
                )
            )
        out.append(graded.ConeCheck(rays, tuple(checks)))
    return tuple(out)


def expand_degree_reference(system, m):
    """Ideal in degree m: the sum over representations_reference of the
    products of ideal_power of each factor, each power made afresh."""
    from conefan.graded import MonomialIdeal, ideal_power, ideal_product, ideal_sum

    out = MonomialIdeal.zero(system.ambient)
    for rep in representations_reference(system, m):
        term = MonomialIdeal.unit(system.ambient)
        for I, l in zip(system.ideals, rep):
            term = ideal_product(term, ideal_power(I, l))
        out = ideal_sum(out, term)
    return out


def frozen_dataclass_reference(cls):
    """The frozen dataclass a conefan value class stands for: its own
    annotations as fields, in order, a class attribute of a field's name
    as that field's default, fields named "_..." left out of equality,
    hashing and repr, and the class's __post_init__."""
    fields = []
    for name, annotation in cls.__annotations__.items():
        shown = not name.startswith("_")
        spec = {"compare": shown, "repr": shown}
        if name in vars(cls):
            spec["default"] = vars(cls)[name]
        fields.append((name, annotation, dataclasses.field(**spec)))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, namespace=namespace
    )
