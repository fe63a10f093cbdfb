"""The fraction-free kernels against plain Fraction references.

gauss_jordan, rref_frac, _pivot, simplex_rows and solve_standard must
return exactly what Gauss-Jordan elimination and Bland's rule on
Fractions return (tests/helpers.py), on every shape the callers produce:
empty, 1x1, zero rows and columns, rank-deficient matrices, mixed
denominators, and LPs that end optimal, infeasible or unbounded,
including degenerate ratio ties.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    gauss_jordan_reference,
    pivot_reference,
    rref_reference,
    simplex_core_reference,
    solve_standard_reference,
)

import conefan
from conefan import _kernel, _simplex

F = Fraction

# Small entries, zero about one time in three, so that zero rows, zero
# columns, dependent rows and equal ratios turn up often.
_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
_int_entries = st.one_of(st.just(0), st.integers(-4, 4))


@st.composite
def matrices(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    rows = [[draw(_entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[col] = F(0)
    if rows and draw(st.booleans()):
        # a row dependent on two others makes the matrix rank-deficient
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        k = draw(_entries)
        rows.append([a * k + b for a, b in zip(rows[i], rows[j])])
    return rows


def _copy(rows):
    return [list(r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([])
@example([[]])
@example([[F(0)]])
@example([[F(-3, 4)]])
@example([[F(0), F(0)], [F(0), F(0)]])
@example([[F(1), F(2)], [F(0), F(0)], [F(3), F(6)]])
@example([[F(0), F(1, 2), F(1)], [F(0), F(-1), F(3)]])
@example([[F(2), F(4), F(6)], [F(1), F(2), F(3)], [F(-1, 3), F(-2, 3), F(-1)]])
def test_rref_matches_reference(rows):
    before = _copy(rows)
    red, pivots = _kernel.rref_frac(rows)
    assert rows == before
    ref_red, ref_pivots = rref_reference(_copy(rows))
    assert pivots == ref_pivots
    assert red == ref_red
    assert all(type(x) is Fraction for r in red for x in r)


@st.composite
def int_matrices(draw):
    """The shapes of matrices(), with integer entries."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    rows = [[draw(_int_entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[col] = 0
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        k = draw(st.integers(-3, 3))
        rows.append([a * k + b for a, b in zip(rows[i], rows[j])])
    return rows


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example([])
@example([[]])
@example([[0]])
@example([[-3]])
@example([[0, 1], [1, 0]])
@example([[0, 0], [0, -2], [0, 4]])
@example([[2, 4, 6], [1, 2, 3], [-1, 5, 0]])
def test_gauss_jordan_matches_reference(rows):
    # the one loop leaves the reduced form times den in place, with the
    # pivots and the pivot block's |det| and sign of Fraction elimination
    got = _copy(rows)
    ref = _copy(rows)
    assert _kernel.gauss_jordan(got) == gauss_jordan_reference(ref)
    assert got == ref


# Non-integer entries with denominators 1..6, so that one LP mixes rows
# over different denominators.
_frac_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def lps(draw, entries=_int_entries):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    A = [[F(draw(entries)) for _ in range(n)] for _ in range(m)]
    b = [F(draw(entries)) for _ in range(m)]
    c = [F(draw(entries)) for _ in range(n)]
    return c, A, b


def _phase1_tableau(A, b):
    """The tableau and basis that solve_standard hands to phase 1."""
    m, n = len(A), len(A[0])
    tab = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        row = [sign * x for x in A[i]] + [F(0)] * m + [sign * b[i]]
        row[n + i] = F(1)
        tab.append(row)
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(n)]
    obj += [F(0)] * m + [-sum(tab[i][-1] for i in range(m))]
    tab.append(obj)
    return tab, list(range(n, n + m))


def _has_ratio_tie(tab, allowed):
    """Whether the first Bland ratio test on tab has two minimal rows."""
    m = len(tab) - 1
    enter = next((j for j in range(allowed) if tab[m][j] < 0), None)
    if enter is None:
        return False
    ratios = [tab[i][-1] / tab[i][enter] for i in range(m) if tab[i][enter] > 0]
    return len(ratios) > 1 and ratios.count(min(ratios)) > 1


# Degenerate: both rows have ratio 0 at the first pivot.
_TIE = (
    [F(-1), F(-1), F(0)],
    [[F(1), F(1), F(1)], [F(1), F(0), F(2)]],
    [F(0), F(0)],
)


@settings(max_examples=300, deadline=None)
@given(lps())
@example(_TIE)
@example(([F(1)], [[F(1)]], [F(1)]))
@example(([F(1)], [[F(1)], [F(1)]], [F(1), F(2)]))
@example(([F(-1), F(0)], [[F(1), F(-1)]], [F(0)]))
def test_simplex_rows_matches_reference(lp):
    c, A, b = lp
    tab, basis = _phase1_tableau(A, b)
    # lps() draws integer entries, so the tableau is an integer matrix,
    # which the kernel starts on over denominator 1
    assert all(x.denominator == 1 for r in tab for x in r)
    rows = [[x.numerator for x in r] for r in tab]
    got_basis = list(basis)
    status, enter, den = _kernel.simplex_rows(rows, 1, got_basis, len(c))
    assert den > 0
    got = (status, enter, _kernel._to_frac_rows(rows, den), got_basis)
    assert got == simplex_core_reference(tab, basis, len(c))


def _solve(lps_):
    out = []
    for c, A, b in lps_:
        res = _simplex.solve_standard(c, A, b)
        out.append((res.status, res.x, res.y, res.ray, res.value))
    return out


@settings(max_examples=500, deadline=None)
@given(st.one_of(lps(), lps(_frac_entries)))
@example(_TIE)
@example(([F(1, 2), F(-1, 3)], [[F(1, 2), F(2, 3)], [F(1), F(-1, 5)]], [F(7, 6), F(2, 3)]))
def test_solve_standard_matches_reference(lp):
    assert _solve([lp]) == [solve_standard_reference(*lp)]


@settings(max_examples=300, deadline=None)
@given(lps())
@example(_TIE)
@example(([F(-1), F(0)], [[F(1), F(-1)]], [F(0)]))
def test_solve_standard_on_ints_matches_reference(lp):
    # int entries go to the integer rows as they are, with no Fraction in
    # between; the outcome equals the Fraction reference's, and the
    # returned vectors and value are Fractions
    c, A, b = lp
    ints = (
        [int(x) for x in c],
        [[int(x) for x in row] for row in A],
        [int(x) for x in b],
    )
    (got,) = _solve([ints])
    assert got == solve_standard_reference(*lp)
    assert all(type(x) is F for v in got[1:4] if v is not None for x in v)
    assert got[4] is None or type(got[4]) is F


def test_solve_standard_battery_reaches_every_outcome():
    # a fixed battery, so the three statuses and the ties are guaranteed
    rng = random.Random(55)

    def pick(count):
        return [F(rng.choice((0, 0, 0, rng.randint(-4, 4)))) for _ in range(count)]

    battery = []
    for _ in range(400):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        battery.append((pick(n), [pick(n) for _ in range(m)], pick(m)))
    fast = _solve(battery)
    assert fast == [solve_standard_reference(*lp) for lp in battery]
    assert {out[0] for out in fast} == {"optimal", "infeasible", "unbounded"}
    ties = sum(
        _has_ratio_tie(_phase1_tableau(A, b)[0], len(c)) for c, A, b in battery
    )
    assert ties >= 10
    assert _has_ratio_tie(_phase1_tableau(_TIE[1], _TIE[2])[0], 3)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_entries, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=4),
)
def test_pivot_matches_reference(rows, pivots):
    # the kernel pivots the integer matrix of the rows, each cleared of its
    # denominators; after every pivot of a sequence, the rows over the one
    # denominator must equal the Fraction pivots of that matrix
    prow, pcol = pivots[0]
    prow %= len(rows)
    if rows[prow][pcol] == 0:
        rows[prow][pcol] = F(5, 3)
    nums = _kernel._to_int_rows(rows)[0]
    ref = [[F(x) for x in r] for r in nums]
    den = 1
    for prow, pcol in pivots:
        prow %= len(nums)
        if nums[prow][pcol] == 0:
            continue
        den = _kernel._pivot(nums, den, prow, pcol)
        pivot_reference(ref, prow, pcol)
        assert den > 0
        assert _kernel._to_frac_rows(nums, den) == ref


def _det(matrix):
    """Determinant by Gaussian elimination on Fractions."""
    m = [[F(x) for x in r] for r in matrix]
    det = F(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if p is None:
            return F(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=5, max_size=5),
                min_size=m,
                max_size=m,
            ),
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8)), max_size=8),
        )
    )
)
@example(([[2, 3], [4, 5]], [(0, 0), (1, 1), (0, 2), (1, 3)]))
def test_pivot_denominator_is_the_basis_determinant(case):
    # on [A | I], whose identity block is the first basis, the common
    # denominator after every pivot is |det| of the starting matrix's
    # current basis columns; every numerator is then a minor of that
    # matrix, which is what makes the kernel's divisions exact
    A, pivots = case
    m, n = len(A), len(A[0])
    start = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(A)]
    rows = [list(r) for r in start]
    basis = list(range(n, n + m))
    den = 1
    for prow, pcol in pivots:
        prow %= m
        pcol %= n + m
        if rows[prow][pcol] == 0:
            continue
        den = _kernel._pivot(rows, den, prow, pcol)
        basis[prow] = pcol
        assert den == abs(_det([[r[j] for j in basis] for r in start]))


def _dd_step_reference(rays, zsets, vals, bit):
    """One DD step from its definition: positive rays, then zero rays, then
    one primitive combination per combinatorially adjacent (+, -) pair."""
    pos = [i for i, v in enumerate(vals) if v > 0]
    zer = [i for i, v in enumerate(vals) if v == 0]
    neg = [i for i, v in enumerate(vals) if v < 0]
    out = [(rays[i], zsets[i]) for i in pos]
    out += [(rays[i], zsets[i] | bit) for i in zer]
    for i in pos:
        for j in neg:
            common = zsets[i] & zsets[j]
            if any(
                k not in (i, j) and zsets[k] & common == common
                for k in range(len(rays))
            ):
                continue
            w = [vals[i] * y - vals[j] * x for x, y in zip(rays[i], rays[j])]
            g = gcd(*w) or 1
            out.append((tuple(x // g for x in w), common | bit))
    return [r for r, _ in out], [z for _, z in out]


def test_dd_step_matches_reference():
    rng = random.Random(77)
    for _ in range(150):
        dim = rng.randint(2, 5)
        rays, zsets = [], []
        for _ in range(rng.randint(1, 8)):
            r = tuple(rng.randint(-4, 4) for _ in range(dim))
            if all(x == 0 for x in r):
                continue
            rays.append(r)
            zsets.append(rng.getrandbits(6))
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        vals = [sum(x * y for x, y in zip(normal, r)) for r in rays]
        got = _kernel.dd_step(list(rays), list(zsets), list(vals), 1 << 6, 0)
        ref = _dd_step_reference(rays, zsets, vals, 1 << 6)
        assert [tuple(r) for r in got[0]] == ref[0]
        assert got[1] == ref[1]
        for r in got[0]:
            assert sum(x * y for x, y in zip(normal, r)) >= 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda dim: st.tuples(
            st.lists(
                st.tuples(*[st.integers(-3, 3)] * dim), min_size=0, max_size=9
            ),
            st.just(dim),
        )
    )
)
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-1, 1, 1)], 3))
@example(([(1, 0), (-1, 0)], 2))
@example(([(0, 0, 0, 0)], 4))
def test_cone_generators_adjacency_bound_drops_no_ray(case):
    # the popcount bound skips only pairs that the combinatorial test
    # would reject, so the generators equal those of bound 0; rows are
    # often redundant, dependent or zero, and lineality often remains
    rows, dim = case
    from conefan import _dd

    def unbounded_step(rays, zsets, vals, bit, min_common):
        return real(rays, zsets, vals, bit, 0)

    real = _kernel.dd_step
    got = _dd.cone_generators(tuple(rows), dim)
    _kernel.dd_step = unbounded_step
    try:
        ref = _dd.cone_generators(tuple(rows), dim)
    finally:
        _kernel.dd_step = real
    assert got == ref


def test_dd_step_bound_skips_pairs_with_few_common_constraints():
    # (1, 0) and (0, -1) share no tight constraint and no third ray is
    # tight where both are, so bound 0 combines them and bound 1 does not
    rays, zsets, vals = [(1, 0), (0, -1)], [0b01, 0b10], [1, -1]
    assert _kernel.dd_step(rays, zsets, vals, 1 << 2, 0) == (
        [(1, 0), (1, -1)],
        [0b01, 0b100],
    )
    assert _kernel.dd_step(rays, zsets, vals, 1 << 2, 1) == ([(1, 0)], [0b01])


def test_backend_name_reported():
    assert conefan.KERNEL_BACKEND == "python"


def test_full_pipeline_matches_reference_kernel():
    # A fresh interpreter per kernel, so no memo cache carries results over.
    # The reference run swaps the one Gauss-Jordan loop and rref_frac for
    # Fraction elimination, the lattice determinants for the minor loop,
    # and the LP for Bland's rule on Fractions.
    script = (
        "import json, sys\n"
        "sys.path.insert(0, {tests!r})\n"
        "from conefan import _kernel\n"
        "if sys.argv[1] == 'reference':\n"
        "    import helpers\n"
        "    from conefan import _simplex, fans, linalg\n"
        "    _kernel.gauss_jordan = helpers.gauss_jordan_reference\n"
        "    _kernel.rref_frac = helpers.rref_reference\n"
        "    linalg.echelon_lattice_det = helpers.lattice_det_reference\n"
        "    fans.echelon_lattice_det = helpers.lattice_det_reference\n"
        "    _simplex.solve_standard = lambda c, A, b: _simplex.StandardResult(\n"
        "        *helpers.solve_standard_reference(c, A, b))\n"
        "from conefan.graded import GradedSystem, MonomialIdeal, "
        "verify_closure_identity\n"
        "MI = MonomialIdeal.from_exponents\n"
        "sys_w = GradedSystem.create(2, 2, [(1,0),(0,1),(1,1)],"
        "[MI(2,[(1,0)]), MI(2,[(0,1)]), MI(2,[(1,1),(2,0)])])\n"
        "rep = verify_closure_identity(sys_w, power_bound=3)\n"
        "print(json.dumps(rep.to_dict(), sort_keys=True))\n"
    ).format(tests=os.path.dirname(os.path.abspath(__file__)))
    outs = {}
    for kernel in ("fraction-free", "reference"):
        proc = subprocess.run(
            [sys.executable, "-c", script, kernel],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs[kernel] = proc.stdout
    assert outs["fraction-free"] == outs["reference"]
