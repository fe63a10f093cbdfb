"""The exact kernels under linalg, _simplex, _dd and polyhedra.

  gauss_jordan(rows)                  integer reduced echelon form, in place
  rref_frac(rows)                     reduced row echelon form over Fraction
  simplex_rows(rows, den, basis, k)   Bland-rule pivoting on integer rows
  dd_step(rays, zsets, vals, bit, min_common)
                                      one double-description halfspace step

Rational rows are worked on fraction-free, over one positive denominator
for the whole tableau (Edmonds, J. Res. NBS 71B, 1967; the integer
pivoting of Avis's lrs).  A tableau starts as an integer matrix over
denominator 1, and _pivot returns the new denominator.  After any pivots
every numerator is a minor of the starting matrix and the denominator is
|det| of the current pivot block, so each elimination divides exactly
and no row is divided by its gcd.  gauss_jordan is the package's one
Gauss-Jordan elimination, behind ranks, adjugates and canonical bases;
rref_frac reads Fractions off it, equal to those of elimination on
Fractions, as Fractions are canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _to_int_rows(rows):
    """(nums, dens): row i equals nums[i] / dens[i], with dens[i] > 0.
    A row of plain ints is copied as it is, over denominator 1."""
    nums = []
    dens = []
    for row in rows:
        if all(type(f) is int for f in row):
            nums.append(list(row))
            dens.append(1)
            continue
        den = lcm(*[f.denominator for f in row])
        nums.append([f.numerator * (den // f.denominator) for f in row])
        dens.append(den)
    return nums, dens


_ZERO = Fraction(0)


def _to_frac_rows(rows, den):
    # Fractions are immutable, so every zero entry can share one object
    return [[Fraction(x, den) if x else _ZERO for x in row] for row in rows]


def _pivot(rows, den, prow, pcol):
    """Pivot the tableau rows / den on (prow, pcol); returns the new den.

    The pivot row keeps its numerators over the new denominator p, its
    entry in pcol, which makes its pivot entry 1; every other row becomes
    (row * p - row[pcol] * prow) / den over p, an exact division.  A
    negative p would leave a negative denominator, so the pivot row is
    negated first and p = |p|: the same as negating every row over -p,
    which keeps signs readable off the numerators.
    """
    row = rows[prow]
    p = row[pcol]
    if p < 0:
        p = -p
        row = rows[prow] = [-x for x in row]
    for i, irow in enumerate(rows):
        if i == prow:
            continue
        f = irow[pcol]
        if f:
            rows[i] = [(x * p - f * y) // den for x, y in zip(irow, row)]
        elif p != den:
            rows[i] = [x * p // den for x in irow]
    return p


def gauss_jordan(rows):
    """Reduce integer rows in place; returns (den, pivots, sign).

    Each pivot row is the first with a nonzero entry at or below the
    current row.  rows[i] / den is then row i of the reduced echelon
    form, and den is |det| of the pivot block (the pivot columns of the
    input rows now on top), whose sign is that of the row swaps times
    that of each pivot entry as it is met: a square matrix of full rank
    has determinant sign * den.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    den = 1
    sign = 1
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pr = next((i for i in range(row, nrows) if rows[i][col] != 0), None)
        if pr is None:
            continue
        if pr != row:
            rows[row], rows[pr] = rows[pr], rows[row]
            sign = -sign
        if rows[row][col] < 0:
            sign = -sign
        den = _pivot(rows, den, row, col)
        pivots.append(col)
    return den, pivots, sign


def rref_frac(rows):
    """Reduced row echelon form of a rational matrix.

    Returns (new_rows, pivot_columns); the input is not modified.  Each
    row is scaled to integers by its own denominator first, which leaves
    the reduced echelon form as it is.
    """
    nums = _to_int_rows(rows)[0]
    den, pivots, _ = gauss_jordan(nums)
    return _to_frac_rows(nums, den), pivots


def simplex_rows(rows, den, basis, allowed_cols):
    """Run Bland-rule simplex pivoting to optimality or unboundedness.

    rows / den: a tableau of integer rows over one positive denominator,
    whose first len(basis) rows are the constraints and whose last row
    holds the reduced costs; the last column is the right-hand side, and
    any rows in between are carried through the pivots.  basis: the basic
    column of each constraint row.  Only columns < allowed_cols may enter.
    rows and basis are updated in place.

    Returns (status, entering_col, den): ("optimal", -1, den), or
    ("unbounded", the improving column, den).
    """
    m = len(basis)
    rhs_col = len(rows[0]) - 1
    while True:
        # den > 0, so signs can be read off numerators
        obj = rows[-1]
        enter = next((j for j in range(allowed_cols) if obj[j] < 0), -1)
        if enter < 0:
            return "optimal", -1, den
        # Bland's ratio test.  Row i's ratio rhs_i / a_i is rn / a on its
        # integer numerators, because the common denominator cancels; with
        # a > 0 and bd > 0, rn / a < bn / bd iff rn * bd - bn * a < 0.
        leave = -1
        bn = bd = 0
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                rn = rows[i][rhs_col]
                if leave < 0:
                    bn, bd, leave = rn, a, i
                else:
                    cmp = rn * bd - bn * a
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                        bn, bd, leave = rn, a, i
        if leave < 0:
            return "unbounded", enter, den
        den = _pivot(rows, den, leave, enter)
        basis[leave] = enter


def dd_step(rays, zsets, vals, bit, min_common):
    """Intersect cone(rays) with one halfspace {x : <a, x> >= 0}.

    rays: integer tuples; zsets: bitmasks of previously-tight constraints;
    vals[i] = <a, rays[i]>; bit marks the new constraint.  Keeps the
    representation minimal via the combinatorial adjacency test.  A pair
    whose zsets share fewer than min_common constraints is not adjacent
    and skips that test: two adjacent extreme rays of a cone in R^d with
    a lineality space of dimension l are tight together on constraints of
    rank d - l - 2 (Fukuda and Prodon, 1996), which bounds their number
    from below; 0 keeps every pair.

    Returns (new_rays, new_zsets): the rays with a positive value, then
    those with a zero value, each in input order, then the new rays.
    """
    pos, zer, neg = [], [], []
    for i, v in enumerate(vals):
        (pos if v > 0 else (zer if v == 0 else neg)).append(i)
    out_r = [rays[i] for i in pos]
    out_z = [zsets[i] for i in pos]
    for i in zer:
        out_r.append(rays[i])
        out_z.append(zsets[i] | bit)
    nrays = len(rays)
    dim = len(rays[0]) if rays else 0
    for i in pos:
        zi = zsets[i]
        vi = vals[i]
        ri = rays[i]
        for j in neg:
            mask = zi & zsets[j]
            if mask.bit_count() < min_common:
                continue
            adjacent = True
            for k in range(nrays):
                if k != i and k != j and (zsets[k] & mask) == mask:
                    adjacent = False
                    break
            if not adjacent:
                continue
            vj = vals[j]
            rj = rays[j]
            w = [vi * rj[t] - vj * ri[t] for t in range(dim)]
            g = 0
            for x in w:
                g = gcd(g, x)
            if g > 1:
                w = [x // g for x in w]
            out_r.append(tuple(w))
            out_z.append((zi & zsets[j]) | bit)
    return out_r, out_z
