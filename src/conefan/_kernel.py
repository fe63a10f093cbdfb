"""The exact kernels under linalg, _simplex and _dd.

  rref_frac(rows)                     reduced row echelon form over Fraction
  simplex_rows(nums, dens, basis, k)  Bland-rule pivoting on integer rows
  dd_step(rays, zsets, vals, bit, min_common)
                                      one double-description halfspace step

Rational rows are worked on fraction-free (Bareiss, Math. Comp. 22, 1968):
each row is a list of integers over one positive common denominator, an
elimination cross-multiplies two integer rows, and the result is divided
by its content once, instead of normalising a Fraction at every addition
and product.  rref_frac takes and returns Fractions; as Fractions are
canonical, its results equal those of Gauss-Jordan elimination on
Fractions exactly.  simplex_rows works on rows already in the
(numerators, denominators) form of _to_int_rows, so a caller that builds
its tableau that way never round-trips through Fraction.
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


def _to_frac_rows(nums, dens):
    # Fractions are immutable, so every zero entry can share one object
    return [
        [Fraction(x) if x else _ZERO for x in row]
        if den == 1
        else [Fraction(x, den) if x else _ZERO for x in row]
        for row, den in zip(nums, dens)
    ]


def _reduce_row(row, den):
    """Divide row and den by their content in place; returns the new den."""
    g = gcd(den, *row)
    if g > 1:
        row[:] = [x // g for x in row]
        den //= g
    return den


def _pivot(nums, dens, prow, pcol):
    """Scale row prow to a unit pivot in pcol and clear pcol elsewhere.

    After the scaling the pivot row's entry in pcol equals its denominator,
    so eliminating it from row i is the cross-multiplication
    row_i * P - row_i[pcol] * prow over the denominator den_i * P.
    """
    row = nums[prow]
    P = row[pcol]
    if P < 0:
        P = -P
        row[:] = [-x for x in row]
    P = dens[prow] = _reduce_row(row, P)
    for i, irow in enumerate(nums):
        F = irow[pcol]
        if F == 0 or i == prow:
            continue
        irow[:] = [x * P - F * y for x, y in zip(irow, row)]
        dens[i] = _reduce_row(irow, dens[i] * P)


def rref_frac(rows):
    """Reduced row echelon form of a rational matrix.

    Returns (new_rows, pivot_columns); the input is not modified.
    """
    nums, dens = _to_int_rows(rows)
    nrows = len(nums)
    ncols = len(nums[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pr = next((i for i in range(row, nrows) if nums[i][col] != 0), None)
        if pr is None:
            continue
        nums[row], nums[pr] = nums[pr], nums[row]
        dens[row], dens[pr] = dens[pr], dens[row]
        _pivot(nums, dens, row, col)
        pivots.append(col)
        row += 1
    return _to_frac_rows(nums, dens), pivots


def simplex_rows(nums, dens, basis, allowed_cols):
    """Run Bland-rule simplex pivoting to optimality or unboundedness.

    nums, dens: an (m+1)-row tableau in the form of _to_int_rows, row i
    equal to nums[i] / dens[i]; the last row holds the reduced costs, the
    last column the right-hand side.  basis: length-m list of basic column
    indices.  Only columns < allowed_cols may enter.  nums, dens and basis
    are updated in place.

    Returns (status, entering_col): ("optimal", -1), or ("unbounded", the
    improving column).
    """
    m = len(nums) - 1
    rhs_col = len(nums[0]) - 1
    obj = nums[m]
    while True:
        # denominators are positive, so signs can be read off numerators
        enter = next((j for j in range(allowed_cols) if obj[j] < 0), -1)
        if enter < 0:
            return "optimal", -1
        # Bland's ratio test.  Row i's ratio rhs_i / a_i is rn / a on its
        # integer numerators, because the row's common denominator cancels;
        # with a > 0 and bd > 0, rn / a < bn / bd iff rn * bd - bn * a < 0.
        leave = -1
        bn = bd = 0
        for i in range(m):
            a = nums[i][enter]
            if a > 0:
                rn = nums[i][rhs_col]
                if leave < 0:
                    bn, bd, leave = rn, a, i
                else:
                    cmp = rn * bd - bn * a
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                        bn, bd, leave = rn, a, i
        if leave < 0:
            return "unbounded", enter
        _pivot(nums, dens, leave, enter)
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

    Returns (new_rays, new_zsets).
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
