"""Two-phase exact simplex in standard form: min c.x, A x = b, x >= 0.

Bland's pivot rule throughout (with exact arithmetic, cycling is the only
termination hazard and Bland's rule removes it).  One artificial variable
is added per row; their tableau columns double as the basis inverse, from
which duals and Farkas certificates are read and then re-verified before
being returned.

The LP is converted once to integer rows over per-row denominators
(_int_lp), and everything after that runs on integers.  Each row is
multiplied through by its denominator and its artificial scaled by the
same factor, so the first tableau is an integer matrix with unit
artificial columns, pivoted over one common denominator (_kernel._pivot).
Its last two rows are the phase-2 cost row, carried through phase 1, and
the phase-1 row.  The scaling leaves every ratio and the reduced cost of
every original column as it was, so every Bland choice is too.  Only the
returned vectors are made Fractions again.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from . import _kernel
from ._value import Frozen
from .errors import InputError, InternalError
from .rational import Vec, idot, qvec


class StandardResult(Frozen):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Vec | None = None
    y: Vec | None = None  # dual solution or Farkas certificate
    ray: Vec | None = None  # improving ray when unbounded
    value: Fraction | None = None


def _int_lp(c, A, b):
    """(rows, dens, cost, cden): row i of [A | b] equals rows[i] / dens[i]
    and c equals cost / cden, in integers over positive denominators."""
    rows, dens = _kernel._to_int_rows([list(a) + [v] for a, v in zip(A, b)])
    (cost,), (cden,) = _kernel._to_int_rows([c])
    return rows, dens, cost, cden


def _fracs(nums, den):
    return tuple(Fraction(v, den) for v in nums)


def solve_standard(c: Sequence, A: Sequence[Sequence], b: Sequence) -> StandardResult:
    # ints stay ints: _to_int_rows reads numerator and denominator of both
    c = qvec(c)
    rows = [qvec(row) for row in A]
    rhs = qvec(b)
    if len(rhs) != len(rows) or any(len(r) != len(c) for r in rows):
        raise InputError("inconsistent LP dimensions")
    return solve_int(_int_lp(c, rows, rhs))


def solve_int(lp) -> StandardResult:
    """solve_standard on an LP already in the integer form of _int_lp."""
    lp_rows, lp_dens, cost, cden = lp
    m = len(lp_rows)
    n = len(cost)

    # tableau columns: n original, m artificial, then rhs; rows with a
    # negative rhs are negated so the artificial basis starts feasible.
    # Phase 1 minimizes the unscaled artificials' sum (costs 1 / dens[i]
    # once scaled); its row is minus the input rows' sum times lcm(dens).
    L = lcm(*lp_dens)
    signs = []
    tab = []
    obj = [0] * (n + 1)
    for i, (row, d) in enumerate(zip(lp_rows, lp_dens)):
        sign = -1 if row[n] < 0 else 1
        t = [sign * v for v in row] if sign < 0 else list(row)
        f = L // d
        obj = [o - f * v for o, v in zip(obj, t)]
        t[n:n] = [0] * m
        t[n + i] = 1
        signs.append(sign)
        tab.append(t)
    obj[n:n] = [0] * m
    tab.append(list(cost) + [0] * (m + 1))
    tab.append(obj)
    basis = list(range(n, n + m))
    status, _, den = _kernel.simplex_rows(tab, 1, basis, n)
    if status != "optimal":
        raise InternalError("phase 1 cannot be unbounded")
    obj = tab.pop()
    if obj[n + m] < 0:
        # y_i = 1 - (reduced cost of artificial i), back in the input signs;
        # unscaled, that cost is dens[i] times the row's, over L * den
        y = [s * (L * den - d * r) for s, d, r in zip(signs, lp_dens, obj[n:])]
        _check_farkas(y, lp)
        return StandardResult(status="infeasible", y=_fracs(y, L * den))

    # drive artificial variables out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                den = _kernel._pivot(tab, den, i, piv)
                basis[i] = piv

    # phase 2 on the carried cost row, whose rhs cell ends up holding
    # minus the objective value
    status, enter, den = _kernel.simplex_rows(tab, den, basis, n)

    if status == "unbounded":
        ray = [0] * n
        ray[enter] = den
        for i in range(m):
            if basis[i] < n:
                ray[basis[i]] = -tab[i][enter]
        _check_ray(ray, lp)
        return StandardResult(status="unbounded", ray=_fracs(ray, den))

    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][n + m]
    # the cost row holds -c_B B^-1 in the artificial columns, over cden *
    # den: minus the duals of the sign-adjusted rows, each divided by its
    # row's denominator, since the artificials are scaled
    y = [-s * d * r for s, d, r in zip(signs, lp_dens, tab[m][n:])]
    value = _check_optimal(x, den, y, cden * den, lp)
    return StandardResult(
        status="optimal", x=_fracs(x, den), y=_fracs(y, cden * den), value=value
    )


def _combine(y, lp):
    """(comb, den): comb / (den * yden) equals y^T [A | b] for y / yden."""
    rows, dens, cost, _ = lp
    den = lcm(*dens)
    comb = [0] * (len(cost) + 1)
    for v, d, row in zip(y, dens, rows):
        if v:
            f = v * (den // d)
            comb = [o + f * a for o, a in zip(comb, row)]
    return comb, den


def _check_farkas(y, lp):
    n = len(lp[2])  # the width of c
    comb, _ = _combine(y, lp)
    if any(v > 0 for v in comb[:n]):
        raise InternalError("invalid Farkas certificate (A^T y > 0)")
    if comb[n] <= 0:
        raise InternalError("invalid Farkas certificate (b.y <= 0)")


def _check_ray(ray, lp):
    rows, _, cost, _ = lp
    if any(x < 0 for x in ray):
        raise InternalError("improving ray has a negative entry")
    for row in rows:
        if idot(row, ray) != 0:  # idot stops at len(ray), before the rhs
            raise InternalError("improving ray violates A d = 0")
    if idot(cost, ray) >= 0:
        raise InternalError("ray does not improve the objective")


def _check_optimal(x, xden, y, yden, lp):
    """Certify x / xden and y / yden as an optimal primal/dual pair; returns
    the objective value.  Both sides of each comparison are multiplied by
    the same positive integer, so every test is exact."""
    rows, _, cost, cden = lp
    n = len(cost)
    if any(v < 0 for v in x):
        raise InternalError("primal solution has a negative entry")
    for row in rows:
        if idot(row, x) != row[n] * xden:
            raise InternalError("primal solution violates A x = b")
    comb, den = _combine(y, lp)
    scale = den * yden
    if any(cden * v > cj * scale for v, cj in zip(comb, cost)):
        raise InternalError("dual solution violates A^T y <= c")
    primal = idot(cost, x)
    if primal * scale != comb[n] * cden * xden:
        raise InternalError("nonzero duality gap in verified optimum")
    return Fraction(primal, cden * xden)

