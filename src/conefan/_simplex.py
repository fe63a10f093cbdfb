"""Two-phase exact simplex in standard form: min c.x, A x = b, x >= 0.

Bland's pivot rule throughout (with exact arithmetic, cycling is the only
termination hazard and Bland's rule removes it).  One artificial variable
is added per row; their tableau columns double as the basis inverse, from
which duals and Farkas certificates are read and then re-verified before
being returned.

The LP is converted once to integer rows over per-row denominators (the
form of _kernel._to_int_rows; int inputs enter as they are, over
denominator 1), and everything after that runs on
integers: the tableau, both objective rows, the pivots and the
certificate checks, which compare cross-multiplied integer sums.  Only
the returned vectors are made Fractions again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import _kernel
from .errors import InputError, InternalError
from .rational import Vec, idot, qvec


@dataclass(frozen=True)
class StandardResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Vec] = None
    y: Optional[Vec] = None  # dual solution or Farkas certificate
    ray: Optional[Vec] = None  # improving ray when unbounded
    value: Optional[Fraction] = None


def _int_lp(c, A, b):
    """(rows, dens, cost, cden): row i of [A | b] equals rows[i] / dens[i]
    and c equals cost / cden, in integers over positive denominators."""
    rows, dens = _kernel._to_int_rows([a + [v] for a, v in zip(A, b)])
    (cost,), (cden,) = _kernel._to_int_rows([c])
    return rows, dens, cost, cden


def _fracs(nums, den):
    return tuple(Fraction(v, den) for v in nums)


def solve_standard(c: Sequence, A: Sequence[Sequence], b: Sequence) -> StandardResult:
    # ints stay ints: _to_int_rows reads numerator and denominator of both
    c = list(qvec(c))
    rows = [list(qvec(row)) for row in A]
    rhs = list(qvec(b))
    m = len(rows)
    n = len(c)
    if len(rhs) != m or any(len(r) != n for r in rows):
        raise InputError("inconsistent LP dimensions")
    lp = _int_lp(c, rows, rhs)
    lp_rows, lp_dens, cost, cden = lp

    # tableau columns: n original, m artificial, then rhs; rows with a
    # negative rhs are negated so the artificial basis starts feasible
    signs = []
    tab = []
    for i, row in enumerate(lp_rows):
        sign = -1 if row[n] < 0 else 1
        t = [sign * v for v in row[:n]] + [0] * m + [sign * row[n]]
        t[n + i] = lp_dens[i]
        signs.append(sign)
        tab.append(t)
    dens = list(lp_dens)
    basis = list(range(n, n + m))

    # phase 1: minimize the sum of artificials; the objective row is minus
    # the row sum outside the artificial columns
    den = lcm(*dens)
    scaled = [(den // d, t) for d, t in zip(dens, tab)]
    obj = [-sum(f * t[j] for f, t in scaled) for j in range(n)]
    obj += [0] * m + [-sum(f * t[n + m] for f, t in scaled)]
    tab.append(obj)
    dens.append(_kernel._reduce_row(obj, den))
    status, _ = _kernel.simplex_rows(tab, dens, basis, n)
    if status != "optimal":
        raise InternalError("phase 1 cannot be unbounded")
    obj = tab.pop()
    den = dens.pop()
    if obj[n + m] < 0:
        # y_i = 1 - (reduced cost of artificial i), back in the input signs
        y = [s * (den - obj[n + i]) for i, s in enumerate(signs)]
        _check_farkas(y, lp)
        return StandardResult(status="infeasible", y=_fracs(y, den))

    # drive artificial variables out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                _kernel._pivot(tab, dens, i, piv)
                basis[i] = piv

    # phase 2 objective: reduced costs of c for the current basis; the rhs
    # cell ends up holding minus the objective value
    basic = [
        (cost[k], d, t) for k, d, t in zip(basis, dens, tab) if k < n and cost[k]
    ]
    den = lcm(*[d for _, d, _ in basic])
    obj = [v * den for v in cost] + [0] * (m + 1)
    for ck, d, t in basic:
        f = ck * (den // d)
        obj = [o - f * v for o, v in zip(obj, t)]
    tab.append(obj)
    dens.append(_kernel._reduce_row(obj, cden * den))
    status, enter = _kernel.simplex_rows(tab, dens, basis, n)

    # every returned vector is put over the common denominator of the rows
    den = lcm(*dens[:m])
    if status == "unbounded":
        ray = [0] * n
        ray[enter] = den
        for i in range(m):
            if basis[i] < n:
                ray[basis[i]] = -tab[i][enter] * (den // dens[i])
        _check_ray(ray, lp)
        return StandardResult(status="unbounded", ray=_fracs(ray, den))

    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][n + m] * (den // dens[i])
    # the final objective row holds -c_B B^-1 in the artificial columns:
    # minus the duals of the sign-adjusted rows
    y = [-s * tab[m][n + i] for i, s in enumerate(signs)]
    value = _check_optimal(x, den, y, dens[m], lp)
    return StandardResult(
        status="optimal", x=_fracs(x, den), y=_fracs(y, dens[m]), value=value
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

