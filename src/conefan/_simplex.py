"""Two-phase exact simplex in standard form: min c.x, A x = b, x >= 0.

Bland's pivot rule throughout (with exact arithmetic, cycling is the only
termination hazard and Bland's rule removes it).  One artificial variable
is added per row; their tableau columns double as the basis inverse, from
which duals and Farkas certificates are read and then re-verified before
being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _kernel
from .errors import InputError
from .rational import Vec, dot, frac


@dataclass(frozen=True)
class StandardResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[Vec] = None
    y: Optional[Vec] = None  # dual solution or Farkas certificate
    ray: Optional[Vec] = None  # improving ray when unbounded
    value: Optional[Fraction] = None


def solve_standard(c: Sequence, A: Sequence[Sequence], b: Sequence) -> StandardResult:
    c = [frac(x) for x in c]
    rows = [[frac(x) for x in row] for row in A]
    rhs = [frac(x) for x in b]
    m = len(rows)
    n = len(c)
    if len(rhs) != m or any(len(r) != n for r in rows):
        raise InputError("inconsistent LP dimensions")

    signs = []
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            signs.append(-1)
        else:
            signs.append(1)

    # tableau columns: n original, m artificial, then rhs
    width = n + m + 1
    tab = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [rhs[i]]
        row[n + i] = Fraction(1)
        tab.append(row)
    basis = list(range(n, n + m))

    # phase 1: minimize the sum of artificials
    obj = [Fraction(0)] * width
    for i in range(m):
        for j in range(n):
            obj[j] -= tab[i][j]
        obj[width - 1] -= tab[i][width - 1]
    tab.append(obj)
    status, _, tab, basis = _kernel.simplex_core(tab, basis, n)
    assert status == "optimal", "phase 1 cannot be unbounded"
    phase1_value = -tab[m][width - 1]
    if phase1_value > 0:
        y = [Fraction(1) - tab[m][n + i] for i in range(m)]
        y = [signs[i] * y[i] for i in range(m)]
        _check_farkas(y, A, b)
        return StandardResult(status="infeasible", y=tuple(y))

    # drive artificial variables out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                _kernel.pivot(tab, i, piv)
                basis[i] = piv

    # phase 2 objective: reduced costs of c for the current basis; the rhs
    # cell ends up holding minus the objective value
    obj = [c[j] if j < n else Fraction(0) for j in range(width)]
    for i in range(m):
        cb = c[basis[i]] if basis[i] < n else Fraction(0)
        if cb != 0:
            for j in range(width):
                obj[j] -= cb * tab[i][j]
    tab[m] = obj
    status, enter, tab, basis = _kernel.simplex_core(tab, basis, n)

    if status == "unbounded":
        ray = [Fraction(0)] * n
        ray[enter] = Fraction(1)
        for i in range(m):
            if basis[i] < n:
                ray[basis[i]] = -tab[i][enter]
        _check_ray(ray, c, A)
        return StandardResult(status="unbounded", ray=tuple(ray))

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width - 1]
    y = [Fraction(0)] * m
    for i in range(m):
        cb = c[basis[i]] if basis[i] < n else Fraction(0)
        if cb != 0:
            for k in range(m):
                y[k] += cb * tab[i][n + k]
    y = [signs[k] * y[k] for k in range(m)]
    value = _check_optimal(x, y, c, A, b)
    return StandardResult(status="optimal", x=tuple(x), y=tuple(y), value=value)


def _check_farkas(y, A, b):
    m = len(y)
    n = len(A[0]) if A else 0
    for j in range(n):
        if sum(frac(A[i][j]) * y[i] for i in range(m)) > 0:
            raise AssertionError("invalid Farkas certificate (A^T y > 0)")
    if sum(frac(b[i]) * y[i] for i in range(m)) <= 0:
        raise AssertionError("invalid Farkas certificate (b.y <= 0)")


def _check_ray(ray, c, A):
    if any(x < 0 for x in ray):
        raise AssertionError("improving ray has a negative entry")
    for row in A:
        if dot([frac(x) for x in row], ray) != 0:
            raise AssertionError("improving ray violates A d = 0")
    if dot([frac(x) for x in c], ray) >= 0:
        raise AssertionError("ray does not improve the objective")


def _check_optimal(x, y, c, A, b):
    if any(v < 0 for v in x):
        raise AssertionError("primal solution has a negative entry")
    m = len(A)
    n = len(x)
    for i in range(m):
        if sum(frac(A[i][j]) * x[j] for j in range(n)) != frac(b[i]):
            raise AssertionError("primal solution violates A x = b")
    for j in range(n):
        if sum(frac(A[i][j]) * y[i] for i in range(m)) > frac(c[j]):
            raise AssertionError("dual solution violates A^T y <= c")
    primal = dot([frac(v) for v in c], x)
    dual = sum(frac(b[i]) * y[i] for i in range(m))
    if primal != dual:
        raise AssertionError("nonzero duality gap in verified optimum")
    return primal


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
    cols = 2 * dim + n_ineq
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
