"""Exact linear algebra: solving, ranks, kernels, adjugates and lattices.

Reduced echelon forms, ranks and adjugates come off _kernel.gauss_jordan;
frames, bases and lattice determinants off int_echelon, the one
elimination that keeps the lattice the rows span.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from math import prod

from . import _kernel
from ._value import Frozen
from .errors import InputError
from .rational import (
    IntVec,
    Mat,
    Vec,
    _check_lengths,
    ivec,
    primitive_direction,
    primitive_int_vector,
    qvec,
    sign_normal,
    vzero,
)


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [qvec(r) for r in rows]
    _check_lengths(rows, "matrix rows have differing lengths")
    return _kernel.rref_frac(rows)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank, off the pivots of the rows' primitive integer forms."""
    rows = [primitive_direction(r) for r in rows]
    _check_lengths(rows, "matrix rows have differing lengths")
    return len(_kernel.gauss_jordan(rows)[1])


class LinearSolution(Frozen):
    """One particular solution together with a basis of the kernel."""

    particular: Vec
    kernel_basis: tuple[Vec, ...]


def _kernel_from_rref(red, pivots, ncols: int) -> tuple[Vec, ...]:
    """Kernel basis of the first ncols columns of a reduced echelon form.

    Only the pivots below ncols may be passed; the columns past ncols (an
    augmented right-hand side) are ignored.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(sign_normal(v))
    return tuple(basis)


def kernel_basis(rows: Sequence[Sequence]) -> tuple[Vec, ...]:
    """Basis of {x : A x = 0} derived from the reduced echelon form.

    Each basis vector is sign-normalized so its first nonzero entry is
    positive, making the output canonical.
    """
    if not rows:
        return ()
    red, pivots = rref(rows)
    return _kernel_from_rref(red, pivots, len(rows[0]))


def linear_solve(A: Mat, b: Vec) -> LinearSolution | None:
    """Solve A x = b exactly; None when the system is inconsistent.

    One reduction of [A | b] serves both outputs: when the system is
    consistent its left block is the reduced echelon form of A.
    """
    if len(A) != len(b):
        raise InputError("row count of A must match length of b")
    if not A:
        return LinearSolution((), ())
    ncols = len(A[0])
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = list(vzero(ncols))
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return LinearSolution(tuple(x), _kernel_from_rref(red, pivots, ncols))


def int_adjugate(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]] | None, int]:
    """Adjugate and determinant of a square integer matrix; (None, 0) for
    a singular one.

    adj(M) M = M adj(M) = det(M) I, so for invertible M the solution of
    M x = b is adj(M) b / det(M) with no division until the end, and row j
    of adj(M) vanishes on every column of M but the j-th.  gauss_jordan
    takes [M | I] to [d I | E] over d = |det(M)|, with pivots on M's
    columns exactly when M is invertible, and adj(M) = +-E with det's
    sign.  A singular M's adjugate need not vanish, but every caller
    skips a zero determinant, so none is formed.
    """
    n = len(rows)
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    den, pivots, sign = _kernel.gauss_jordan(work)
    if pivots and pivots[-1] >= n:
        return None, 0
    return [[x if sign > 0 else -x for x in row[n:]] for row in work], sign * den


def int_echelon(vectors: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form of integer vectors: its nonzero rows, each
    with a positive pivot, and their pivot columns.

    The pivot columns are the first coordinate set, in lexicographic order,
    on which the vectors have their full rank (the greedy basis of the
    column matroid), so they frame the vectors' span.  Rows are combined by
    unimodular steps, a Euclidean reduction per column, so the rows span
    the same lattice as the vectors.
    """
    if not vectors:
        return [], []
    work = [list(ivec(v)) for v in vectors]
    _check_lengths(work, "vectors have differing lengths")
    n = len(work[0])
    m = len(work)
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if work[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(work[i][col]))
            work[r], work[best] = work[best], work[r]
            done = True
            for i in range(r + 1, m):
                if work[i][col] != 0:
                    q = work[i][col] // work[r][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if work[r][col] != 0:
            if work[r][col] < 0:
                work[r] = [-x for x in work[r]]
            pivots.append(col)
    return work[: len(pivots)], pivots


def echelon_lattice_det(rows: Sequence[Sequence[int]]) -> int:
    """gcd of the maximal minors of the rows of an integer echelon form (1
    for no rows): the lattice determinant of the vectors it came from.
    It is the index in Z^k of the lattice of the k rows' columns, the
    product of the pivots of their echelon (Schrijver 1986, ch. 4)."""
    return prod(row[p] for row, p in zip(*int_echelon(list(zip(*rows)))))


def hermite_basis_det(vectors: Sequence[Sequence]) -> tuple[int, int]:
    """Rank and lattice determinant of a family of integer vectors.

    The determinant is the index of the integer span of the vectors inside
    the saturated lattice of the rational subspace they span (equivalently
    the gcd of all maximal minors); it is 1 exactly when the vectors extend
    to a basis of the ambient lattice.
    """
    rows, pivots = int_echelon(vectors)
    return len(pivots), echelon_lattice_det(rows)


def _basis_table(vectors: Sequence[IntVec]) -> tuple:
    """(E, S, bases): E and S = int_echelon(vectors), and (B, adj(D_SB),
    det(D_SB)) with det > 0 for every basis B of span(vectors) among them,
    an index set in lexicographic order; D_SB is B's S-coordinates as
    columns, invertible exactly when B is independent, as the span
    projects isomorphically onto S.  The package's one enumeration of
    bases: fans._cut_frame reads its cuts off the adjugates' rows, and
    graded._basic_solutions its vertices as adj(D_SB) m_S / det(D_SB)."""
    echelon, frame = int_echelon(vectors)
    coords = [[v[i] for v in vectors] for i in frame]
    bases = []
    for basis in combinations(range(len(vectors)), len(frame)):
        adj, det = int_adjugate([[row[j] for j in basis] for row in coords])
        if det < 0:
            adj, det = [[-x for x in row] for row in adj], -det
        if det:
            bases.append((basis, adj, det))
    return echelon, frame, tuple(bases)


def primitive(v: Sequence) -> IntVec:
    """Primitive representative of a nonzero integer vector."""
    v = ivec(v)
    if not any(v):
        raise InputError("zero vector has no primitive representative")
    return primitive_int_vector(v)
