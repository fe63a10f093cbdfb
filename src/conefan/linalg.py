"""Exact linear algebra: solving, ranks, kernels, and lattice determinants."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import _kernel
from ._value import Frozen
from .errors import InputError
from .rational import (
    IntVec,
    Mat,
    Vec,
    frac,
    ivec,
    primitive_int_vector,
    sign_normal,
    vzero,
)


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return [], []
    return _kernel.rref_frac([[frac(x) for x in r] for r in rows])


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


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


def _int_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a square integer matrix.

    adj(M) M = M adj(M) = det(M) I, so for invertible M the solution of
    M x = b is adj(M) b / det(M) with no division until the end.
    """
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [x for c, x in enumerate(r) if c != j]
                for k, r in enumerate(rows)
                if k != i
            ]
            adj[j][i] = (-1) ** (i + j) * _int_det(minor)
    det = sum(rows[0][j] * adj[j][0] for j in range(n)) if n else 1
    return adj, det


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
    n = len(work[0])
    if any(len(r) != n for r in work):
        raise InputError("vectors have differing lengths")
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
    for no rows): the lattice determinant of the vectors it came from."""
    if not rows:
        return 1
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, _int_det([[row[c] for c in cols] for row in rows]))
        if g == 1:
            break
    return g


def hermite_basis_det(vectors: Sequence[Sequence]) -> tuple[int, int]:
    """Rank and lattice determinant of a family of integer vectors.

    The determinant is the index of the integer span of the vectors inside
    the saturated lattice of the rational subspace they span (equivalently
    the gcd of all maximal minors); it is 1 exactly when the vectors extend
    to a basis of the ambient lattice.
    """
    rows, pivots = int_echelon(vectors)
    return len(pivots), echelon_lattice_det(rows)


def primitive(v: Sequence) -> IntVec:
    """Primitive representative of a nonzero integer vector."""
    v = ivec(v)
    if not any(v):
        raise InputError("zero vector has no primitive representative")
    return primitive_int_vector(v)
