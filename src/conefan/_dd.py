"""Incremental double description over the integers.

Computes a minimal generator pair (lineality basis, extreme rays) of a cone
given by homogeneous inequalities with integer normals.  Constraints are
processed one at a time; while the lineality space is nontrivial the
dimension-drop rule applies, afterwards each halfspace step combines
adjacent positive/negative ray pairs (the hot loop, in
conefan._kernel.dd_step).  Canonical bases of a span are the primitive
rows of the integer echelon form that _kernel.gauss_jordan leaves.
"""

from __future__ import annotations

from . import _kernel
from .rational import IntVec, idot, primitive_direction, primitive_int_vector


def _canonical_basis(vectors: list) -> tuple[IntVec, ...]:
    """Canonical primitive basis of the span of rational vectors: the
    primitive rows of its reduced echelon form."""
    rows = [primitive_direction(v) for v in vectors]
    pivots = _kernel.gauss_jordan(rows)[1]
    return tuple(primitive_int_vector(r) for r in rows[: len(pivots)])


def cone_generators(
    rows: tuple[IntVec, ...], dim: int
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Minimal (lineality, rays) of {x : <a, x> >= 0 for every row a}."""
    L: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    R: list[IntVec] = []
    Z: list[int] = []
    for idx, a in enumerate(rows):
        bit = 1 << idx
        lv = [idot(a, l) for l in L]
        k = next((i for i, t in enumerate(lv) if t != 0), None)
        if k is not None:
            l0, v0 = L[k], lv[k]
            if v0 < 0:
                l0 = tuple(-t for t in l0)
                v0 = -v0
            newL: list[IntVec] = []
            for i, l in enumerate(L):
                if i == k:
                    continue
                if lv[i] == 0:
                    newL.append(l)
                else:
                    w = [v0 * x - lv[i] * y for x, y in zip(l, l0)]
                    newL.append(primitive_int_vector(w))
            newR: list[IntVec] = []
            newZ: list[int] = []
            for r, z in zip(R, Z):
                rv = idot(a, r)
                if rv == 0:
                    newR.append(r)
                else:
                    w = [v0 * x - rv * y for x, y in zip(r, l0)]
                    newR.append(primitive_int_vector(w))
                newZ.append(z | bit)
            # the pivot lineality direction becomes a ray, tight on all
            # previously processed constraints
            newR.append(l0)
            newZ.append(bit - 1)
            L, R, Z = newL, newR, newZ
        else:
            vals = [idot(a, r) for r in R]
            R, Z = _kernel.dd_step(R, Z, vals, bit, dim - len(L) - 2)
            R = list(R)
            Z = list(Z)
    rays = tuple(sorted(tuple(r) for r in R))
    return _canonical_basis(L), rays
