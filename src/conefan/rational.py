"""Exact scalars and vector helpers shared across the package.

Values with a denominator are `fractions.Fraction`s; vectors and matrices
are plain tuples of them, or of ints where integrality is an invariant or
the input gave ints:
  - primitive ray generators and cone normals (primitive_int_vector);
  - every HPolyhedron row, a primitive integer row from construction on;
  - the generators, costs and target of a representation-cost LP (qvec),
    which the simplex reads as integer rows over denominator 1;
  - the integral entries of a representation-polytope vertex, when
    Newton vertices are summed with those weights.
Floats and bools are rejected by every coercion (JSON true is not 1).
Each normal form has one routine here: primitive_int_vector and
primitive_direction for primitive integer vectors, sign_normal for the
sign of a row whose negative describes the same object.

A distinguished PlusInfinity singleton serves as the valuation of the zero
ideal.  It deliberately lives outside the scalar type used by the geometry
so that polyhedral code stays total over Fraction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd

from .errors import InputError

Scalar = int | str | Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]


def frac(x: Scalar) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction (floats rejected)."""
    if isinstance(x, bool):
        raise InputError(f"not a rational scalar: {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {x!r}") from exc
    raise InputError(f"not a rational scalar: {x!r}")


def vec(entries: Iterable[Scalar]) -> Vec:
    return tuple(frac(x) for x in entries)


def qvec(entries: Iterable[Scalar]) -> tuple:
    """Exact vector that keeps plain ints as int and coerces every other
    entry with frac (so bools, floats and bad strings are rejected)."""
    return tuple(x if type(x) is int else frac(x) for x in entries)


def mat(rows: Iterable[Iterable[Scalar]]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise InputError("matrix rows have differing lengths")
    return out


def vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise InputError(f"dimension mismatch in dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    """Integer dot product; used on hot paths where both sides are integral."""
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def vneg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def ivec(entries: Iterable) -> IntVec:
    """Coerce to an integer vector, rejecting non-integral entries and bools."""
    out = []
    for x in entries:
        if type(x) is int:
            out.append(x)
            continue
        f = frac(x)
        if f.denominator != 1:
            raise InputError(f"entry {x!r} is not an integer")
        out.append(f.numerator)
    return tuple(out)


def primitive_int_vector(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved);
    the zero vector is returned as it is."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def primitive_direction(v: Sequence) -> IntVec:
    """Primitive integer vector on the same ray as a rational vector (the
    zero vector for the zero vector).  A positive rescaling, so the sign of
    every entry and of every integer dot product is kept.  All-int vectors
    skip the Fraction route; every other entry goes through frac, which
    rejects bools and floats."""
    if all(type(x) is int for x in v):
        return primitive_int_vector(v)
    fr = [frac(x) for x in v]
    scale = 1
    for x in fr:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    return primitive_int_vector(tuple(int(x * scale) for x in fr))


def sign_normal(v: Sequence) -> tuple:
    """The vector or its negative, whichever has a positive first nonzero
    entry; the zero vector is returned as it is."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def fmt(x) -> str:
    """Render an exact scalar as p/q (integers without the denominator)."""
    return str(x)


def fmt_vec(v: Sequence) -> str:
    return "(" + ", ".join(fmt(x) for x in v) + ")"


class PlusInfinity:
    """Valuation of the zero ideal; compares above every finite rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return isinstance(other, PlusInfinity)

    def __hash__(self):
        return hash("conefan.PlusInfinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, PlusInfinity)

    def __gt__(self, other):
        return not isinstance(other, PlusInfinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, PlusInfinity) or other > 0:
            return self
        raise InputError("PlusInfinity only scales by positive factors")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other > 0:
            return self
        raise InputError("PlusInfinity only divides by positive factors")


PLUS_INFINITY = PlusInfinity()


def is_finite(x) -> bool:
    return not isinstance(x, PlusInfinity)
