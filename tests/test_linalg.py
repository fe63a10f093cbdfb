import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _det_reference,
    adjugate_reference,
    frame_reference,
    lattice_det_reference,
    pivot_det_reference,
    primitive_reference,
    rref_reference,
    sign_normal_reference,
)

from conefan import _kernel

from conefan.errors import InputError
from conefan.linalg import (
    _basis_table,
    echelon_lattice_det,
    hermite_basis_det,
    int_adjugate,
    int_echelon,
    kernel_basis,
    linear_solve,
    primitive,
    rank,
    rref,
)
from conefan.rational import (
    PLUS_INFINITY,
    dot,
    frac,
    mat,
    primitive_direction,
    primitive_int_vector,
    sign_normal,
    vec,
)


def test_linear_solve_identity():
    sol = linear_solve(mat([[1, 0], [0, 1]]), vec([3, 5]))
    assert sol.particular == vec([3, 5])
    assert sol.kernel_basis == ()


def test_linear_solve_underdetermined():
    sol = linear_solve(mat([[1, 1]]), vec([2]))
    assert sol.particular == vec([2, 0])
    assert sol.kernel_basis == (vec([1, -1]),)


def test_linear_solve_inconsistent():
    assert linear_solve(mat([[1], [1]]), vec([1, 2])) is None


def test_linear_solve_rejects_ragged_rows():
    # a short row used to raise a bare IndexError from the elimination
    for A in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(InputError):
            linear_solve(A, [1, 2])


def test_rank_rejects_ragged_rows():
    # a short row used to raise a bare IndexError from the elimination
    for rows in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(InputError, match="differing lengths"):
            rank(rows)


def test_kernel_basis_rejects_ragged_rows():
    # the kernel's width is read off the first row, and a short row used
    # to raise a bare IndexError
    for rows in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(InputError, match="differing lengths"):
            kernel_basis(rows)


def test_rref_rejects_ragged_rows():
    # [[1], [2, 3]] used to reduce to the wrong form ([[1], [0]], [0])
    for rows in ([[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(InputError, match="differing lengths"):
            rref(rows)


def test_linear_solve_roundtrip_random():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = mat(
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(m)
            ]
        )
        x = vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
        b = vec([dot(row, x) for row in A])
        sol = linear_solve(A, b)
        assert sol is not None
        assert all(dot(row, sol.particular) == bi for row, bi in zip(A, b))
        for k in sol.kernel_basis:
            assert all(dot(row, k) == 0 for row in A)
        assert len(sol.kernel_basis) == n - rank(A)


@st.composite
def consistent_systems(draw):
    """A x = b with b in the column space of A; A often rank-deficient."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    A = [[Fraction(draw(entry), draw(st.integers(1, 4))) for _ in range(n)]]
    for _ in range(m - 1):
        if draw(st.booleans()):
            k = Fraction(draw(st.integers(-3, 3)))
            A.append([k * a for a in draw(st.sampled_from(A))])
        else:
            A.append([Fraction(draw(entry)) for _ in range(n)])
    x = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3))) for _ in range(n)]
    return mat(A), vec([dot(row, x) for row in mat(A)])


@settings(max_examples=300, deadline=None)
@given(consistent_systems())
@example((mat([[0, 0]]), vec([0])))
@example((mat([[1, 2], [2, 4]]), vec([3, 6])))
@example((mat([[5]]), vec([10])))
def test_linear_solve_kernel_matches_kernel_basis(system):
    # linear_solve reads the kernel off its one reduction of [A | b]
    A, b = system
    sol = linear_solve(A, b)
    assert sol.kernel_basis == kernel_basis(A)
    assert all(dot(row, sol.particular) == bi for row, bi in zip(A, b))


def test_hermite_examples():
    assert hermite_basis_det([(1, 0), (0, 1)]) == (2, 1)
    assert hermite_basis_det([(1, 0), (1, 2)]) == (2, 2)
    assert hermite_basis_det([(1, 1), (2, 2)]) == (1, 1)
    assert hermite_basis_det([]) == (0, 1)


def test_hermite_unimodular_invariance():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(2, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        base = hermite_basis_det(rows)
        work = [r[:] for r in rows]
        for _ in range(6):
            op = rng.randrange(3)
            i = rng.randrange(m)
            if op == 0:
                work[i] = [-x for x in work[i]]
            elif op == 1 and m > 1:
                j = rng.randrange(m)
                if j != i:
                    c = rng.randint(-3, 3)
                    work[i] = [a + c * b for a, b in zip(work[i], work[j])]
            else:
                j = rng.randrange(m)
                work[i], work[j] = work[j], work[i]
        assert hermite_basis_det(work) == base


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@example([[2, 1], [4, 2]])
def test_int_adjugate_identity(m):
    adj, det = int_adjugate(m)
    n = len(m)
    # the determinant agrees with the rank test on Fraction rows
    assert (det != 0) == (rank(m) == n)
    if not det:
        # a singular matrix has no adjugate formed
        assert adj is None
        return
    scalar = [[det if i == j else 0 for j in range(n)] for i in range(n)]
    assert [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == scalar
    assert [[sum(adj[i][k] * m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == scalar
    x = linear_solve(mat(m), vec([1] * n)).particular
    assert x == tuple(Fraction(sum(row), det) for row in adj)


@st.composite
def square_matrices(draw):
    """Integer matrices up to 5x5, often singular: a zero row, a zero
    column, or a row replaced by an integer combination of two rows."""
    n = draw(st.integers(0, 5))
    rows = [[draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "zero row", "zero column", "dependent"]))
    if n and kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    elif n and kind == "zero column":
        col = draw(st.integers(0, n - 1))
        for r in rows:
            r[col] = 0
    elif n > 1 and kind == "dependent":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.integers(-2, 2))
        target = draw(st.integers(0, n - 1))
        rows[target] = [k * a + b for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=400, deadline=None)
@given(square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[2, 1], [4, 2]])
@example([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
@example([[0, 0], [0, 0]])
def test_int_adjugate_matches_cofactor_reference(m):
    # the Gauss-Jordan pass, with its row swaps, gives the adjugate and
    # determinant exactly; a singular matrix gives (None, 0)
    adj, det = adjugate_reference(m)
    if det:
        assert int_adjugate(m) == (adj, det)
    else:
        assert int_adjugate(m) == (None, 0)


@settings(max_examples=400, deadline=None)
@given(square_matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[-2, 1], [1, 3]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
def test_pivot_det_matches_laplace_reference(m):
    # the determinant the one Gauss-Jordan loop leaves, sign * den at full
    # rank and 0 below it, is the Laplace expansion's and the one the
    # removed _pivot_det pass gave; int_adjugate reads the same
    work = [list(r) for r in m]
    den, pivots, sign = _kernel.gauss_jordan(work)
    det = sign * den if len(pivots) == len(m) else 0
    assert det == _det_reference(m) == pivot_det_reference([list(r) for r in m])
    assert int_adjugate(m)[1] == det


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6
        )
    )
)
@example([(1, 0, 1), (0, 1, 1), (1, 1, 2)])
@example([(0, 0), (2, 4)])
def test_basis_table_lists_every_basis_with_its_adjugate(vectors):
    # the table holds the echelon, and every independent k-set of the
    # vectors, in order, with the adjugate and determinant of its frame
    # coordinates, made positive
    echelon, frame, bases = _basis_table(vectors)
    assert (echelon, frame) == int_echelon(vectors)
    k = len(frame)
    assert [b for b, _, _ in bases] == [
        b
        for b in combinations(range(len(vectors)), k)
        if rank([vectors[j] for j in b]) == k
    ]
    for b, adj, det in bases:
        ref_adj, ref_det = adjugate_reference([[vectors[j][i] for j in b] for i in frame])
        sign = 1 if ref_det > 0 else -1
        assert (adj, det) == ([[sign * x for x in row] for row in ref_adj], sign * ref_det)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    )
)
@example([[0, 0], [0, 0]])
@example([[1, 2, 3], [2, 4, 6]])
def test_rref_of_int_rows_matches_fraction_rows(rows):
    # int rows reach the kernel as ints; the reduced form and its pivots
    # are those of the same rows as Fractions, entries all Fractions
    red, pivots = rref(rows)
    assert (red, pivots) == rref([[Fraction(x) for x in r] for r in rows])
    assert all(type(x) is Fraction for r in red for x in r)
    assert rank(rows) == len(pivots)


def test_rref_hands_int_rows_to_the_kernel(monkeypatch):
    # rref hands int rows to rref_frac as ints; rank hands the loop int
    # rows, Fraction rows scaled to primitive ones, and reads its pivots
    # with no Fraction rows made
    seen = []
    real = _kernel.rref_frac

    def record(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(_kernel, "rref_frac", record)
    assert rref([[1, 2], [3, 4]])[1] == [0, 1]
    assert seen == [[(1, 2), (3, 4)]]
    assert all(type(x) is int for r in seen[0] for x in r)

    looped = []
    loop = _kernel.gauss_jordan

    def record_loop(rows):
        looped.append([list(r) for r in rows])
        return loop(rows)

    def no_fractions(rows, den):
        raise AssertionError("rank built Fraction rows")

    monkeypatch.setattr(_kernel, "gauss_jordan", record_loop)
    monkeypatch.setattr(_kernel, "_to_frac_rows", no_fractions)
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[Fraction(1, 2), Fraction(3, 4)], [1, Fraction(3, 2)]]) == 1
    assert looped == [[[1, 2], [3, 4]], [[2, 3], [2, 3]]]
    assert seen == [[(1, 2), (3, 4)]]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(
                    st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=0,
            max_size=5,
        )
    )
)
@example([[0, 0], [0, 0]])
@example([[Fraction(1, 2), 1], [1, 2]])
def test_rank_matches_fraction_reference(rows):
    assert rank(rows) == len(rref_reference(rows)[1])


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 1)) == (1, 1)
    assert primitive((-3, 6)) == (-1, 2)
    with pytest.raises(InputError):
        primitive((0, 0))
    assert primitive_direction((Fraction(1, 2), Fraction(3, 4))) == (2, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-12, 12),
            st.fractions(min_value=-6, max_value=6, max_denominator=9),
        ),
        min_size=1,
        max_size=5,
    )
)
@example([0, 0, 0])
@example([Fraction(0), 0])
@example([0, -4, 6])
def test_normal_forms_match_fraction_references(v):
    # each routine is total on the zero vector, which it returns as it is
    expected = primitive_reference(v)
    assert primitive_direction(v) == expected
    assert primitive_direction(tuple(v)) == expected
    if all(type(x) is int for x in v):
        assert primitive_int_vector(v) == expected
    assert sign_normal(v) == sign_normal_reference(v)
    assert sign_normal(primitive_direction(v)) == sign_normal_reference(expected)


@pytest.mark.parametrize(
    "v",
    [(Fraction(1, 2), True), (False, Fraction(1, 3)), (Fraction(1, 2), 0.5), (1.0, 2)],
)
def test_primitive_direction_rejects_bools_and_floats(v):
    with pytest.raises(InputError):
        primitive_direction(v)


@st.composite
def frame_matrices(draw):
    """Small integer matrices, often rank-deficient: integer combinations
    of a few base rows and zero rows are mixed in, in any order."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    base = draw(st.lists(row, min_size=1, max_size=4))
    coefs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    rows = base + [
        [sum(c * r[j] for c, r in zip(coef, base)) for j in range(n)]
        for coef in draw(st.lists(coefs, max_size=2))
    ]
    rows += [[0] * n] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(frame_matrices())
@example([[0, 1, 0], [0, 2, 5]])
@example([[0, 0], [0, 0]])
@example([[1, 2, 3], [2, 4, 6]])
def test_echelon_pivots_are_the_first_full_rank_frame(rows):
    # the greedy basis of the column matroid is the lexicographically first
    # coordinate set on which the rows keep their rank
    echelon, pivots = int_echelon(rows)
    assert tuple(pivots) == frame_reference(rows)
    assert len(echelon) == len(pivots) == rank(rows)
    assert all(r[p] > 0 and not any(r[:p]) for r, p in zip(echelon, pivots))


@settings(max_examples=300, deadline=None)
@given(frame_matrices())
@example([[0, 1, 0], [0, 2, 5]])
@example([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
@example([[2, 4, 6]])
@example([[0, 0, 0]])
def test_echelon_lattice_det_matches_minor_loop(rows):
    # the product of the pivots of the transpose's echelon is the gcd of
    # the k x k minors of the k echelon rows, also for k < n, and for the
    # vectors the echelon came from
    echelon, _ = int_echelon(rows)
    assert echelon_lattice_det(echelon) == lattice_det_reference(echelon)
    assert hermite_basis_det(rows) == (len(echelon), lattice_det_reference(echelon))


def test_exact_arithmetic_roundtrips():
    rng = random.Random(11)
    for _ in range(300):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_plus_infinity_ordering():
    assert PLUS_INFINITY > Fraction(10**9)
    assert not (PLUS_INFINITY < Fraction(0))
    assert PLUS_INFINITY + Fraction(3) == PLUS_INFINITY
    assert PLUS_INFINITY == PLUS_INFINITY
    assert Fraction(1, 2) < PLUS_INFINITY


def test_frac_rejects_floats():
    with pytest.raises(InputError):
        frac(0.5)


def test_kernel_basis_sign_convention():
    kb = kernel_basis(mat([[1, 1]]))
    assert kb == (vec([1, -1]),)
