import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    add,
    contains,
    contains_subgroup,
    copy,
    from_columns,
    from_rows,
    homology_pair,
    is_zero,
    mul_vec,
    preimage_subgroup,
    rank,
    solve,
    sub,
    transpose,
)

from icss.errors import NotAComplex, NotASubgroup
from icss.intlinalg import (
    HomologyGroup,
    IntMatrix,
    Subgroup,
    chain_homology,
    column_echelon,
    compose,
    group_from_presentation,
    invariant_factors,
    kernel_basis,
    restrict,
    smith_normal_form,
    solution_factors,
    solve_columns,
    sparse_columns,
    subgroup_quotient,
)


def det(M):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = M.rows
    a = [row[:] for row in M.data]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def is_unimodular(M):
    return M.rows == M.cols and abs(det(M)) == 1


def random_matrix(rng, max_dim=6, bound=9):
    m, n = rng.randint(0, max_dim), rng.randint(0, max_dim)
    return from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], cols=n
    )


def check_snf(M):
    U, S, V = smith_normal_form(M)
    assert U @ M @ V == S
    assert is_unimodular(U) and is_unimodular(V)
    diag = [S.data[i][i] for i in range(min(S.rows, S.cols))]
    for i in range(S.rows):
        for j in range(S.cols):
            if i != j:
                assert S.data[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))


def test_snf_worked_example():
    M = from_rows([[2, 4], [6, 8]], cols=2)
    assert invariant_factors(M) == [2, 4]
    check_snf(M)


def test_snf_identity_and_zero():
    assert invariant_factors(IntMatrix.identity(3)) == [1, 1, 1]
    assert invariant_factors(IntMatrix(3, 2)) == []
    check_snf(IntMatrix.identity(4))
    check_snf(IntMatrix(2, 5))


def test_snf_random_seeded():
    rng = random.Random(7)
    for _ in range(200):
        check_snf(random_matrix(rng))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_hypothesis(rows):
    check_snf(from_rows(rows, cols=len(rows[0])))


def test_snf_deterministic():
    rng = random.Random(3)
    M = random_matrix(rng)
    U1, S1, V1 = smith_normal_form(M)
    U2, S2, V2 = smith_normal_form(M)
    assert (U1, S1, V1) == (U2, S2, V2)


def test_column_echelon_postconditions():
    rng = random.Random(11)
    for _ in range(100):
        M = random_matrix(rng)
        H, T, pivots = column_echelon(M, reduce=True)
        assert H == M @ T
        assert is_unimodular(T)
        assert rank(H) == rank(M)


def test_kernel_basis():
    M = from_rows([[1, 1, 0], [0, 1, 1]], cols=3)
    K = kernel_basis(M)
    assert K.cols == 1
    assert is_zero(M @ K)
    # saturated: the kernel of a nonzero 1x1 matrix is trivial
    assert kernel_basis(from_rows([[2]], cols=1)).cols == 0
    rng = random.Random(5)
    for _ in range(50):
        M = random_matrix(rng)
        K = kernel_basis(M)
        assert is_zero(M @ K)
        assert rank(K) == K.cols == M.cols - rank(M)


def test_solve():
    assert solve(from_rows([[2]], cols=1), [4]) == [2]
    assert solve(from_rows([[2]], cols=1), [3]) is None
    I = IntMatrix.identity(3)
    assert solve(I, [5, -1, 0]) == [5, -1, 0]
    rng = random.Random(13)
    for _ in range(50):
        M = random_matrix(rng)
        x = [rng.randint(-4, 4) for _ in range(M.cols)]
        y = solve(M, mul_vec(M, x))
        assert y is not None and mul_vec(M, y) == mul_vec(M, x)


def solvable_by_smith(M, b) -> bool:
    """M @ x == b has an integral solution iff U @ b is divisible by the
    Smith diagonal and vanishes below the rank (U @ M @ V == S)."""
    U, S, _ = smith_normal_form(M)
    diag = [S.data[i][i] if i < M.cols else 0 for i in range(M.rows)]
    return all((c % d if d else c) == 0 for c, d in zip(mul_vec(U, b), diag))


@st.composite
def solve_cases(draw):
    m, n, k = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(rows, cols, lo, hi):
        cells = st.integers(lo, hi)
        data = [[draw(cells) for _ in range(cols)] for _ in range(rows)]
        return IntMatrix(rows, cols, data)

    M = matrix(m, n, -6, 6)
    B = M @ matrix(n, k, -4, 4)
    if draw(st.booleans()):
        B = add(B, matrix(m, k, -2, 2))
    return M, B


@settings(max_examples=150, deadline=None)
@given(solve_cases())
def test_solve_columns_matches_per_column_solve(case):
    M, B = case
    X = solve_columns(M, B)
    per_column = [solve(M, B.column(j)) for j in range(B.cols)]
    solvable = [solvable_by_smith(M, B.column(j)) for j in range(B.cols)]
    assert [y is not None for y in per_column] == solvable
    if all(solvable):
        assert X == from_columns(per_column, rows=M.cols)
        assert M @ X == B
    else:
        assert X is None


@settings(max_examples=100, deadline=None)
@given(solve_cases())
def test_solution_factors_are_those_of_the_solution(case):
    """The factors read off the echelon coordinates, with no transform,
    are those of the solution ``solve_columns`` forms."""
    M, B = case
    X = solve_columns(M, B)
    factors = solution_factors(M, B)
    assert (factors is None) == (X is None)
    if X is not None:
        assert factors == invariant_factors(X)


def test_solve_columns_empty_shapes():
    # M with no columns solves exactly the zero targets
    assert solve_columns(IntMatrix(3, 0), IntMatrix(3, 2)) == IntMatrix(0, 2)
    B = from_rows([[0], [1], [0]], cols=1)
    assert solve_columns(IntMatrix(3, 0), B) is None
    # B with no columns always has the empty solution
    M = from_rows([[1, 2, 3], [4, 5, 6]], cols=3)
    assert solve_columns(M, IntMatrix(2, 0)) == IntMatrix(3, 0)
    with pytest.raises(ValueError):
        solve_columns(M, IntMatrix(3, 1))


def test_restrict():
    two = from_rows([[2]], cols=1)
    I1 = IntMatrix.identity(1)
    assert restrict(two, I1, two) == I1
    with pytest.raises(NotASubgroup):
        restrict(I1, I1, two)


def test_homology_group_invariants():
    g = HomologyGroup(2, (2, 6))
    assert str(g) == "Z^2 + Z/2 + Z/6"
    assert not g.is_trivial
    assert HomologyGroup(0).is_trivial
    with pytest.raises(Exception):
        HomologyGroup(0, (3, 2))  # violates the divisibility chain


def test_group_from_presentation():
    assert group_from_presentation(3, [2, 1]) == HomologyGroup(1, (2,))
    assert group_from_presentation(2, []) == HomologyGroup(2)


def three_term(d_n: IntMatrix, d_next: IntMatrix) -> HomologyGroup:
    """ker d_n / im d_next off one ``chain_homology`` reduction of the
    three-term complex the pair makes."""
    cells = [{} for _ in range(d_n.rows)]
    return chain_homology([cells, sparse_columns(d_n), sparse_columns(d_next)], [1])[1]


def test_homology_pair_circle():
    """The boundary of the circle on three vertices, by the reference pair
    route and off one reduction of the whole complex."""
    d1 = from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], cols=3)
    d0 = IntMatrix(0, 3)
    assert homology_pair(d0, d1) == HomologyGroup(1)
    assert homology_pair(d1, IntMatrix(3, 0)) == HomologyGroup(1)
    groups = chain_homology([sparse_columns(d0), sparse_columns(d1)], [0, 1])
    assert groups == {0: HomologyGroup(1), 1: HomologyGroup(1)}


def test_homology_pair_trivial_differentials():
    assert homology_pair(IntMatrix(0, 4), IntMatrix(4, 0)) == HomologyGroup(4)
    assert chain_homology([[{} for _ in range(4)]], [0]) == {0: HomologyGroup(4)}


def test_homology_pair_rejects_noncomplex():
    d1 = from_rows([[1, 0], [0, 1]], cols=2)
    with pytest.raises(NotAComplex):
        homology_pair(d1, d1)
    with pytest.raises(NotAComplex):
        three_term(d1, d1)


def test_homology_pair_rejects_a_single_nonzero_composite():
    """Sparse boundaries whose product is zero but for one entry."""
    d_n, d_next = IntMatrix(20, 30), IntMatrix(30, 25)
    for i, j, x in ((0, 1, 1), (3, 7, 2), (5, 12, -1)):
        d_n.data[i][j] = x
    for i, j, x in ((2, 4, 1), (20, 0, 3), (7, 11, 5)):
        d_next.data[i][j] = x
    assert reference_product(d_n, d_next)[3][11] == 10
    for route in (homology_pair, three_term):
        with pytest.raises(NotAComplex):
            route(d_n, d_next)
    d_next.data[7][11] = 0
    # ker d_n drops the three columns d_n reads; im d_next is e_2 and 3 e_20
    for route in (homology_pair, three_term):
        assert route(d_n, d_next) == HomologyGroup(30 - 3 - 2, (3,))


def test_subgroup_quotient_examples():
    A = Subgroup.full(2)
    B = Subgroup(2, from_rows([[2, 0], [0, 3]], cols=2))
    assert subgroup_quotient(A, B) == HomologyGroup(0, (6,))
    assert subgroup_quotient(A, A) == HomologyGroup(0)
    assert subgroup_quotient(Subgroup.full(3), Subgroup.zero(3)) == HomologyGroup(3)


def test_subgroup_quotient_rejects_nonsubgroup():
    A = Subgroup(2, from_rows([[2], [0]], cols=1))
    with pytest.raises(NotASubgroup):
        subgroup_quotient(A, Subgroup.full(2))


def test_subgroup_generator_independence():
    rng = random.Random(17)
    for _ in range(30):
        M = random_matrix(rng, max_dim=4, bound=5)
        A = Subgroup(M.rows, M)
        # re-generate by an unimodular column mix
        if M.cols:
            _, _, V = smith_normal_form(M)
            assert Subgroup(M.rows, M @ V) == A
        assert contains_subgroup(A, A)
        for j in range(M.cols):
            assert contains(A, M.column(j))


def test_subgroup_sum_and_membership():
    A = Subgroup(2, from_rows([[2], [0]], cols=1))
    B = Subgroup(2, from_rows([[0], [3]], cols=1))
    S = A.sum(B)
    assert contains(S, [2, 3])
    assert not contains(S, [1, 0])
    assert subgroup_quotient(Subgroup.full(2), S) == HomologyGroup(0, (6,))


def test_preimage_subgroup():
    M = from_rows([[2, 0], [0, 1]], cols=2)
    S = Subgroup(2, from_rows([[4], [0]], cols=1))
    P = preimage_subgroup(M, S)
    for j in range(P.cols):
        assert contains(S, mul_vec(M, P.column(j)))


# The products and elimination steps skip zero entries; the reference below
# touches every entry, zeros included, so it shares no shortcut with them.


def reference_product(A, B):
    """Plain triple loop: the entries of A @ B."""
    out = [[0] * B.cols for _ in range(A.rows)]
    for i in range(A.rows):
        for j in range(B.cols):
            for k in range(A.cols):
                out[i][j] += A.data[i][k] * B.data[k][j]
    return out


BIG = 2**70  # well past 2**64, so no fixed-width shortcut can hold an entry
ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


@st.composite
def int_matrices(draw, rows, cols, dense):
    """A rows x cols matrix, dense or with about 5 % of its entries nonzero."""
    M = IntMatrix(rows, cols)
    if dense:
        M.data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    elif rows and cols:
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), ENTRIES)
        for i, j, x in draw(st.lists(cell, max_size=rows * cols // 10)):
            M.data[i][j] = x
    return M


@st.composite
def product_cases(draw):
    dense = draw(st.booleans())
    size = st.integers(0, 6) if dense else st.integers(0, 16)
    m, k, n = draw(size), draw(size), draw(size)
    return draw(int_matrices(m, k, dense)), draw(int_matrices(k, n, dense))


def shares_rows(C, *operands):
    return any(r is s for r in C.data for M in operands for s in M.data)


@settings(max_examples=200, deadline=None)
@given(product_cases())
def test_products_match_triple_loop(case):
    A, B = case
    before = (copy(A), copy(B))
    C = A @ B
    expected = reference_product(A, B)
    assert (C.rows, C.cols) == (A.rows, B.cols)
    assert C.data == expected
    assert (A, B) == before
    assert not shares_rows(C, A, B)
    assert len({id(r) for r in C.data}) == C.rows
    for j in range(B.cols):
        assert mul_vec(A, B.column(j)) == [row[j] for row in expected]


def test_products_of_empty_shapes():
    # 0 x n times n x 0, and n x 0 times 0 x m
    assert IntMatrix(0, 3) @ IntMatrix(3, 0) == IntMatrix(0, 0)
    C = IntMatrix(3, 0) @ IntMatrix(0, 4)
    assert C == IntMatrix(3, 4)
    assert len({id(r) for r in C.data}) == 3
    assert mul_vec(IntMatrix(2, 0), []) == [0, 0]
    assert mul_vec(IntMatrix(0, 2), [5, 7]) == []


def test_products_with_big_entries():
    A = from_rows([[BIG, 0, -1], [0, 0, 0]], cols=3)
    B = from_rows([[BIG], [5], [2**65]], cols=1)
    assert (A @ B).data == [[BIG * BIG - 2**65], [0]]
    assert mul_vec(A, [BIG, 0, 1]) == [BIG * BIG - 1, 0]


@st.composite
def same_shape_pairs(draw):
    dense = draw(st.booleans())
    size = st.integers(0, 6) if dense else st.integers(0, 16)
    m, n = draw(size), draw(size)
    return draw(int_matrices(m, n, dense)), draw(int_matrices(m, n, dense))


def reference_columns(M):
    """Per-entry loop: the nonzeros of each column, rows in increasing order."""
    cols = []
    for j in range(M.cols):
        col = {}
        for i in range(M.rows):
            if M.data[i][j] != 0:
                col[i] = M.data[i][j]
        cols.append(col)
    return cols


@settings(max_examples=100, deadline=None)
@given(same_shape_pairs())
def test_elementwise_kernels_match_loops(case):
    A, B = case
    before = (copy(A), copy(B))
    T = transpose(A)
    assert (T.rows, T.cols) == (A.cols, A.rows)
    assert T.data == [[A.data[i][j] for i in range(A.rows)] for j in range(A.cols)]
    S, D = add(A, B), sub(A, B)
    for op, C in ((operator.add, S), (operator.sub, D)):
        assert (C.rows, C.cols) == (A.rows, A.cols)
        assert C.data == [
            [op(A.data[i][j], B.data[i][j]) for j in range(A.cols)] for i in range(A.rows)
        ]
    for M in (A, B, S, D, T):
        assert is_zero(M) == all(x == 0 for row in M.data for x in row)
        assert [list(c.items()) for c in sparse_columns(M)] == [
            list(c.items()) for c in reference_columns(M)
        ]
    assert (A, B) == before
    for C in (T, S, D, IntMatrix(A.rows, A.cols, A.data)):
        assert not shares_rows(C, A, B)
        assert len({id(r) for r in C.data}) == C.rows


@settings(max_examples=100, deadline=None)
@given(product_cases())
def test_compose_matches_the_product(case):
    A, B = case
    a_cols, b_cols = sparse_columns(A), sparse_columns(B)
    expected = reference_columns(IntMatrix(A.rows, B.cols, reference_product(A, B)))
    assert compose(a_cols, b_cols) == expected
    assert (sparse_columns(A), sparse_columns(B)) == (a_cols, b_cols)  # not consumed


def test_elementwise_kernels_on_empty_shapes_and_big_entries():
    assert transpose(IntMatrix(0, 3)) == IntMatrix(3, 0)
    assert transpose(IntMatrix(3, 0)) == IntMatrix(0, 3)
    assert len({id(r) for r in transpose(IntMatrix(0, 3)).data}) == 3
    assert is_zero(IntMatrix(0, 3)) and is_zero(IntMatrix(3, 0))
    assert add(IntMatrix(2, 0), IntMatrix(2, 0)) == IntMatrix(2, 0)
    assert sparse_columns(IntMatrix(0, 3)) == [{}, {}, {}]
    assert sparse_columns(IntMatrix(3, 0)) == []
    assert compose([{}, {}], [{}, {}, {}]) == [{}, {}, {}]
    assert compose([], [{}]) == [{}]
    A = from_rows([[BIG, 0], [0, -(2**65)]], cols=2)
    assert is_zero(sub(A, A)) and not is_zero(add(A, A))
    assert sparse_columns(A) == [{0: BIG}, {1: -(2**65)}]
    # BIG * 1 - BIG * 1 cancels: the zero sum is dropped, not kept as 0
    assert compose([{0: BIG, 1: 1}, {0: BIG}], [{0: 1, 1: -1}]) == [{1: 1}]
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])


@st.composite
def echelon_inputs(draw):
    """Sparse matrices up to 10 x 10, or small dense ones."""
    dense = draw(st.booleans())
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    return draw(int_matrices(rows, cols, dense and rows * cols <= 16))


@settings(max_examples=150, deadline=None)
@given(echelon_inputs(), st.booleans())
def test_column_echelon_postconditions_sparse(M, reduce):
    H, T, pivots = column_echelon(M, reduce=reduce)
    assert H.data == reference_product(M, T)
    assert is_unimodular(T)
    assert [c for _, c in pivots] == list(range(len(pivots)))
    assert all(a[0] < b[0] for a, b in zip(pivots, pivots[1:]))
    for r, c in pivots:
        p = H.data[r][c]
        assert p > 0 and not any(H.data[r][c + 1 :])
        assert not any(H.data[i][c] for i in range(r))
        if reduce:
            assert all(0 <= H.data[r][j] < p for j in range(c))
    # the columns past the pivots are zero: they span the kernel of M
    assert not any(any(row[len(pivots) :]) for row in H.data)
    # without the transform, the same echelon form and pivots
    assert column_echelon(M, reduce=reduce, transform=False) == (H, None, pivots)


@st.composite
def sparse_solve_cases(draw):
    M = draw(echelon_inputs())
    k = draw(st.integers(0, 3))
    X = draw(int_matrices(M.cols, k, False))
    B = IntMatrix(M.rows, k, reference_product(M, X))
    if draw(st.booleans()):
        noise = draw(int_matrices(M.rows, k, False))
        B = add(B, noise)
    return M, B


@settings(max_examples=150, deadline=None)
@given(sparse_solve_cases())
def test_solve_columns_sparse(case):
    M, B = case
    X = solve_columns(M, B)
    solvable = all(solvable_by_smith(M, B.column(j)) for j in range(B.cols))
    assert (X is not None) == solvable
    if X is not None:
        assert reference_product(M, X) == B.data


def test_invariant_factors_match_sympy():
    """Invariant factors, and the homology of a three-term complex whose
    second differential is the same matrix, against sympy's Smith form and
    against the diagonal of the Smith form that carries U and V:
    H = ker(d_n) / im(M) has rank nullity(d_n) - rank(M), and its torsion is
    that of M because the kernel is a direct summand."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(29)
    for trial in range(120):
        density = (0.05, 0.3, 1.0)[trial % 3]
        size = 12 if density < 0.1 else 7
        m, n = rng.randint(1, size), rng.randint(1, size)
        M = from_rows(
            [
                [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)
            ],
            cols=n,
        )
        S = sympy_snf(sympy.Matrix(M.data), domain=sympy.ZZ)
        expected = sorted(abs(int(S[i, i])) for i in range(min(m, n)) if S[i, i])
        assert invariant_factors(M) == expected, M.data
        # the elimination without U and V stops at the same diagonal
        _, S_full, _ = smith_normal_form(M)
        diagonal = [S_full.data[t][t] for t in range(min(m, n)) if S_full.data[t][t]]
        assert invariant_factors(M) == diagonal, M.data
        # d_n: random combinations of the rows annihilating M
        left = transpose(kernel_basis(transpose(M)))
        mix = from_rows(
            [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(left.rows)] for _ in range(3)],
            cols=left.rows,
        )
        d_n = mix @ left
        nullity = m - sympy.Matrix(d_n.data).rank()
        torsion = tuple(d for d in expected if d > 1)
        for route in (homology_pair, three_term):
            assert route(d_n, M) == HomologyGroup(
                nullity - len(expected), torsion
            ), (d_n.data, M.data)
