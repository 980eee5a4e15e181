import random

import pytest
from reference import (
    add,
    alt_matrix,
    alt_transfer,
    alt_veps_matrix,
    alternating_cochain_homology,
    alternating_homology_kernel,
    cell_bijection,
    contains,
    contains_subgroup,
    copy,
    dual_alternating_homology,
    from_columns,
    is_alternating,
    is_zero,
    mul_vec,
    pair_alternating_cochain_homology,
    pair_alternating_homology,
    pair_alternating_homology_kernel,
    pair_dual_alternating_homology,
    pair_homology_of_complex,
    scaled,
    selector,
    transpose,
)

from icss.alternating import (
    AltBasis,
    alt_boundary_matrix,
    alternating_homology,
    alternating_kernel,
    rho_columns,
)
from icss.complexes import boundary_matrix, homology_of_complex, pushforward_matrix
from icss.errors import DegreeOutOfRange, NotAlternating
from icss.fixtures import FIXTURES, get_fixture, random_fixture
from icss.intlinalg import HomologyGroup, IntMatrix, Subgroup, sparse_columns
from icss.multiplicity import Tower, projection_eps


def rho_dense(Z, n):
    """The raw transfer of Z in degree n, as a dense matrix."""
    return IntMatrix.from_sparse(rho_columns(Z, n), projection_eps(Z, 1).target.n_simplices(n))


def test_alt_Z_double_cover(double_cover):
    D2 = Tower(double_cover).D(2)
    ab = D2.index((D2.tuple_index[(0, 1)],))
    ba = D2.index((D2.tuple_index[(1, 0)],))
    c = alt_matrix(D2, 0).column(ab)
    assert (c[ab], c[ba]) == (1, -1) and sum(map(abs, c)) == 2
    assert is_alternating(D2, 0, c)


def test_alt_Z_kills_diagonal(fold):
    W2 = Tower(fold).W(2)
    zz = W2.index((W2.tuple_index[(1, 1)],))
    assert not any(alt_matrix(W2, 0).column(zz))


def test_alternating_characterization(fold):
    """A chain is alternating exactly when it lies in the kernel span."""
    D2 = Tower(fold).D(2)
    rng = random.Random(1)
    for n in range(D2.dim + 1):
        A = alternating_kernel(D2, n)
        span = Subgroup(A.rows, A)
        for _ in range(20):
            v = [rng.randint(-2, 2) for _ in range(D2.n_simplices(n))]
            assert is_alternating(D2, n, v) == contains(span, v)
        # image of the alternation operator lands in the kernel span
        assert contains_subgroup(span, Subgroup(A.rows, alt_matrix(D2, n)))


def test_alt_basis_counts(fold, identity_map, double_cover):
    assert AltBasis(Tower(fold).D(2), 1).n_gens == 1
    assert AltBasis(Tower(identity_map).D(2), 0).n_gens == 0
    tower = Tower(double_cover)
    basis = AltBasis(tower.D(2), 0)
    assert basis.n_gens == 1
    g = basis.gens[0]
    assert len(tower.lifts[g.delta]) == 2 and g.lifts == tower.lifts[g.delta]


def test_alt_basis_round_trip(disc_to_rp2):
    D2 = Tower(disc_to_rp2).D(2)
    for n in range(D2.dim + 1):
        basis = AltBasis(D2, n)
        # generators contain their product representative with coefficient 1
        for idx, g in enumerate(basis.gens):
            assert g.sign * basis.to_raw_matrix.data[D2.index(g.canonical)][idx] == 1


def alternating_bases(maps):
    """The basis of every (map, k, n) over the named maps and 40 random
    ones: 300 bases."""
    for f in list(maps.values()) + [random_fixture(seed) for seed in range(40)]:
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            for n in range(f.target.dim + 1):
                yield AltBasis(tower.D(k), n)


def test_alt_basis_matches_alternation(maps):
    """to_raw_matrix, read off the product records, equals the alternation
    of each signed product representative."""
    for basis in alternating_bases(maps):
        expected = alt_matrix(basis.Z, basis.n) @ transpose(selector(basis))
        assert basis.to_raw_matrix == expected


def test_coordinates_gather_the_selector_rows(maps):
    """coordinates(R) is selector @ R, the selector rows at the
    generators' product simplices, in rows of its own, for R the alternation
    of every simplex."""
    count = 0
    for basis in alternating_bases(maps):
        R = alt_matrix(basis.Z, basis.n)
        A = basis.coordinates(R)
        assert A == selector(basis) @ R
        assert not any(a is r for a in A.data for r in R.data)
        count += 1
    assert count == 300


def test_coordinates_of_basis_is_identity(disc_to_rp2, deep_map):
    for f in (disc_to_rp2, deep_map):
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            for n in range(f.target.dim + 1):
                basis = AltBasis(tower.D(k), n)
                A = basis.coordinates(basis.to_raw_matrix)
                assert A == IntMatrix.identity(basis.n_gens)


def test_coordinates_rejects_one_bad_column(disc_to_rp2):
    basis = AltBasis(Tower(disc_to_rp2).D(2), 1)
    R = basis.to_raw_matrix
    assert R.cols >= 2
    # a row the selector skips, so only the alternation check sees the change
    selected = {basis.Z.index(g.canonical) for g in basis.gens}
    i = min(set(range(R.rows)) - selected)
    for j in range(R.cols):
        bad = copy(R)
        bad.data[i][j] += 1
        with pytest.raises(NotAlternating):
            basis.coordinates(bad)


def test_raw_to_alt_rejects_non_alternating(double_cover):
    basis = AltBasis(Tower(double_cover).D(2), 0)
    with pytest.raises(NotAlternating):
        basis.coordinates(from_columns([[1, 0]]))


def test_rho_is_a_chain_differential(fold, deep_map):
    for f in (fold, deep_map):
        tower = Tower(f)
        k_top = min(tower.k_max(), 3)
        for n in range(min(f.target.dim, 1) + 1):
            for k in range(3, k_top + 1):
                r_k = rho_dense(tower.W(k), n)
                r_prev = rho_dense(tower.W(k - 1), n)
                assert is_zero(r_prev @ r_k)
            if k_top >= 2:
                r2 = rho_dense(tower.W(2), n)
                assert is_zero(pushforward_matrix(f, n) @ r2)


RHO_MAPS = [(name, None) for name in FIXTURES if name != "random"] + [
    ("random", seed) for seed in range(10)
]


def test_rho_is_the_signed_sum_of_projections(maps):
    for name, f in maps.items():
        tower = Tower(f)
        for Z in [tower.W(k) for k in (1, 2, 3)] + [tower.D(k) for k in (2, 3)]:
            for n in range(Z.dim + 1):
                total = None
                for i in range(1, Z.k + 1):
                    P = pushforward_matrix(projection_eps(Z, i), n)
                    P = P if i % 2 else scaled(P, -1)
                    total = P if total is None else add(total, P)
                assert rho_dense(Z, n) == total, (name, Z, n)


@pytest.mark.parametrize("name, seed", RHO_MAPS)
def test_rho_is_the_lift_table_transfer(name, seed):
    """rho on the raw chains of W^k, carried by the signed bijection from the
    W grid's cells, is the lift table's transfer with the degree sign taken
    off: the cells' own route, read off no built space."""
    f = get_fixture(name, seed)
    tower = Tower(f)
    lifts = tower.lifts
    for k in (1, 2, 3):
        Z = tower.W(k)
        for q in range(f.target.dim + 1):
            cells = IntMatrix.from_sparse(lifts.transfer_columns(k, q), lifts.n_cells(k - 1, q))
            if k == 1:
                below = IntMatrix.identity(f.target.n_simplices(q))
            else:
                below = cell_bijection(Z.below, q)
            rhs = scaled(below @ cells, (-1) ** q)
            assert rho_dense(Z, q) @ cell_bijection(Z, q) == rhs, (name, seed, k, q)


def test_alt_transfer_is_the_lift_table_transfer(maps, deep_map):
    """The alternating transfer formed on raw chains, in the free bases, is
    the lift table's D columns: the signed drops of the increasing subsets
    of each simplex's lifts."""
    for name, f in [*maps.items(), ("deep_map", deep_map)]:
        tower = Tower(f)
        lifts = tower.lifts
        for k in range(2, tower.k_max() + 1):
            for q in range(f.target.dim + 1):
                expected = sparse_columns(alt_transfer(tower, k, q))
                assert lifts.transfer_columns(k, q, "D") == expected, (name, k, q)


def test_varrho_anticommutes_with_boundary(fold):
    W2 = Tower(fold).W(2)
    X = fold.source
    rho = {n: rho_dense(W2, n) for n in (0, 1)}
    # with the degree sign, (-1)^n rho anticommutes with the boundary
    lhs = boundary_matrix(X, 1) @ scaled(rho[1], -1)
    rhs = rho[0] @ boundary_matrix(W2.complex, 1)
    assert not is_zero(rhs) and is_zero(add(lhs, rhs))
    # the unsigned rho commutes with it instead
    assert boundary_matrix(X, 1) @ rho[1] == rhs


def test_eps_preserves_alternating(deep_map):
    tower = Tower(deep_map)
    D3, D2 = tower.D(3), tower.D(2)
    n = 0
    E = pushforward_matrix(projection_eps(D3, 3), n)
    A3 = alternating_kernel(D3, n)
    span2 = Subgroup(D2.n_simplices(n), alternating_kernel(D2, n))
    for j in range(A3.cols):
        assert contains(span2, mul_vec(E, A3.column(j)))


def test_alt_veps_squares_to_zero(deep_map):
    tower = Tower(deep_map)
    for n in range(min(deep_map.target.dim, 1) + 1):
        b3 = AltBasis(tower.D(3), n)
        b2 = AltBasis(tower.D(2), n)
        b1 = AltBasis(tower.D(1), n)
        assert is_zero(alt_veps_matrix(b2, b1) @ alt_veps_matrix(b3, b2))


def test_alt_boundary_squares_to_zero(disc_to_rp2):
    D2 = Tower(disc_to_rp2).D(2)
    b0, b1 = AltBasis(D2, 0), AltBasis(D2, 1)
    d1 = alt_boundary_matrix(b1, b0)
    assert alt_boundary_matrix(b0, None).rows == 0
    if D2.dim >= 2:
        d2 = alt_boundary_matrix(AltBasis(D2, 2), b1)
        assert is_zero(d1 @ d2)


def test_alternating_homology_two_routes(maps):
    for name, f in maps.items():
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            D = tower.D(k)
            for n in range(f.target.dim + 1):
                assert alternating_homology(D, n) == alternating_homology_kernel(
                    D, n
                ), (name, k, n)


def test_alternating_homology_rp2_double_points(disc_to_rp2):
    # the double-point space is a circle with the antipodal slot swap
    D2 = Tower(disc_to_rp2).D(2)
    assert alternating_homology(D2, 0) == HomologyGroup(0, (2,))
    # the free slot swap twists the circle: nothing survives in degree one
    assert alternating_homology(D2, 1) == HomologyGroup(0)


def test_alternating_homology_k1_is_plain_homology(fold):
    D1 = Tower(fold).D(1)
    for n in range(fold.source.dim + 1):
        assert alternating_homology(D1, n) == homology_of_complex(fold.source, n)


PAIR_MAPS = [(name, None) for name in FIXTURES if name != "random"] + [
    ("random", seed) for seed in range(40)
]


@pytest.mark.parametrize("name, seed", PAIR_MAPS)
def test_routines_match_the_pair_route(name, seed):
    """Each routine reads its group off one reduction of a whole complex;
    the reference reads it off the dense pair of differentials around the
    degree.  Both agree on every D^k (and W^k for the kernel route) with
    k <= k_max and every degree 0 <= n <= dim Y + 1."""
    f = get_fixture(name, seed)
    tower = Tower(f)
    for k in range(1, tower.k_max() + 1):
        D, W = tower.D(k), tower.W(k)
        for n in range(f.target.dim + 2):
            where = (name, seed, k, n)
            assert alternating_homology(D, n) == pair_alternating_homology(D, n), where
            assert dual_alternating_homology(D, n) == pair_dual_alternating_homology(D, n), where
            for Z in (D, W):
                assert alternating_homology_kernel(Z, n) == pair_alternating_homology_kernel(
                    Z, n
                ), (where, Z.kind)
                assert alternating_cochain_homology(
                    Z, n
                ) == pair_alternating_cochain_homology(Z, n), (where, Z.kind)
            if n <= D.dim:
                assert homology_of_complex(D.complex, n) == pair_homology_of_complex(
                    D.complex, n
                ), where
            else:
                with pytest.raises(DegreeOutOfRange):
                    homology_of_complex(D.complex, n)


DEGREE_ROUTINES = {
    "alternating_homology": alternating_homology,
    "alternating_homology_kernel": alternating_homology_kernel,
    "dual_alternating_homology": dual_alternating_homology,
    "alternating_cochain_homology": alternating_cochain_homology,
    "homology_of_complex": lambda Z, n: homology_of_complex(Z.complex, n),
}


@pytest.mark.parametrize("name", DEGREE_ROUTINES)
def test_degrees_outside_the_complex(name, disc_to_rp2):
    """Every routine refuses a negative degree.  Above dim D^2 the
    alternating groups are 0, while ``homology_of_complex`` raises."""
    routine, D2 = DEGREE_ROUTINES[name], Tower(disc_to_rp2).D(2)
    with pytest.raises(DegreeOutOfRange):
        routine(D2, -1)
    if name == "homology_of_complex":
        with pytest.raises(DegreeOutOfRange):
            routine(D2, D2.dim + 1)
    else:
        assert routine(D2, D2.dim + 1) == HomologyGroup(0)
