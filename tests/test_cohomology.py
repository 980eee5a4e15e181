from reference import (
    alt_matrix,
    alternating_cochain_homology,
    cochain_homology,
    dual_alternating_homology,
    dual_columns,
    from_rows,
    transpose,
)

from icss.alternating import AltBasis, alternating_kernel
from icss.complexes import boundary_columns
from icss.fixtures import random_fixture
from icss.intlinalg import HomologyGroup, IntMatrix, sparse_columns
from icss.multiplicity import Tower


def test_dualize_transposes():
    """Dualizing a complex transposes each boundary into the coboundary one
    degree down, and the last degree's coboundary is zero."""
    d1 = from_rows([[-1, 0], [1, -1], [0, 1]], cols=2)
    cochains = dual_columns([[{}, {}, {}], sparse_columns(d1)])
    assert cochains == [sparse_columns(transpose(d1)), [{}, {}]]


def cohomology_of(X) -> dict:
    """{n: H^n(X)} for every degree, off the dual of X's chain complex."""
    degrees = range(X.dim + 1)
    return cochain_homology(dual_columns([boundary_columns(X, n) for n in degrees]), degrees)


def test_circle_cohomology(identity_map):
    assert cohomology_of(identity_map.source) == {0: HomologyGroup(1), 1: HomologyGroup(1)}


def test_projective_plane_cohomology(disc_to_rp2):
    # universal coefficients moves the Z/2 of H_1 up to H^2
    assert cohomology_of(disc_to_rp2.target) == {
        0: HomologyGroup(1),
        1: HomologyGroup(0),
        2: HomologyGroup(0, (2,)),
    }


def test_alt_star_example(double_cover):
    """Precomposition with the alternation operator, which takes a
    functional on the alternating basis to an alternating functional on raw
    chains, is the matrix ``to_raw_matrix``."""
    basis = AltBasis(Tower(double_cover).D(2), 0)
    T = basis.to_raw_matrix
    # the functional dual to (a, b) - (b, a) takes +1 on (a, b), -1 on (b, a)
    assert T.column(0) == [1, -1]


def test_alt_star_matches_alternation(maps):
    """to_raw_matrix, read off the product records, is the alternation
    operator on unit chains, in alternating coordinates, transposed."""
    for f in list(maps.values()) + [random_fixture(seed) for seed in range(40)]:
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            D = tower.D(k)
            for n in range(f.target.dim + 1):
                b = AltBasis(D, n)
                assert transpose(b.to_raw_matrix) == b.coordinates(alt_matrix(D, n))


def test_theta_and_alt_star_are_mutually_inverse(maps):
    """Reading raw chains in alternating coordinates (``coordinates``) and
    alternating them back (``to_raw_matrix``) are mutually inverse on the
    alternating chains."""
    for name, f in maps.items():
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            D = tower.D(k)
            for n in range(f.target.dim + 1):
                basis = AltBasis(D, n)
                if basis.n_gens == 0:
                    continue
                T = basis.to_raw_matrix
                assert basis.coordinates(T) == IntMatrix.identity(basis.n_gens), (name, k, n)
                A = alternating_kernel(D, n)
                assert T @ basis.coordinates(A) == A, (name, k, n)


def test_two_cochain_models_agree(maps):
    for name, f in maps.items():
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            D = tower.D(k)
            for n in range(f.target.dim + 1):
                assert dual_alternating_homology(D, n) == alternating_cochain_homology(
                    D, n
                ), (name, k, n)


def test_rp2_alternating_cohomology(disc_to_rp2):
    D2 = Tower(disc_to_rp2).D(2)
    assert alternating_cochain_homology(D2, 0) == HomologyGroup(0)
    assert alternating_cochain_homology(D2, 1) == HomologyGroup(0, (2,))
