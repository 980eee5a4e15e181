import random

import pytest
from reference import has_simplex, is_zero

from icss.complexes import (
    SimplicialMap,
    boundary_matrix,
    build_complex,
    homology_of_complex,
    pushforward_matrix,
    pushforward_simplex,
    sort_sign,
    validate_map,
)
from icss.errors import DegreeOutOfRange, InvalidSimplex
from icss.intlinalg import HomologyGroup


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == 1
    assert sort_sign((1, 0, 2)) == -1
    assert sort_sign((2, 0, 1)) == 1
    assert sort_sign((0, 0)) == 0
    assert sort_sign(()) == 1


def test_build_complex_closure():
    X = build_complex([(0, 1, 2)])
    assert X.dim == 2
    assert X.n_simplices(0) == 3 and X.n_simplices(1) == 3 and X.n_simplices(2) == 1
    assert has_simplex(X, (0, 2))
    assert X.maximal_simplices() == [(0, 1, 2)]


def test_build_complex_with_labels():
    X = build_complex([("a", "b")], labels=["a", "b"])
    assert X.labels == ("a", "b")
    assert X.simplices(1) == ((0, 1),)
    with pytest.raises(InvalidSimplex):
        build_complex([(0, 0)])


def test_build_complex_keeps_isolated_labelled_vertex():
    X = build_complex([("a", "b")], labels=["a", "b", "c"])
    assert X.simplices(0) == ((0,), (1,), (2,))
    assert X.maximal_simplices() == [(2,), (0, 1)]
    assert homology_of_complex(X, 0) == HomologyGroup(2)


def test_boundary_of_edge():
    X = build_complex([(0, 1)])
    d1 = boundary_matrix(X, 1)
    assert d1.data == [[-1], [1]]


def test_boundary_of_triangle():
    X = build_complex([(0, 1, 2)])
    d2 = boundary_matrix(X, 2)
    # edges in lexicographic order (0,1), (0,2), (1,2)
    assert X.simplices(1) == ((0, 1), (0, 2), (1, 2))
    assert d2.data == [[1], [-1], [1]]


def test_boundary_squares_to_zero():
    X = build_complex([(0, 1, 2), (1, 2, 3), (0, 3)])
    for n in range(1, X.dim + 1):
        assert is_zero(boundary_matrix(X, n - 1) @ boundary_matrix(X, n))


def test_boundary_degree_bounds():
    X = build_complex([(0, 1)])
    assert boundary_matrix(X, 0).rows == 0
    assert boundary_matrix(X, 0).cols == 2
    with pytest.raises(DegreeOutOfRange):
        boundary_matrix(X, 2)
    with pytest.raises(DegreeOutOfRange):
        boundary_matrix(X, -1)


def test_pushforward_sign(fold):
    # the X edge {m, z} lists as (z, m) over the Y edge (a, b): odd reorder
    X, Y = fold.source, fold.target
    image = pushforward_matrix(fold, 1).column(X.index((0, 1)))
    assert image == [-1 if e == (0, 1) else 0 for e in Y.simplices(1)]
    sign, s = pushforward_simplex(fold.vertex_map, (0, 1))
    assert (sign, s) == (-1, (0, 1))


def test_pushforward_degenerate():
    X = build_complex([(0, 1)])
    Y = build_complex([(0,)])
    f = SimplicialMap(X, Y, {0: 0, 1: 0})  # collapses the edge
    assert not f.valid
    assert is_zero(pushforward_matrix(f, 1))


def test_validate_map_reports():
    X = build_complex([(0, 1)])
    Y = build_complex([(0, 1), (1, 2)])
    rep = validate_map({0: 0, 1: 1}, X, Y)
    assert rep.simplicial and rep.finite_to_one and not rep.surjective
    assert ("missed", (1, 2)) in rep.failures
    rep2 = validate_map({0: 0, 1: 0}, X, Y)
    assert not rep2.finite_to_one
    assert ("collapsed", (0, 1)) in rep2.failures


def test_validate_map_failure_order():
    """Failures follow X's simplex order (collapse before non-simplex within a
    simplex), then the missed simplices of Y in Y's order."""
    X = build_complex([(0, 1), (2, 3), (4, 5, 6)])
    Y = build_complex([(0,), (1,), (2,), (3, 4)])
    vertex_map = {0: 0, 1: 0, 2: 1, 3: 2, 4: 1, 5: 1, 6: 2}
    rep = validate_map(vertex_map, X, Y)
    assert (rep.simplicial, rep.finite_to_one, rep.surjective) == (False, False, False)
    assert rep.failures == (
        ("collapsed", (0, 1)),
        ("not-a-simplex", (2, 3)),
        ("collapsed", (4, 5)),
        ("not-a-simplex", (4, 6)),
        ("not-a-simplex", (5, 6)),
        ("collapsed", (4, 5, 6)),
        ("not-a-simplex", (4, 5, 6)),
        ("missed", (3,)),
        ("missed", (4,)),
        ("missed", (3, 4)),
    )


def test_non_simplicial_map_rejected():
    X = build_complex([(0, 1)])
    Y = build_complex([(0,), (1,)])  # two isolated points, no edge
    with pytest.raises(InvalidSimplex):
        SimplicialMap(X, Y, {0: 0, 1: 1})


def test_circle_homology(identity_map):
    X = identity_map.source
    assert homology_of_complex(X, 0) == HomologyGroup(1)
    assert homology_of_complex(X, 1) == HomologyGroup(1)


def test_projective_plane_homology(disc_to_rp2):
    Y = disc_to_rp2.target
    assert homology_of_complex(Y, 0) == HomologyGroup(1)
    assert homology_of_complex(Y, 1) == HomologyGroup(0, (2,))
    assert homology_of_complex(Y, 2) == HomologyGroup(0)


def test_fixture_maps_valid(maps):
    for name, f in maps.items():
        assert f.valid, name


@pytest.mark.parametrize("seed", range(20))
def test_maximal_simplices_match_definition(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    tops = [
        tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
        for _ in range(rng.randint(1, 8))
    ]
    X = build_complex(tops)
    every = list(X.all_simplices())
    expected = sorted(
        (s for s in every if not any(set(s) < set(t) for t in every)),
        key=lambda s: (len(s), s),
    )
    assert X.maximal_simplices() == expected
