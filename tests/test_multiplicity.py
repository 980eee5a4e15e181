import signal

import pytest
from reference import adjacent_swap, bar_sigma, cell_bijection, slot_action, transpose

from icss.complexes import SimplicialMap, build_complex, pushforward_matrix
from icss.errors import InvalidIndex, InvalidMultiplicity
from icss.fixtures import random_fixture
from icss.intlinalg import IntMatrix
from icss.multiplicity import LiftTable, Tower, grid_cells, projection_eps


def test_ordered_lifts_fold(fold):
    # the Y edge (a, b) lifts to (z, m) and (z, p): z sits over a
    lifts = Tower(fold).lifts
    assert lifts[(0, 1)] == ((1, 0), (1, 2))
    assert lifts[(0,)] == ((1,),)
    assert lifts[(1,)] == ((0,), (2,))
    assert Tower(fold).k_max() == max(lifts.counts.values()) == 2


def brute_force_lifts(f, delta):
    """Scan every X-simplex of the dimension for the lifts of delta."""
    lifts = []
    for s in f.source.simplices(len(delta) - 1):
        images = [f.vertex_map[v] for v in s]
        if sorted(images) == list(delta) and len(set(images)) == len(s):
            lifts.append(tuple(s[images.index(w)] for w in delta))
    return sorted(lifts)


def test_ordered_lifts_match_brute_force(maps):
    # X-simplex order differs from lift order here: (0, 3) lifts as (3, 0)
    crossed = SimplicialMap(
        build_complex([(0, 3), (1, 2)]), build_complex([(0, 1)]), {0: 1, 1: 0, 2: 1, 3: 0}
    )
    assert LiftTable(crossed)[(0, 1)] == ((1, 2), (3, 0))
    for f in [crossed, *maps.values(), *(random_fixture(seed) for seed in range(40))]:
        table = LiftTable(f)
        for delta in f.target.all_simplices():
            assert list(table[delta]) == brute_force_lifts(f, delta)
            assert table.counts[delta] == len(table[delta])
        # the lifts are tuples of tuples, so no caller can change them
        delta = f.target.simplices(0)[0]
        with pytest.raises(AttributeError):
            table[delta].append(None)
        with pytest.raises(TypeError):
            table[delta][0] = None
        assert list(table[delta]) == brute_force_lifts(f, delta)


def test_w_bridge_is_the_cell_bijection(maps):
    """The bridge carries each W cell to its product simplex with the
    listing parity, and each record holds that simplex and sign: for
    k = 1..3 the bridge is ``reference.cell_bijection``, which finds the
    lifts by a scan of its own."""
    for f in [*maps.values(), *(random_fixture(seed) for seed in range(40))]:
        tower = Tower(f)
        for k in (1, 2, 3):
            Z = tower.W(k)
            for q in range(f.target.dim + 1):
                records, columns = grid_cells(Z, q)
                assert IntMatrix.from_sparse(columns, Z.n_simplices(q)) == cell_bijection(Z, q)
                assert columns == [{Z.index(r.canonical): r.sign} for r in records]


def test_fold_W2(fold):
    W2 = Tower(fold).W(2)
    assert W2.n_simplices(0) == 5
    assert W2.n_simplices(1) == 4
    assert set(W2.vertex_tuples) == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}
    # every edge contains the diagonal vertex over a
    zz = W2.tuple_index[(1, 1)]
    for e in W2.simplices(1):
        assert zz in e


def test_fold_D2(fold):
    D2 = Tower(fold).D(2)
    assert set(D2.vertex_tuples) == {(0, 2), (1, 1), (2, 0)}
    assert D2.n_simplices(1) == 2
    zz = D2.tuple_index[(1, 1)]
    assert sorted(
        tuple(sorted((zz, D2.tuple_index[t]))) for t in [(0, 2), (2, 0)]
    ) == sorted(D2.simplices(1))


def test_identity_D2_empty(identity_map):
    D2 = Tower(identity_map).D(2)
    assert D2.dim < 0
    assert Tower(identity_map).k_max() == 1


def test_double_cover_spaces(double_cover):
    tower = Tower(double_cover)
    W2, D2 = tower.W(2), tower.D(2)
    assert W2.n_simplices(0) == 4 and W2.dim == 0
    assert D2.n_simplices(0) == 2 and D2.dim == 0
    assert tower.D(3).dim < 0
    assert tower.k_max() == 2


def test_k_max_values(maps):
    expected = {
        "identity": 1,
        "fold": 2,
        "double_cover": 2,
        "figure_eight": 2,
        "disc_to_rp2": 2,
    }
    for name, f in maps.items():
        assert Tower(f).k_max() == expected[name], name


def test_invalid_multiplicity(fold):
    with pytest.raises(InvalidMultiplicity):
        Tower(fold).W(0)


def test_projections(fold):
    W2 = Tower(fold).W(2)
    e1 = projection_eps(W2, 1)
    e2 = projection_eps(W2, 2)
    for v, t in enumerate(W2.vertex_tuples):
        assert e1.vertex_map[v] == t[1]  # forgetting slot 1 keeps slot 2
        assert e2.vertex_map[v] == t[0]
    with pytest.raises(InvalidIndex):
        projection_eps(W2, 0)
    with pytest.raises(InvalidIndex):
        projection_eps(W2, 3)
    assert projection_eps(Tower(fold).W(1), 1) is fold


def test_fk_map(fold):
    """The induced map W^2 -> Y is f on either slot: the slots agree."""
    W2 = Tower(fold).W(2)
    for t in W2.vertex_tuples:
        assert fold.vertex_map[t[0]] == fold.vertex_map[t[1]]
    for n in range(W2.dim + 1):
        F = pushforward_matrix(fold, n)
        e1, e2 = (pushforward_matrix(projection_eps(W2, i), n) for i in (1, 2))
        assert F @ e1 == F @ e2


def test_rho_on_double_cover_vertex(double_cover):
    from icss.alternating import rho_columns

    W2 = Tower(double_cover).W(2)
    R = IntMatrix.from_sparse(rho_columns(W2, 0), double_cover.source.n_simplices(0))
    j = W2.index((W2.tuple_index[(0, 1)],))
    col = R.column(j)
    assert col == [-1, 1]  # (a, b) maps to b - a
    j_diag = W2.index((W2.tuple_index[(0, 0)],))
    assert R.column(j_diag) == [0, 0]


def test_distinct_lift_spaces_past_the_lift_count_are_empty(fold):
    """D^k for k above the largest lift count is empty and is found so
    without walking the N^k lift tuples (the alarm fails a walk that hangs)."""

    def too_slow(signum, frame):
        raise TimeoutError("building D^40 of the fold did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        D = Tower(fold).D(40)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert D.dim < 0 and D.k == 40 and not D.products


def test_sk_action_is_signed_involution(fold):
    W2 = Tower(fold).W(2)
    swap = adjacent_swap(2, 0)
    for n in range(W2.dim + 1):
        P = slot_action(W2, swap, n)
        assert P @ P == IntMatrix.identity(P.rows)
        assert transpose(P) == P
    image = slot_action(W2, swap, 0).column(W2.index((W2.tuple_index[(0, 2)],)))
    target = W2.index((W2.tuple_index[(2, 0)],))
    assert image == [1 if i == target else 0 for i in range(len(image))]


def test_bar_sigma_equivariance(deep_map):
    """Permuting the surviving slots commutes with forgetting one slot."""
    tower = Tower(deep_map)
    W3, W2 = tower.W(3), tower.W(2)
    for j in (1, 2, 3):
        P = pushforward_matrix(projection_eps(W3, j), 0)
        for i in range(1):
            sigma = adjacent_swap(2, 0)
            lhs = slot_action(W2, sigma, 0) @ P
            rhs = P @ slot_action(W3, bar_sigma(sigma, j, 3), 0)
            assert lhs == rhs


def test_dropped_tower_is_freed_by_reference_counting(disc_to_rp2):
    import gc
    import weakref

    from icss.alternating import rho_columns

    gc.disable()
    try:
        tower = Tower(disc_to_rp2)
        tower.W(2)
        tower.D(2)
        IntMatrix.from_sparse(rho_columns(tower.W(3), 1), tower.W(2).n_simplices(1))
        ref = weakref.ref(tower.W(2).complex)
        del tower
        assert ref() is None  # no reference cycle keeps the spaces alive
    finally:
        gc.enable()


def test_projections_are_kept_and_drop_one_slot(deep_map):
    tower = Tower(deep_map)
    D3, D2 = tower.D(3), tower.D(2)
    for i in (1, 2, 3):
        eps = projection_eps(D3, i)
        assert projection_eps(D3, i) is eps
        assert eps.source is D3.complex and eps.target is D2.complex
        for v, t in enumerate(D3.vertex_tuples):
            dropped = tuple(x for slot, x in enumerate(t) if slot != i - 1)
            assert D2.vertex_tuples[eps.vertex_map[v]] == dropped
