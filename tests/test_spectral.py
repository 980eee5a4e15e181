import re

import pytest
from reference import (
    GenericSequence,
    alt_transfer,
    boundary_from_faces,
    cell_bijection,
    d_h,
    d_v,
    from_rows,
    is_zero,
    page_one_homology,
    transfer_from_projections,
    w_grid,
)

from icss import complexes
from icss.alternating import alt_basis, alternating_homology
from icss.complexes import homology_of_complex
from icss.errors import NotAComplex, TruncationInsufficient
from icss.fixtures import FIXTURES, get_fixture
from icss.intlinalg import (
    HomologyGroup,
    IntMatrix,
    Subgroup,
    reduce_complex,
    sparse_columns,
    subgroup_quotient,
)
from icss.multiplicity import Tower
from icss.spectral import (
    DoubleComplex,
    SpectralSequence,
    build_double,
    check_collapse_first,
    first_ss,
    gvzss,
    gvzss_report,
    icss,
    icss_report,
    page_one_oracle,
)


def ranks_by_column(dc):
    return {
        p: [dc.rank(p, q) for q in range(dc.q_max + 1)] for p in range(dc.p_max + 1)
    }


def test_build_double_fold_W(fold):
    """The W grid is cut at column dim Y + 2."""
    dc = build_double(Tower(fold), "W")
    assert (dc.p_max, dc.q_max) == (3, 1)
    assert ranks_by_column(dc) == {0: [3, 2], 1: [5, 4], 2: [9, 8], 3: [17, 16]}


def test_build_double_double_cover_alt(double_cover):
    dc = build_double(Tower(double_cover), "Alt")
    assert ranks_by_column(dc) == {0: [2], 1: [1]}


def test_build_double_identity(identity_map):
    dc = build_double(Tower(identity_map), "Alt")
    assert dc.p_max == 0
    assert ranks_by_column(dc) == {0: [3, 3]}


def test_double_complex_identities(maps):
    for name, f in maps.items():
        for kind in ("Alt", "W"):
            dc = build_double(Tower(f), kind)
            dc.verify_identities()  # raises on failure


def bump(block, i, j):
    """A copy of the sparse columns ``block`` with 1 added at row i of
    column j, a zero result dropped."""
    cols = [dict(col) for col in block]
    cols[j][i] = cols[j].get(i, 0) + 1
    if not cols[j][i]:
        del cols[j][i]
    return cols


def test_corrupted_cell_is_rejected(fold):
    dc = build_double(Tower(fold), "Alt")
    v_cols = dict(dc._v_cols)
    v_cols[(1, 1)] = bump(v_cols[(1, 1)], 0, 0)
    with pytest.raises(NotAComplex):
        DoubleComplex("Alt", dc.p_max, dc.q_max, dc._ranks, dc._h_cols, v_cols)


@pytest.mark.parametrize(
    "family, cell, left, message",
    [
        ("d_h", (0, 2), ("d_h", (0, 1)), "horizontal square nonzero at (0, 2)"),
        ("d_v", (2, 0), ("d_v", (1, 0)), "vertical square nonzero at (2, 0)"),
        ("d_v", (1, 1), ("d_h", (0, 1)), "differentials do not anticommute at (1, 1)"),
    ],
)
def test_each_identity_rejects_its_corrupted_block(disc_to_rp2, family, cell, left, message):
    """One entry changed in one block of the GVZSS W grid of disc_to_rp2
    (p_max = 4, q_max = 2, so every identity is checked) breaks the identity
    that block meets first, and the error names it."""
    dc = gvzss(disc_to_rp2).dc
    assert (dc.p_max, dc.q_max) == (4, 2)
    blocks = {"d_h": dict(dc._h_cols), "d_v": dict(dc._v_cols)}
    # the changed row meets a nonzero column of the block composed after it
    i = next(i for i, col in enumerate(blocks[left[0]][left[1]]) if col)
    blocks[family][cell] = bump(blocks[family][cell], i, 0)
    with pytest.raises(NotAComplex, match=re.escape(message)):
        DoubleComplex("W", dc.p_max, dc.q_max, dc._ranks, blocks["d_h"], blocks["d_v"])
    DoubleComplex("W", dc.p_max, dc.q_max, dc._ranks, dc._h_cols, dc._v_cols)  # the honest grid


def test_corrupted_cell_breaks_collapse(fold):
    dc = build_double(Tower(fold), "Alt")
    # severing every vertical transfer still satisfies the complex identities
    # but destroys the collapse, and the checker must notice
    v_cols = {k: [{} for _ in cols] for k, cols in dc._v_cols.items()}
    bad = DoubleComplex("Alt", dc.p_max, dc.q_max, dc._ranks, dc._h_cols, v_cols, tower=dc.tower)
    report = check_collapse_first(SpectralSequence(bad, "rows"))
    assert not report.ok
    assert not check_collapse_first(first_ss(Tower(fold), "Alt")).details  # the honest one passes


def test_collapse_check_needs_the_row_filtration(fold):
    with pytest.raises(ValueError):
        check_collapse_first(icss(fold))


def test_first_sequence_collapses(maps):
    for name, f in maps.items():
        for kind in ("Alt", "W"):
            report = check_collapse_first(first_ss(Tower(f), kind))
            assert report.ok, (name, kind, report.details)


def test_double_cover_icss_pages(double_cover):
    ss = icss(double_cover)
    assert ss.page_group(1, 0, 0) == HomologyGroup(2)
    assert ss.page_group(1, 1, 0) == HomologyGroup(1)
    assert ss.page_group(2, 0, 0) == HomologyGroup(1)
    assert ss.page_group(2, 1, 0) == HomologyGroup(0)


def test_page_one_matches_direct_homology(maps):
    """Page one is the (alternating) homology of the multiple-point spaces,
    computed here from the spaces themselves rather than from the grid."""
    for name, f in maps.items():
        for ss in (icss(f), gvzss(f)):
            dc = ss.dc
            for p in range(dc.p_max + 1):
                for q in range(dc.q_max + 1):
                    if dc.kind == "Alt":
                        direct = alternating_homology(dc.tower.D(p + 1), q)
                    else:
                        W = dc.tower.W(p + 1)
                        direct = (
                            homology_of_complex(W.complex, q)
                            if q <= W.dim
                            else HomologyGroup(0)
                        )
                    where = (name, dc.kind, p, q)
                    assert ss.page_group(1, p, q) == direct, where
                    assert page_one_oracle(ss, p, q) == direct, where


def test_page_one_cross_check_catches_a_broken_reduction(double_cover, monkeypatch):
    import icss.spectral as spectral

    real = spectral.reduce_complex

    def one_level(columns, levels, gap):
        # cancelling across filtration levels keeps the homology but not the pages
        return real(columns, [[0] * len(level) for level in levels], gap)

    monkeypatch.setattr(spectral, "reduce_complex", one_level)
    assert not icss_report(double_cover).page_one_cross_checked


def test_page_two_is_page_one_homology(fold, figure_eight):
    for f in (fold, figure_eight):
        for ss in (icss(f), gvzss(f)):
            dc = ss.dc
            for p in range(dc.p_max):
                for q in range(dc.q_max + 1):
                    s, t = ss._to_st(p, q)
                    assert ss.page_group(2, s, t) == page_one_homology(ss, p, q), (p, q)


def test_stabilization(figure_eight):
    ss = icss(figure_eight)
    for p in range(ss.dc.p_max + 1):
        for q in range(ss.dc.q_max + 1):
            limit = ss.infinity_group(p, q)
            for r in range(max(p, q + 1) + 1, max(p, q + 1) + 4):
                assert ss.page_group(r, p, q) == limit, (p, q, r)


def test_gvzss_truncation_stability(fold, figure_eight):
    """Cutting the W grid one column later changes no total homology."""
    for f in (fold, figure_eight):
        ss = gvzss(f)
        later = SpectralSequence(w_grid(ss.dc.tower, ss.dc.p_max + 1), "columns")
        for n in range(f.target.dim + 1):
            total = ss.e_infinity(n).total_homology
            assert total == later.e_infinity(n).total_homology
            assert total == homology_of_complex(f.target, n)


def test_truncation_insufficient(fold):
    with pytest.raises(TruncationInsufficient):
        gvzss(fold).e_infinity(fold.target.dim + 2)


def test_reports_converge(fold, disc_to_rp2):
    for f in (fold, disc_to_rp2):
        for report in (icss_report(f), gvzss_report(f)):
            assert report.page_one_cross_checked
            assert report.converged
            for d in report.degree_reports:
                assert d.total_homology == d.target_homology


def test_row_filtration_page_one_bottom_row(fold):
    """Under the row filtration the bottom-row page two is H_*(Y)."""
    ss = first_ss(Tower(fold), "Alt")
    for q in range(fold.target.dim + 1):
        assert ss.page_group(2, q, 0) == homology_of_complex(fold.target, q)


def four_sequences(f):
    """icss, gvzss and both first_ss kinds of f, on one tower: icss and
    gvzss filter by columns the very grids that first_ss filters by rows."""
    tower = Tower(f)
    for kind in ("Alt", "W"):
        rows = first_ss(tower, kind)
        yield kind, SpectralSequence(rows.dc, "columns")
        yield kind, rows


# the random map of seed 13 has four lifts, and its W grid alone takes seconds
DIFFERENTIAL_MAPS = [(name, None) for name in FIXTURES if name != "random"] + [
    ("random", seed) for seed in range(25) if seed != 13
]


def page_off_rung(ss, r, s, n, g):
    """Z^r_s / (Z^{r-1}_{s-1} + D Z^{r-1}_{s+r-1}) in degree n of rung g."""
    Z = ss.cycle_subgroup(n, s, r, g)
    below = ss.cycle_subgroup(n, s - 1, r - 1, g)
    up = ss.cycle_subgroup(n + 1, s + r - 1, r - 1, g)
    B = Subgroup(Z.ambient_rank, below.basis.hstack(ss.D(n + 1, g) @ up.basis))
    return subgroup_quotient(Z, B)


@pytest.mark.parametrize("name, seed", DIFFERENTIAL_MAPS)
def test_reduced_sequence_matches_generic_formula(name, seed):
    """Pages 1, 2, 3 and the limit, the graded limit pieces and the total
    homology of the reduced total complex equal the generic formula on the
    unreduced one, in every degree up to the dimension of Y; so does every
    page r >= g + 1 read off rung g, for every rung g of the ladder."""
    totals = {}  # both filtrations of a grid have one total complex
    for kind, ss in four_sequences(get_fixture(name, seed)):
        ref = GenericSequence(ss)
        label = (name, seed, kind, ss.filtration)
        for n in range(ss.dc.q_max + 1):
            for s in range(n + 1):
                for r in (1, 2, 3):
                    assert ss.page_group(r, s, n - s) == ref.page_group(r, s, n - s), (
                        label, r, s
                    )
                for g in range(ss.top_gap + 1):
                    for r in range(g + 1, ss.top_gap + 2):
                        assert page_off_rung(ss, r, s, n, g) == ref.page_group(
                            r, s, n - s
                        ), (label, g, r, s)
                assert ss.infinity_group(s, n - s) == ref.infinity_group(s, n - s), (
                    label, s
                )
            report = ss.e_infinity(n)
            assert [g for _, g in report.graded] == ref.graded(n), (label, n)
            if (kind, n) not in totals:
                totals[kind, n] = ref.total_homology(n)
            assert report.total_homology == totals[kind, n], (label, n)


W_BLOCK_MAPS = [(name, None) for name in FIXTURES if name != "random"] + [
    ("random", seed) for seed in range(25)
]


@pytest.mark.parametrize("name, seed", W_BLOCK_MAPS)
def test_w_blocks_match_an_independent_construction(name, seed):
    """Every block of the gvzss and first_ss W grids, carried by the signed
    bijection from the grid's cells onto the chains of W^k, is the boundary
    read face by face, or the degree-twisted transfer summed from the
    validated slot projections."""
    f = get_fixture(name, seed)
    for dc in (gvzss(f).dc, first_ss(Tower(f), "W").dc):
        for p in range(dc.p_max + 1):
            Z = dc.tower.W(p + 1)
            P = {q: cell_bijection(Z, q) for q in range(dc.q_max + 1)}
            for q in range(dc.q_max + 1):
                assert dc.rank(p, q) == P[q].cols == P[q].rows, (p, q)
                entries = [x for row in P[q].data for x in row if x]
                assert len(entries) == P[q].cols and set(entries) <= {1, -1}, (p, q)
                assert all(any(row) for row in P[q].data), (p, q)  # a signed permutation
                if q >= 1:
                    lhs = boundary_from_faces(Z.complex, q) @ P[q]
                    assert lhs == P[q - 1] @ d_h(dc, p, q), (p, q)
                if p >= 1:
                    lhs = transfer_from_projections(Z, q) @ P[q]
                    assert lhs == cell_bijection(Z.below, q) @ d_v(dc, p, q), (p, q)
                blocks = dc.h_columns(p, q) + dc.v_columns(p, q)
                assert all(all(col.values()) for col in blocks), (p, q)  # no zero entries


ALT_BLOCK_MAPS = [
    *((name, None) for name in FIXTURES if name != "random"),
    ("deep_map", None),
    *(("random", seed) for seed in range(20)),
]


@pytest.mark.parametrize("name, seed", ALT_BLOCK_MAPS)
def test_alt_blocks_match_the_alternating_basis_route(name, seed, request):
    """The Alt grid's ranks and vertical blocks, read off the lift table,
    are the size of each alternating basis and the last-slot projection
    formed on raw chains and read back in alternating coordinates (the
    oracle ``alt_transfer``)."""
    f = request.getfixturevalue(name) if name == "deep_map" else get_fixture(name, seed)
    tower = Tower(f)
    dc = build_double(tower, "Alt")
    assert dc.p_max == tower.k_max() - 1
    for p in range(dc.p_max + 1):
        for q in range(dc.q_max + 1):
            assert dc.rank(p, q) == alt_basis(tower, tower.D(p + 1), q).n_gens, (p, q)
            if p >= 1:
                expected = sparse_columns(alt_transfer(tower, p + 1, q))
                assert dc.v_columns(p, q) == expected, (p, q)


def test_w_grid_builds_no_fibre_product(disc_to_rp2, monkeypatch):
    """The GVZSS report and the row-filtered W sequence read the W grid off
    the lift table: neither builds any W^k, nor even X as W^1."""
    import icss.multiplicity as multiplicity

    built = []
    real = multiplicity._build

    def counting(*args):
        built.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(multiplicity, "_build", counting)
    assert gvzss_report(disc_to_rp2).converged
    assert check_collapse_first(first_ss(Tower(disc_to_rp2), "W")).ok
    assert built == []


def test_page_one_oracle_composes_no_square(disc_to_rp2, monkeypatch):
    """The grid's d_h squares were composed when it was built, so the
    page-one oracle reduces each column without composing them again."""
    import icss.intlinalg as intlinalg

    ss = gvzss(disc_to_rp2)
    calls = []
    real = intlinalg.compose

    def counting(a_cols, b_cols):
        calls.append(len(b_cols))
        return real(a_cols, b_cols)

    monkeypatch.setattr(intlinalg, "compose", counting)
    for p in range(ss.dc.p_max + 1):
        page_one_oracle(ss, p, 0)
    assert calls == []


def test_page_one_forms_no_product(disc_to_rp2, monkeypatch):
    """Page 1 is the homology of the level pieces of rung 0, each read off
    one reduction: ``spectral`` multiplies no matrices for it (the products
    counted are those made by spectral itself, not those inside intlinalg's
    homology)."""
    import sys

    products = []
    real = IntMatrix.__matmul__

    def counting(a, b):
        if sys._getframe(1).f_globals["__name__"] == "icss.spectral":
            products.append((a.rows, a.cols, b.cols))
        return real(a, b)

    for make in (gvzss, icss):
        ss = make(disc_to_rp2)
        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        for n in range(ss.n_top + 1):
            for s in range(n + 1):
                ss.page_group(1, s, n - s)
        monkeypatch.undo()
    assert products == []


def test_page_one_reduces_each_level_piece_once(disc_to_rp2, monkeypatch):
    """Both reports and both collapse checks read page 1 off the level
    pieces of rung 0: no cycle subgroup of rung 0 is stored, and each
    sequence reduces each level's piece once."""
    import sys
    from collections import Counter

    import icss.spectral as spectral

    pieces = Counter()
    real = spectral.homology_by_reduction

    def counting(columns, degrees):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_level_homology":
            pieces[(id(caller.f_locals["self"]), caller.f_locals["s"])] += 1
        return real(columns, degrees)

    monkeypatch.setattr(spectral, "homology_by_reduction", counting)
    tower = Tower(disc_to_rp2)
    reported = [icss(disc_to_rp2), gvzss(disc_to_rp2)]
    for ss, name in zip(reported, ("ICSS", "GVZSS")):
        assert spectral.make_report(ss, name).converged
    collapsing = [first_ss(tower, "Alt"), first_ss(tower, "W")]
    for ss in collapsing:
        assert check_collapse_first(ss).ok
    for ss in reported + collapsing:
        assert ss.top_gap > 0
        assert not [key for key in ss._cycles if key[3] == 0], ss.dc.kind
        assert {s for i, s in pieces if i == id(ss)} == set(ss._pieces)
    assert pieces and max(pieces.values()) == 1, pieces


def test_w_grid_validates_no_map(disc_to_rp2, monkeypatch):
    """The W grid's transfers read the slot-drop vertex maps, so building
    the GVZSS of disc_to_rp2 (W^1 .. W^5) validates no slot projection."""
    calls = []
    real = complexes.validate_map

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(complexes, "validate_map", counting)
    gvzss(disc_to_rp2)
    assert len(calls) == 0


def test_cycle_subgroups_keep_their_kernel_basis(maps):
    """A cycle subgroup holds its kernel basis as it is: it equals the
    subgroup its columns generate, and each page quotient read off it is
    the one read off that canonical subgroup."""
    kept = 0
    for name, f in maps.items():
        for kind, ss in four_sequences(f):
            for n in range(ss.dc.q_max + 1):
                for s in range(n + 1):
                    for r in (1, 2, 3):
                        Z = ss.cycle_subgroup(n, s, r)
                        canonical = Subgroup(Z.ambient_rank, Z.basis)
                        assert Z == canonical and hash(Z) == hash(canonical)
                        kept += Z.basis != canonical.basis
                        below = ss.cycle_subgroup(n, s - 1, r - 1)
                        up = ss.cycle_subgroup(n + 1, s + r - 1, r - 1)
                        B = Subgroup(Z.ambient_rank, below.basis.hstack(ss.D(n + 1) @ up.basis))
                        label = (name, kind, ss.filtration, r, s, n)
                        assert subgroup_quotient(Z, B) == subgroup_quotient(canonical, B), label
                        assert subgroup_quotient(Z, B) == ss.page_group(r, s, n - s), label
    assert kept  # some kernel basis is not in canonical form, and was kept


def test_stable_page_is_reached(maps):
    """The limit page, read at the largest filtration level + 1, is the page
    at r = n + 3 that the limit used to be read from."""
    for name, f in maps.items():
        for kind, ss in four_sequences(f):
            for n in range(ss.n_top + 1):
                for s in range(n + 1):
                    limit = ss.infinity_group(s, n - s)
                    assert limit == ss.page_group(n + 3, s, n - s), (name, kind, s, n)


def total_complex(ref):
    """Sparse columns and filtration levels of the unreduced total complex."""
    columns = [sparse_columns(ref.D(n)) for n in range(ref.n_top + 1)]
    levels = []
    for n in range(ref.n_top + 1):
        level = []
        for p, q in ref.offsets[n]:
            level += [p if ref.columns else q] * ref.dc.rank(p, q)
        levels.append(level)
    return columns, levels


def euler_by_level(levels) -> dict:
    out: dict = {}
    for n, level in enumerate(levels):
        for s in level:
            out[s] = out.get(s, 0) + (-1) ** n
    return {s: e for s, e in out.items() if e}


def assert_filtered_complex(D, kept, label):
    """No entry of D raises the level, and D squares to zero."""
    for n in range(1, len(D)):
        for i, row in enumerate(D[n].data):
            for j, a in enumerate(row):
                assert not a or kept[n - 1][i] <= kept[n][j], (label, n)
        if n + 1 < len(D):
            assert is_zero(D[n] @ D[n + 1]), (label, n)


def test_reduction_is_filtered(maps):
    """Cancelled pairs share a level on rung 0 (so each level keeps its
    Euler characteristic); on every rung of the ladder the Euler
    characteristic is kept, no surviving entry raises the level, and the
    reduced total complex is a complex."""
    for name, f in maps.items():
        for kind, ss in four_sequences(f):
            columns, levels = total_complex(GenericSequence(ss))
            D, kept = reduce_complex(columns, levels)
            assert euler_by_level(kept) == euler_by_level(levels), (name, kind)
            assert_filtered_complex(D, kept, (name, kind))
            euler = sum(euler_by_level(levels).values())
            for g in range(ss.top_gap + 1):
                D, kept = ss.rung(g)
                assert sum(euler_by_level(kept).values()) == euler, (name, kind, g)
                assert_filtered_complex(D, kept, (name, kind, g))


def test_reduction_pairs_only_equal_levels():
    """An edge cancels against its endpoint of the same level and against
    no endpoint of a lower one."""
    D, kept = reduce_complex([[{}, {}], [{0: -1, 1: 1}]], [[0, 1], [1]])
    assert kept == [[0], []] and D[1] == IntMatrix(1, 0)
    D, kept = reduce_complex([[{}, {}], [{0: -1, 1: 1}]], [[0, 0], [1]])
    assert kept == [[0, 0], [1]] and D[1] == from_rows([[-1], [1]])


# Two column-filtered grids with a unit pair (sigma, tau), sigma at level 1
# and tau at level 0, that no rung may cancel.  In the first, d(sigma) =
# 2 rho + tau with rho at level 1: cancelling would leave rho alone and read
# page two as Z at level 1 instead of Z/2 at level 1 plus Z at level 0
# (condition 3).  In the second, d(sigma) = tau and d(x) = 2 tau with x at
# level 0: cancelling would leave x as a level-0 cycle and read page two as
# Z at level 0 instead of level 1 (condition 4).
UNFILTERED_PAIRS = [
    (
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        {(1, 1): [{0: 2}]},  # sigma -> 2 rho
        {(1, 1): [{0: 1}]},  # sigma -> tau
        [0, 2, 1],
        {(1, 0): HomologyGroup(0, (2,)), (0, 1): HomologyGroup(1)},
    ),
    (
        {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        {(0, 1): [{0: 2}]},  # x -> 2 tau
        {(1, 0): [{0: 1}]},  # sigma -> tau
        [1, 2, 0],
        {(1, 0): HomologyGroup(1), (0, 1): HomologyGroup(0)},
    ),
]


@pytest.mark.parametrize("ranks, h_cols, v_cols, sizes, page_two", UNFILTERED_PAIRS)
def test_rung_refuses_a_pair_whose_reduction_is_not_filtered(
    ranks, h_cols, v_cols, sizes, page_two
):
    """A unit pair whose projection or inclusion would raise the level stays
    on every rung, and page two and the total homology come out right."""
    ss = SpectralSequence(DoubleComplex("W", 1, 1, ranks, h_cols, v_cols), "columns")
    for g in range(ss.top_gap + 1):
        assert [len(level) for level in ss.rung(g)[1]] == sizes, g
    for (s, t), group in page_two.items():
        assert ss.page_group(2, s, t) == group, (s, t)
    assert ss.total_homology(1) == HomologyGroup(1)


def test_four_lift_gvzss_is_narrow_and_converges(monkeypatch):
    """On the 4-lift random map the GVZSS converges to H_*(Y), as the ICSS
    does, and the ladder keeps every echelon at most 256 columns wide (the
    unreduced pages echelon 1,024 columns)."""
    import icss.intlinalg as intlinalg

    f = get_fixture("random", 13)
    widths = []
    real = intlinalg.column_echelon

    def measuring(M, *args, **kwargs):
        widths.append(M.cols)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(intlinalg, "column_echelon", measuring)
    gvz = gvzss_report(f)
    assert max(widths) <= 256, max(widths)
    monkeypatch.undo()
    assert gvz.converged
    ic = icss_report(f)
    for a, b in zip(gvz.degree_reports, ic.degree_reports, strict=True):
        assert a.total_homology == b.total_homology == homology_of_complex(f.target, a.n)
