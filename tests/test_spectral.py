import pytest
from reference import page_one_homology

from icss.complexes import homology_of_complex
from icss.errors import NotAComplex, TruncationInsufficient
from icss.intlinalg import HomologyGroup
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
    dc = build_double(Tower(fold), "W", p_max=1)
    assert (dc.p_max, dc.q_max) == (1, 1)
    assert ranks_by_column(dc) == {0: [3, 2], 1: [5, 4]}


def test_build_double_double_cover_alt(double_cover):
    dc = build_double(Tower(double_cover), "Alt", p_max=2)
    assert ranks_by_column(dc) == {0: [2], 1: [1], 2: [0]}


def test_build_double_identity(identity_map):
    dc = build_double(Tower(identity_map), "Alt")
    assert dc.p_max == 0
    assert ranks_by_column(dc) == {0: [3, 3]}
    # the multiplicity-two column of the distinct-point grid is genuinely zero
    dc2 = build_double(Tower(identity_map), "Alt", p_max=1)
    assert dc2.rank(1, 0) == 0 and dc2.d_v(1, 0).is_zero()


def test_double_complex_identities(maps):
    for name, f in maps.items():
        for kind in ("Alt", "W"):
            dc = build_double(Tower(f), kind, p_max=2)
            dc.verify_identities()  # raises on failure


def test_corrupted_cell_is_rejected(fold):
    dc = build_double(Tower(fold), "Alt")
    d_v = {k: v.copy() for k, v in dc._d_v.items()}
    d_v[(1, 1)].data[0][0] += 1
    with pytest.raises(NotAComplex):
        DoubleComplex("Alt", dc.p_max, dc.q_max, dc._ranks, dc._d_h, d_v)


def test_corrupted_cell_breaks_collapse(fold):
    dc = build_double(Tower(fold), "Alt")
    # severing every vertical transfer still satisfies the complex identities
    # but destroys the collapse, and the checker must notice
    d_v = {k: v.scaled(0) for k, v in dc._d_v.items()}
    bad = DoubleComplex(
        "Alt", dc.p_max, dc.q_max, dc._ranks, dc._d_h, d_v, tower=dc.tower, check=False
    )
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
    for name, f in maps.items():
        ss = icss(f)
        dc = ss.dc
        for p in range(dc.p_max + 1):
            for q in range(dc.q_max + 1):
                assert ss.page_group(1, p, q) == page_one_oracle(ss, p, q), (
                    name,
                    p,
                    q,
                )


def test_page_two_is_page_one_homology(fold, figure_eight):
    for f in (fold, figure_eight):
        for ss in (icss(f), gvzss(f)):
            dc = ss.dc
            for p in range(dc.p_max):
                for q in range(dc.q_max + 1):
                    s, t = ss._to_st(p, q)
                    assert ss.page_group(2, s, t) == page_one_homology(ss, p, q), (p, q)


def test_page_entries_carry_differentials(fold):
    ss = icss(fold)
    e0 = ss.page(0, 1, 1)
    assert e0.d_target == (1, 0)
    assert e0.d_matrix == ss.dc.d_h(1, 1)
    e1 = ss.page(1, 1, 0)
    assert e1.d_target == (0, 0)
    # the page-one differential of a cycle generator really is its transfer
    for j in range(e1.gens.cols):
        moved = ss.dc.d_v(1, 0).mul_vec(e1.gens.column(j))
        assert moved == ss._d0_kernel(0, 0).mul_vec(e1.d_matrix.column(j))


def test_stabilization(figure_eight):
    ss = icss(figure_eight)
    for p in range(ss.dc.p_max + 1):
        for q in range(ss.dc.q_max + 1):
            limit = ss.infinity_group(p, q)
            for r in range(max(p, q + 1) + 1, max(p, q + 1) + 4):
                assert ss.page_group(r, p, q) == limit, (p, q, r)


def test_gvzss_truncation_stability(fold, figure_eight):
    for f in (fold, figure_eight):
        for n in range(f.target.dim + 1):
            groups = []
            for p_max in (n + 2, n + 3):
                dc = build_double(Tower(f), "W", p_max=p_max, q_max=f.target.dim)
                ss = SpectralSequence(dc, "columns")
                groups.append(ss.e_infinity(n).total_homology)
            assert groups[0] == groups[1]
            assert groups[0] == homology_of_complex(f.target, n)


def test_truncation_insufficient(fold):
    dc = build_double(Tower(fold), "W", p_max=0, q_max=1)
    ss = SpectralSequence(dc, "columns")
    with pytest.raises(TruncationInsufficient):
        ss.e_infinity(1)


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


def test_page_zero_kernels_are_cached(disc_to_rp2, monkeypatch):
    import icss.spectral as spectral

    ss = icss(disc_to_rp2)
    blocks = []
    real = spectral.kernel_basis

    def counting(M):
        blocks.append(M)
        return real(M)

    monkeypatch.setattr(spectral, "kernel_basis", counting)
    for p in range(ss.dc.p_max + 1):
        for q in range(ss.dc.q_max + 1):
            page_one_homology(ss, p, q)
    # one kernel per distinct page-zero block, however often it is asked for
    assert len(blocks) == len(set(blocks)) == 6
