"""End-to-end acceptance gate.

Each test covers one numbered criterion, asserts exact integer equality
throughout, and prints a single pass/fail line on the terminal (bypassing
capture) so the verdicts are visible in any run.
"""

import random
import time

import pytest
from reference import (
    alternating_cochain_homology,
    dual_alternating_homology,
    from_rows,
    is_zero,
)

from icss.alternating import AltBasis, alternating_kernel
from icss.complexes import homology_of_complex
from icss.fixtures import FIXTURES, random_fixture
from icss.intlinalg import IntMatrix, smith_normal_form
from icss.multiplicity import Tower
from icss.spectral import (
    SpectralSequence,
    build_double,
    check_collapse_first,
    first_ss,
    gvzss_report,
    icss,
    icss_report,
)
from icss.verify import (
    check_D2_kernel,
    check_D_row_exact,
    check_houston,
    check_W_row_exact,
)

NAMED = ["identity", "fold", "double_cover", "figure_eight", "disc_to_rp2"]


def named_maps():
    return [(name, FIXTURES[name]()) for name in NAMED]


def criterion(capsys, num, desc, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({desc}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({desc}): PASS")


def bareiss_det(M):
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


def test_criterion_1_convergence(capsys):
    def body():
        start = time.monotonic()
        for name, f in named_maps():
            for report in (icss_report(f), gvzss_report(f)):
                assert report.converged, (name, report.kind)
                for d in report.degree_reports:
                    assert d.graded_matches_page, (name, report.kind, d.n)
                    assert d.total_homology == homology_of_complex(
                        f.target, d.n
                    ), (name, report.kind, d.n)
        assert time.monotonic() - start < 10.0

    criterion(capsys, 1, "both sequences converge on every named map", body)


def test_criterion_2_projective_plane(capsys):
    def body():
        start = time.monotonic()
        f = FIXTURES["disc_to_rp2"]()
        ss = icss(f)
        g = ss.page_group(1, 1, 0)
        assert (g.rank, tuple(g.torsion)) == (0, (2,))
        report = icss_report(f)
        assert report.converged
        by_degree = {d.n: d for d in report.degree_reports}
        assert (by_degree[0].total_homology.rank, by_degree[0].total_homology.torsion) == (1, ())
        assert (by_degree[1].total_homology.rank, by_degree[1].total_homology.torsion) == (0, (2,))
        assert by_degree[2].total_homology.is_trivial
        assert time.monotonic() - start < 5.0

    criterion(capsys, 2, "projective-plane image with torsion witness", body)


def test_criterion_3_figure_eight(capsys):
    def body():
        start = time.monotonic()
        f = FIXTURES["figure_eight"]()
        ss = icss(f)
        assert ss.page_group(1, 0, 1).rank == 1
        assert ss.page_group(1, 0, 1).torsion == ()
        assert ss.page_group(1, 1, 0).rank == 1
        assert ss.page_group(1, 1, 0).torsion == ()
        d = ss.e_infinity(1)
        assert d.converged
        assert (d.total_homology.rank, d.total_homology.torsion) == (2, ())
        assert time.monotonic() - start < 5.0

    criterion(capsys, 3, "wedge of circles assembled from two columns", body)


def test_criterion_4_first_sequence_collapse(capsys):
    def body():
        for name, f in named_maps():
            for kind in ("Alt", "W"):
                report = check_collapse_first(first_ss(Tower(f), kind))
                assert report.vanishing_above_bottom, (name, kind, report.details)
                assert report.bottom_matches_target, (name, kind, report.details)
                assert report.stabilized, (name, kind, report.details)

    criterion(capsys, 4, "row filtration collapses for both complexes", body)


def test_criterion_5_row_exactness(capsys):
    def body():
        subjects = named_maps() + [
            (f"random-{seed}", random_fixture(seed)) for seed in range(25)
        ]
        for name, f in subjects:
            for n in range(min(2, f.target.dim) + 1):
                rep_w = check_W_row_exact(Tower(f), n)
                assert rep_w.passed, (name, n, rep_w.details)
                rep_d = check_D_row_exact(Tower(f), n)
                assert rep_d.passed, (name, n, rep_d.details)

    criterion(capsys, 5, "exact rows with explicit homotopies", body)


def test_criterion_6_double_point_kernel(capsys):
    def body():
        for name, f in named_maps():
            for n in range(min(2, f.target.dim) + 1):
                rep = check_D2_kernel(Tower(f), n)
                assert rep.passed, (name, n, rep.details)

    criterion(capsys, 6, "double points project onto the chain kernel", body)


def test_criterion_7_houston(capsys):
    def body():
        for name, f in named_maps():
            tower = Tower(f)
            for k in range(1, tower.k_max() + 1):
                for n in range(min(2, f.target.dim) + 1):
                    rep = check_houston(tower, k, n)
                    assert rep.passed, (name, k, n, rep.details)

    criterion(capsys, 7, "alternating homology agrees on W and D", body)


def test_criterion_8_cochain_duality(capsys):
    def body():
        for name, f in named_maps():
            tower = Tower(f)
            for k in range(1, tower.k_max() + 1):
                D = tower.D(k)
                for n in range(min(2, f.target.dim) + 1):
                    basis = AltBasis(D, n)
                    if basis.n_gens:
                        T = basis.to_raw_matrix
                        identity = IntMatrix.identity(basis.n_gens)
                        assert basis.coordinates(T) == identity, (name, k, n)
                        A = alternating_kernel(D, n)
                        assert T @ basis.coordinates(A) == A, (name, k, n)
                    assert dual_alternating_homology(
                        D, n
                    ) == alternating_cochain_homology(D, n), (name, k, n)

    criterion(capsys, 8, "cochain models are mutually inverse", body)


def test_criterion_9_engine_postconditions(capsys):
    def body():
        start = time.monotonic()
        rng = random.Random(2024)
        for _ in range(1000):
            m, n = rng.randint(0, 12), rng.randint(0, 12)
            M = from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], cols=n
            )
            U, S, V = smith_normal_form(M)
            assert U @ M @ V == S
            assert abs(bareiss_det(U)) == 1 and abs(bareiss_det(V)) == 1
            diag = [S.data[i][i] for i in range(min(m, n))]
            nonzero = [d for d in diag if d]
            assert all(d > 0 for d in nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
        assert time.monotonic() - start < 30.0
        for name, f in named_maps():
            for kind in ("Alt", "W"):
                dc = build_double(Tower(f), kind)
                dc.verify_identities()
                ss = SpectralSequence(dc, "columns")
                for deg in range(1, ss.n_top + 1):
                    assert is_zero(ss.D(deg) @ ss.D(deg + 1)), (name, kind, deg)

    criterion(capsys, 9, "normal-form and complex identities hold", body)
