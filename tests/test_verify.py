from icss.complexes import SimplicialMap, build_complex
from icss.multiplicity import Tower
from icss.verify import (
    check_D2_kernel,
    check_D_row_exact,
    check_houston,
    check_W_row_exact,
    run_all,
)


def test_w_row_exact(maps):
    for name, f in maps.items():
        for n in range(f.target.dim + 1):
            rep = check_W_row_exact(Tower(f), n)
            assert rep.passed, (name, n, rep.details)


def test_d_row_exact(maps):
    for name, f in maps.items():
        for n in range(f.target.dim + 1):
            rep = check_D_row_exact(Tower(f), n)
            assert rep.passed, (name, n, rep.details)


def test_rows_exact_on_deeper_fibres(deep_map):
    for n in range(min(deep_map.target.dim, 1) + 1):
        assert check_W_row_exact(Tower(deep_map), n).passed
        assert check_D_row_exact(Tower(deep_map), n).passed


def test_d2_kernel(maps):
    for name, f in maps.items():
        for n in range(f.target.dim + 1):
            rep = check_D2_kernel(Tower(f), n, samples=20, seed=1)
            assert rep.passed, (name, n, rep.details)


def test_houston(maps):
    for name, f in maps.items():
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            for n in range(f.target.dim + 1):
                rep = check_houston(tower, k, n)
                assert rep.passed, (name, k, n, rep.details)


def test_run_all_passes(fold):
    reports = run_all(fold, seed=0)
    assert reports and all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert any(n.startswith("W-row-exact") for n in names)
    assert any(n.startswith("collapse-first") for n in names)
    assert "cochain-round-trip" in names


def test_run_all_gates_on_validity():
    # a vertex onto an edge complex: simplicial but not surjective
    X = build_complex([(0,)])
    Y = build_complex([(0, 1)])
    f = SimplicialMap(X, Y, {0: 0})
    assert not f.valid
    reports = run_all(f)
    assert len(reports) == 1
    assert reports[0].name == "validate" and not reports[0].passed


def test_run_all_builds_each_space_once(disc_to_rp2, monkeypatch):
    from collections import Counter

    import icss.multiplicity as multiplicity

    built = Counter()
    real = multiplicity._build

    def counting(f, k, kind, *rest):
        built[(kind, k)] += 1
        return real(f, k, kind, *rest)

    monkeypatch.setattr(multiplicity, "_build", counting)
    assert all(r.passed for r in run_all(disc_to_rp2))
    assert built and max(built.values()) == 1, built
    # W^1 = D^1 = X is one space, the same whichever is asked for first
    assert sum(n for (kind, k), n in built.items() if k == 1) == 1, built
    w_first, d_first = (multiplicity.Tower(disc_to_rp2) for _ in range(2))
    assert w_first.W(1) is w_first.D(1)
    assert d_first.D(1) is d_first.W(1)
    assert w_first.W(1).kind == d_first.D(1).kind


def test_run_all_builds_no_fibre_product_above_three(disc_to_rp2, monkeypatch):
    """The W-row checks tie the grid's transfer to raw chains up to W^3, and
    the collapse check's W grid reads the lift table, so no W^k with k > 3
    is built."""
    import icss.multiplicity as multiplicity

    built = []
    real = multiplicity._build

    def counting(f, k, kind, *rest):
        built.append((kind, k))
        return real(f, k, kind, *rest)

    monkeypatch.setattr(multiplicity, "_build", counting)
    assert all(r.passed for r in run_all(disc_to_rp2))
    assert ("W", 3) in built
    assert not [(kind, k) for kind, k in built if kind == "W" and k > 3], built


def test_run_all_computes_each_target_homology_once(disc_to_rp2, monkeypatch):
    """Both collapse checks read H_n(Y) off the one tower, which computes
    every degree from one whole-complex homology of Y."""
    import icss.multiplicity as multiplicity

    calls = []
    real = multiplicity.homology_groups

    def counting(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(multiplicity, "homology_groups", counting)
    assert all(r.passed for r in run_all(disc_to_rp2))
    assert calls == [disc_to_rp2.target]
