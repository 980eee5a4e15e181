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


def standard_row(N):
    """The augmented boundaries of the standard (N-1)-simplex, k = 1..N+1,
    as the D-row check reads them."""
    from icss.multiplicity import _subset_drops

    return {k: [dict(col) for col in _subset_drops(N, k, 1)] for k in range(1, N + 2)}


def test_row_failures_on_standard_simplex_rows():
    from icss.verify import _row_failures

    for N in (1, 2, 3, 4):
        assert _row_failures(standard_row(N)) == [], N
        # the top boundary zeroed: the full subset becomes a cycle no
        # boundary hits, so the row is no longer exact at N
        rho = standard_row(N)
        rho[N] = [{}]
        assert ("row-not-exact", N) in [f[:2] for f in _row_failures(rho)], N
    # one flipped entry of the second boundary: it no longer squares to zero
    rho = standard_row(3)
    rho[2] = flip_first_entry(rho[2])
    assert ("rho-square", 2) in _row_failures(rho)
    # two rows side by side, onto Z^2, as the D-row check's global blocks are
    for N in (1, 2, 3, 4):
        rho = side_by_side(standard_row(N), standard_row(N))
        assert _row_failures(rho, 2) == [], N
        rho[N] = [{}, {}]
        assert ("row-not-exact", N) in [f[:2] for f in _row_failures(rho, 2)], N


def side_by_side(a, b):
    """The block row of the rows a and b: b's cells follow a's at every
    rank, and its augmentation lands on the second copy of Z."""
    shifted = {k: len(a[k - 1]) if k > 1 else 1 for k in a}
    return {k: a[k] + [{i + shifted[k]: x for i, x in col.items()} for col in b[k]] for k in a}


def test_d2_kernel(maps):
    for name, f in maps.items():
        for n in range(f.target.dim + 1):
            rep = check_D2_kernel(Tower(f), n)
            assert rep.passed, (name, n, rep.details)


def test_d2_reduction_fails_on_a_flipped_point_sign(maps, monkeypatch):
    """With the sign of one X-simplex in the support of a kernel column
    flipped on D^1, that column's signed weights over its Y-simplex no
    longer cancel, so the reduction runs out of partners."""
    import dataclasses

    import icss.verify as verify

    real = verify.grid_cells
    reached = []
    for name, f in maps.items():
        for n in range(f.target.dim + 1):
            tower = Tower(f)
            K = verify._pushforward_kernel(tower, n)
            if K.cols == 0:
                continue
            s = f.source.simplices(n)[next(i for i, x in enumerate(K.column(0)) if x)]

            def flipped(Z, degree, s=s):
                records, rest = real(Z, degree)
                if Z.k == 1:
                    records = [
                        dataclasses.replace(r, sign=-r.sign) if r.canonical == s else r
                        for r in records
                    ]
                return records, rest

            with monkeypatch.context() as patch:
                patch.setattr(verify, "grid_cells", flipped)
                rep = check_D2_kernel(tower, n)
            assert not rep.passed and rep.details[0][0] == "no-reduction-partner", (name, n)
            reached.append((name, n))
    assert reached == [
        ("fold", 0), ("fold", 1), ("double_cover", 0), ("figure_eight", 0),
        ("disc_to_rp2", 0), ("disc_to_rp2", 1),
    ]


def test_houston(maps):
    for name, f in maps.items():
        tower = Tower(f)
        for k in range(1, tower.k_max() + 1):
            for n in range(f.target.dim + 1):
                rep = check_houston(tower, k, n)
                assert rep.passed, (name, k, n, rep.details)


def test_run_all_passes(fold):
    reports = run_all(fold)
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


def flip_first_entry(columns):
    """The columns with the first nonzero entry of the first nonempty one
    negated; columns are {row: entry} dicts or (row, entry) lists."""
    columns = list(columns)
    j = next(j for j, col in enumerate(columns) if col)
    if isinstance(columns[j], dict):
        (row, a), *rest = columns[j].items()
        columns[j] = {row: -a, **dict(rest)}
    else:
        (row, a), *rest = columns[j]
        columns[j] = [(row, -a), *rest]
    return columns


def test_w_row_fails_on_every_simplex_with_a_corrupt_lift_count(fold, monkeypatch):
    """The row lemma reads the lift table's slot drops, once per lift count:
    one flipped entry of the 2-lift transfer at k = 3 fails the row on
    every simplex with 2 lifts, and the tie to raw chains fails too."""
    import icss.multiplicity as multiplicity

    real = multiplicity._slot_drops

    def flipped(n, k, twist):
        cols = real(n, k, twist)
        return flip_first_entry(cols) if (n, k) == (2, 3) else cols

    monkeypatch.setattr(multiplicity, "_slot_drops", flipped)
    tower = Tower(fold)
    counts = tower.lifts.counts
    for n in range(fold.target.dim + 1):
        rep = check_W_row_exact(tower, n)
        doubles = {d for d in fold.target.simplices(n) if counts[d] == 2}
        assert doubles, n
        on_simplex = {d[1] for d in rep.details if len(d) > 1 and isinstance(d[1], tuple)}
        assert on_simplex == doubles, (n, rep.details)
        assert ("listing-model-mismatch", 3) in rep.details, n


def test_tie_fails_on_a_corrupt_transfer(fold, monkeypatch):
    from icss.multiplicity import LiftTable

    real = LiftTable.transfer_columns

    def flipped(self, k, q, kind="W"):
        cols = real(self, k, q, kind)
        return flip_first_entry(cols) if (k, kind) == (2, "W") else cols

    monkeypatch.setattr(LiftTable, "transfer_columns", flipped)
    tower = Tower(fold)
    for n in range(fold.target.dim + 1):
        rep = check_W_row_exact(tower, n)
        assert rep.details == [("listing-model-mismatch", 2)], (n, rep.details)


def test_d_row_fails_on_a_flipped_sign(fold, monkeypatch):
    """One flipped entry of the lift table's D columns at k = 2 no longer
    ties to the raw last-slot projection of the cells' alternations."""
    from icss.multiplicity import LiftTable

    real = LiftTable.transfer_columns

    def flipped(self, k, q, kind="W"):
        cols = real(self, k, q, kind)
        return flip_first_entry(cols) if (k, kind) == (2, "D") else cols

    monkeypatch.setattr(LiftTable, "transfer_columns", flipped)
    failed = [check_D_row_exact(Tower(fold), n) for n in range(fold.target.dim + 1)]
    assert not all(rep.passed for rep in failed)
    assert any(d[0] == "sign-identity" for rep in failed for d in rep.details)


def test_run_all_reports_swap_conditions_without_their_sign(fold, monkeypatch):
    """Alternating kernels cut out by unsigned slot swaps are no subcomplex
    on the fold: the Houston checks and the round trip report it, and
    run_all returns."""
    import icss.verify as verify
    from reference import adjacent_swap, slot_action

    from icss.intlinalg import IntMatrix, kernel_basis

    def unsigned(Z, n):
        m = Z.n_simplices(n)
        if Z.k == 1:
            return IntMatrix.identity(m)
        rows = []
        for i in range(Z.k - 1):
            P = slot_action(Z, adjacent_swap(Z.k, i), n)
            rows += [[abs(a) + (r == c) for c, a in enumerate(row)] for r, row in enumerate(P.data)]
        return kernel_basis(IntMatrix(len(rows), m, rows))

    monkeypatch.setattr(verify, "alternating_kernel", unsigned)
    failed = {rep.name: rep.details for rep in run_all(fold) if not rep.passed}
    assert failed["houston k=2 n=1"][0][0] == "not-a-subcomplex", failed
    assert failed["cochain-round-trip"] == [("altstar-theta", 2, 1)], failed


def test_run_all_shares_per_space_data(disc_to_rp2, monkeypatch):
    """One run_all builds each alternating basis and alternating kernel once
    per space and degree and each alternating complex once per space, and
    checks each row lemma once per lift count.  Every ``AltBasis`` is
    counted, so the bases of the collapse check's Alt grid count too: the
    grid reads the ones the other checks built, and the complexes the
    free-basis route reads."""
    from collections import Counter

    import icss.alternating as alternating
    import icss.spectral as spectral
    import icss.verify as verify
    from icss.alternating import AltBasis

    calls = Counter()

    def counting(name, real, key):
        def wrapper(*args):
            calls[(name, *key(*args))] += 1
            return real(*args)

        return wrapper

    space = lambda Z, n: (Z.kind, Z.k, n)  # noqa: E731
    built = counting("basis", AltBasis.__init__, lambda self, Z, n: space(Z, n))
    monkeypatch.setattr(AltBasis, "__init__", built)
    kernel = counting("kernel", verify.alternating_kernel, space)
    monkeypatch.setattr(verify, "alternating_kernel", kernel)
    monkeypatch.setattr(verify, "_w_row", counting("W-row", verify._w_row, lambda t, N, k: (N,)))
    monkeypatch.setattr(verify, "_d_row", counting("D-row", verify._d_row, lambda t, N: (N,)))
    blocks = {
        "alt_columns": counting(
            "complex", alternating.alt_columns, lambda bases: (bases[0].Z.kind, bases[0].Z.k)
        ),
    }
    for module in (alternating, spectral, verify):
        for name, wrapper in blocks.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert all(r.passed for r in run_all(disc_to_rp2))
    assert max(calls.values()) == 1, calls
    counts = set(Tower(disc_to_rp2).lifts.counts.values())
    for name in ("W-row", "D-row"):
        assert {key[1] for key in calls if key[0] == name} == counts, calls
    assert {key[0] for key in calls} == {
        "basis", "kernel", "W-row", "D-row", "complex"
    }, calls
    assert ("kernel", "W", 2, 0) in calls and ("basis", "D", 2, 0) in calls, calls
    k_max = Tower(disc_to_rp2).k_max()
    assert {key for key in calls if key[0] == "complex"} == {
        ("complex", "D", k) for k in range(1, k_max + 1)
    }, calls


def test_run_all_forms_each_raw_transfer_once(disc_to_rp2, monkeypatch):
    """The W-row check ties the grid's transfer to the raw one and checks
    the first transfer's image against the pushforward's kernel, reading
    one raw transfer per space and degree."""
    from collections import Counter

    import icss.alternating as alternating
    import icss.verify as verify

    formed = Counter()
    real = alternating.rho_columns

    def counting(Z, n):
        formed[(Z.kind, Z.k, n)] += 1
        return real(Z, n)

    for module in (alternating, verify):
        monkeypatch.setattr(module, "rho_columns", counting)
    assert all(r.passed for r in run_all(disc_to_rp2))
    assert ("W", 2, 0) in formed and max(formed.values()) == 1, formed


def test_run_all_restricts_each_raw_boundary_once(disc_to_rp2, monkeypatch):
    """One run_all restricts each raw boundary to the alternating kernels
    once per space and degree: each space's kernel-route complex is built
    once, and every degree is read off one reduction of it."""
    from collections import Counter

    import icss.alternating as alternating
    import icss.verify as verify

    space_of = {}  # id of a kernel -> (kind, k, degree)
    real_kernel, real_restrict = verify.alternating_kernel, alternating.restrict

    def kernel(Z, n):
        A = real_kernel(Z, n)
        space_of[id(A)] = (Z.kind, Z.k, n)
        return A

    restricted = Counter()

    def restrict(M, src, tgt):
        restricted[space_of[id(src)]] += 1
        return real_restrict(M, src, tgt)

    monkeypatch.setattr(verify, "alternating_kernel", kernel)
    monkeypatch.setattr(alternating, "restrict", restrict)
    assert all(r.passed for r in run_all(disc_to_rp2))
    assert restricted and max(restricted.values()) == 1, restricted
    assert set(restricted) == {key for key in space_of.values() if key[2] >= 1}, restricted


def test_run_all_frees_its_towers_without_the_cycle_collector(disc_to_rp2, monkeypatch):
    """What the checks keep on a tower refers to no tower, so every tower
    and space of a run is freed by reference counting alone."""
    import gc
    import weakref

    import icss.multiplicity as multiplicity
    import icss.verify as verify

    refs = []
    real_tower, real_build = verify.Tower, multiplicity._build

    def tower(f):
        t = real_tower(f)
        refs.append(weakref.ref(t))
        return t

    def build(*args):
        Z = real_build(*args)
        refs.append(weakref.ref(Z))
        return Z

    monkeypatch.setattr(verify, "Tower", tower)
    monkeypatch.setattr(multiplicity, "_build", build)
    gc.collect()
    gc.disable()
    try:
        assert all(r.passed for r in run_all(disc_to_rp2))
        alive = [r() for r in refs if r() is not None]
    finally:
        gc.enable()
    assert len(refs) > 1 and not alive, alive


def test_run_all_reports_a_flipped_bridge_sign(fold, monkeypatch):
    """The bridge's signs are what the checks test: with the swap's sign
    dropped from each D^2 cell's alternation, run_all returns (no
    ``NotAlternating`` escapes it) and the checks that read the alternating
    basis fail; with one W cell's orientation flipped, the W-row check's
    tie to the raw transfer fails."""
    import icss.alternating as alternating
    import icss.verify as verify

    real = alternating.grid_cells

    def unsigned_swap(Z, n):
        records, columns = real(Z, n)
        if Z.k == 2:  # the one reordering is the swap: flip its entry
            columns = [
                {i: a if i == Z.index(rec.canonical) else -a for i, a in col.items()}
                for rec, col in zip(records, columns)
            ]
        return records, columns

    monkeypatch.setattr(alternating, "grid_cells", unsigned_swap)
    failed = {rep.name: rep.details[0][0] for rep in run_all(fold) if not rep.passed}
    assert failed == {
        **{f"D-row-exact n={n}": "sign-identity" for n in (0, 1)},
        **{f"D2-kernel n={n}": "subgroup-mismatch" for n in (0, 1)},
        **{f"houston k=2 n={n}": "not-a-subcomplex" for n in (0, 1)},
        "collapse-first Alt": "not-a-complex",
        "cochain-round-trip": "altstar-theta",
    }, failed
    monkeypatch.undo()

    real = verify.grid_cells

    def one_flipped(Z, n):
        records, columns = real(Z, n)
        if Z.kind == "W" and Z.k == 2:  # the first cell, oriented the other way
            columns = [{i: -a for i, a in columns[0].items()}, *columns[1:]]
        return records, columns

    monkeypatch.setattr(verify, "grid_cells", one_flipped)
    failed = {rep.name: rep.details for rep in run_all(fold) if not rep.passed}
    # the first cell is diagonal, which rho kills, so k = 2 still ties; the
    # transfer from W^3 lands on it
    assert failed == {
        f"W-row-exact n={n}": [("listing-model-mismatch", 3)] for n in (0, 1)
    }, failed
