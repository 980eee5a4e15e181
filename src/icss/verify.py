"""Machine checks of the structural claims behind the spectral sequences.

Each checker computes both sides of an exactness or isomorphism statement
and reports exact integer agreement, carrying concrete witnesses (matrices,
offending chains) on failure.  The W-row checker also constructs the
contracting homotopies explicitly, one per choice of base lift, and
multiplies out their defining identities.

Over a Y-simplex with N lifts, each multiplicity row depends on N alone, so
the row lemmas are checked once per lift count and a failure is reported on
every simplex with that count.  Both rows are read off the map's
``LiftTable``, the W row as slot drops on k-tuples of lifts and the D row
as subset drops on increasing k-subsets (the augmented boundary of the
standard (N-1)-simplex), and one routine, ``_row_failures``, checks both,
and the D row's assembled blocks over all of Y as well.
One tie, ``_tie_to_chain_level``, checks both rows' table columns against
the raw transfer: rho on W^k, the last-slot projection on D^k.
The checks of one map share what they read of its tower: each alternating
basis and alternating kernel is computed once per space and degree, each
alternating complex once (the Alt grid of the collapse check reads the
same ones), and each space's two alternating homologies (through the free
basis and through the kernels) once per space, every degree off one
reduction of its whole complex.  ``Tower.memo`` keeps them, so they live
as long as the tower and no longer.

Grid cells are carried to raw chains by ``multiplicity.grid_cells`` alone,
which computes the listing sign: the tie carries the W cells through it
and the D cells through the alternating bases built from it, and the D^2
kernel reduction reads each X-simplex's sign off its D^1 record.  A check
whose alternating blocks cannot be formed (``NotAlternating``) fails
rather than raising.  Nothing is drawn at random: the D^2 reduction runs
on each column of the kernel basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alternating import (
    alt_basis,
    alt_complex,
    alternating_kernel,
    kernel_columns,
    rho_columns,
)
from .complexes import SimplicialMap, pushforward_matrix
from .errors import NotAComplex, NotAlternating, NotASubgroup
from .intlinalg import (
    HomologyGroup,
    IntMatrix,
    Subgroup,
    chain_homology,
    compose,
    kernel_basis,
    sparse_columns,
)
from .multiplicity import LiftTable, Tower, grid_cells, projection_eps


@dataclass
class VerificationReport:
    name: str
    passed: bool = True
    details: list = field(default_factory=list)

    def fail(self, *info):
        self.passed = False
        self.details.append(info)

    def note(self, *info):
        self.details.append(info)


def _subgroups_equal(A_cols: IntMatrix, B_cols: IntMatrix) -> bool:
    rows = A_cols.rows
    return Subgroup(rows, A_cols) == Subgroup(rows, B_cols)


def _alt_kernel(tower: Tower, Z, n: int) -> IntMatrix:
    """The alternating degree-n chains of the tower's space Z."""
    return tower.memo(("kernel", Z.kind, Z.k, n), lambda: alternating_kernel(Z, n))


def _alt_homology(tower: Tower, Z, route: str) -> dict:
    """{n: H_n} of the alternating chains of the tower's space Z in every
    degree, off one reduction of its whole complex in the tower's free bases
    ("basis", D^k only, a copy of the complex the Alt grid reads) or
    alternating kernels ("kernel")."""

    def make():
        degrees = range(Z.dim + 1)
        if route == "basis":
            columns = [[dict(col) for col in cols] for cols in alt_complex(tower, Z)]
        else:
            columns = kernel_columns(Z, [_alt_kernel(tower, Z, m) for m in degrees])
        return chain_homology(columns, degrees)

    return tower.memo(("homology", route, Z.kind, Z.k), make)


def _pushforward_kernel(tower: Tower, n: int) -> IntMatrix:
    """The kernel of the degree-n pushforward by the tower's map."""
    return tower.memo(
        ("pushforward-kernel", n), lambda: kernel_basis(pushforward_matrix(tower.f, n))
    )


def check_W_row_exact(tower: Tower, n: int) -> VerificationReport:
    """Exactness of the multiplicity row of degree-n W-chains of the map
    ``tower.f`` augmented by the chains of Y, with explicit contracting
    homotopies, for the multiplicities up to min(k_max + 1, 3).

    Chains of a fixed degree split over the Y-simplex underneath, and the
    block over a simplex with N lifts is the row of the tuples {0..N-1}^k,
    which depends on N alone.  So the row is checked once per lift count
    (``_w_row``), and each failure is reported on every simplex with that
    count.  The transfer the W grid reads is tied back to raw chains at low
    multiplicity (``_tie_to_chain_level``).
    """
    rep = VerificationReport(f"W-row-exact n={n}")
    f, counts = tower.f, tower.lifts.counts
    k_cap = min(tower.k_max() + 1, 3)
    for delta in f.target.simplices(n):
        N = counts[delta]
        for name, *info in tower.memo(("W-row", N), lambda: _w_row(tower.lifts, N, k_cap)):
            if name.startswith("homotopy"):
                info[0] = tower.lifts[delta][info[0]]  # the base lift
            rep.fail(name, delta, *info)
    raw = _tie_to_chain_level(rep, tower, n, "W", k_cap)
    # kernel of the augmentation is exactly the image of the first transfer
    img = IntMatrix.from_sparse(raw[2], f.source.n_simplices(n))
    if not _subgroups_equal(img, _pushforward_kernel(tower, n)):
        rep.fail("global-kernel-image")
    return rep


def _row_failures(rho: dict, base: int = 1) -> list:
    """The failures of an augmented row: ``rho[k]``, for k = 1..top, holds
    the {row: entry} columns of the transfer from the rank-k cells onto the
    rank-(k-1) ones, and rho[1] maps onto Z^base (Z over one simplex).  The
    row must square to zero, be onto Z^base and be exact at k = 1..top-1."""
    out = []
    top = max(rho)
    dense = {k: IntMatrix.from_sparse(rho[k], len(rho[k - 1]) if k > 1 else base) for k in rho}
    for k in range(2, top + 1):
        if any(compose(rho[k - 1], rho[k])):
            out.append(("rho-square", k))
    if Subgroup(base, dense[1]) != Subgroup.full(base):
        out.append(("augmentation-not-surjective",))
    for k in range(1, top):
        ker = kernel_basis(dense[k])
        if not _subgroups_equal(dense[k + 1], ker):
            out.append(("row-not-exact", k, ker.cols))
    return out


def _w_row(table: LiftTable, N: int, k_cap: int) -> list:
    """The failures of the W row over a simplex with N lifts.

    The transfer rho_k on the tuples {0..N-1}^k is the lift table's slot
    drops, for k up to k_cap + 1, and must pass ``_row_failures``.  For
    each base lift t, prepending t must satisfy the slot identities and
    contract the row.  A homotopy failure names t by its lift index.
    """
    rho = {k: [dict(col) for col in table.drops("W", N, k, 1)] for k in range(1, k_cap + 2)}
    out = _row_failures(rho)
    for t in range(N):
        S = [_prepend(N, k, t) for k in range(k_cap + 1)]
        if compose(_drop(N, 1, 1), S[0]) != _identity(1):
            out.append(("homotopy-augmentation", t))
        for k in range(1, k_cap + 1):
            identity = _identity(N**k)
            if compose(_drop(N, k + 1, 1), S[k]) != identity:
                out.append(("homotopy-first-slot", t, k))
            for i in range(1, k + 1):
                if compose(_drop(N, k + 1, i + 1), S[k]) != compose(S[k - 1], _drop(N, k, i)):
                    out.append(("homotopy-shift", t, k, i))
            # rho S + S rho, column by column
            hom = compose(rho[k + 1], S[k])
            for col, other in zip(hom, compose(S[k - 1], rho[k])):
                for i, a in other.items():
                    col[i] = col.get(i, 0) + a
            if [{i: a for i, a in col.items() if a} for col in hom] != identity:
                out.append(("homotopy-not-contracting", t, k))
    return out


def _drop(N: int, k: int, i: int) -> list:
    """Forgetting slot i (1-based), from the tuples {0..N-1}^k to the
    (k-1)-tuples, both in lexicographic order, as columns."""
    low = N ** (k - i)  # place value of slot i
    return [{x // (low * N) * low + x % low: 1} for x in range(N**k)]


def _prepend(N: int, k: int, t: int) -> list:
    """Prepending t, from the tuples {0..N-1}^k to the (k+1)-tuples."""
    return [{t * N**k + x: 1} for x in range(N**k)]


def _identity(m: int) -> list:
    return [{j: 1} for j in range(m)]


def _tie_to_chain_level(rep, tower, n, kind, k_top) -> dict:
    """The grid's transfer columns of ``kind`` ("W" or "D"), read off the
    lift table and twisted back by (-1)^n, are the raw transfer: rho
    (``rho_columns``) on W^k, the last-slot projection eps_k on D^k.  For
    k = 1..k_top, the raw transfer of each cell's raw chain must be its
    table column carried to raw chains one multiplicity down (k = 1 lands
    on Y).  A W cell's raw chain is its product (``grid_cells``), a D
    cell's its alternation, read off the tower's ``alt_basis``, which forms
    it once per space and degree.  A mismatch at k fails as
    ``listing-model-mismatch`` on W and ``sign-identity`` on D.  Returns
    the raw transfers as {k: columns}."""
    f, lifts = tower.f, tower.lifts
    twist = -1 if n % 2 else 1
    name = "listing-model-mismatch" if kind == "W" else "sign-identity"
    below = [{row: 1} for row in range(f.target.n_simplices(n))]  # Y itself
    raw = {}
    for k in range(1, k_top + 1):
        if kind == "W":
            Zk = tower.W(k)
            raw[k], cells = rho_columns(Zk, n), grid_cells(Zk, n)[1]
        else:
            Zk = tower.D(k)
            raw[k] = sparse_columns(pushforward_matrix(projection_eps(Zk, k), n))
            cells = sparse_columns(alt_basis(tower, Zk, n).to_raw_matrix)
        mapped = compose(below, lifts.transfer_columns(k, n, kind))
        if compose(raw[k], cells) != [{i: twist * a for i, a in col.items()} for col in mapped]:
            rep.fail(name, k)
        below = cells
    return raw


def _d_row(table: LiftTable, N: int) -> list:
    """The failures of the D row over a simplex with N lifts: the table's
    subset drops for k up to N + 1, where no (N+1)-subsets leave exactness
    at N to say that the top boundary is injective."""
    rho = {k: [dict(col) for col in table.drops("D", N, k, 1)] for k in range(1, N + 2)}
    return _row_failures(rho)


def check_D_row_exact(tower: Tower, n: int) -> VerificationReport:
    """Exactness of the alternating multiplicity row of degree-n chains of
    the map ``tower.f``.

    The row is the lift table's D columns, tied to the raw last-slot
    projection and augmentation (``_tie_to_chain_level``): over a simplex
    with N lifts, (-1)^n times the augmented boundary of the standard
    (N-1)-simplex, whose exactness (``_d_row``) is checked once per lift
    count.  The assembled blocks, which are the raw transfer in alternating
    coordinates whenever the tie passes (the alternating cells are
    independent), must also pass ``_row_failures`` onto the chains of Y,
    up to the empty block past the largest lift count N_max, so exactness
    at N_max is injectivity; their failures are reported as
    ``<name>-global``.
    """
    rep = VerificationReport(f"D-row-exact n={n}")
    f, lifts = tower.f, tower.lifts
    N_max = tower.k_max()
    _tie_to_chain_level(rep, tower, n, "D", N_max)
    for delta in f.target.simplices(n):
        N = lifts.counts[delta]
        for name, *info in tower.memo(("D-row", N), lambda: _d_row(lifts, N)):
            rep.fail(name, delta, *info)
    rho = {k: lifts.transfer_columns(k, n, "D") for k in range(1, N_max + 2)}
    for name, *info in _row_failures(rho, f.target.n_simplices(n)):
        rep.fail(f"{name}-global", *info)
    return rep


def check_D2_kernel(tower: Tower, n: int) -> VerificationReport:
    """The alternating double-point chains of the map ``tower.f`` project onto
    exactly the kernel of the induced map on degree-n chains, with the
    constructive reduction: each kernel basis column is brought to zero by
    subtracting projected alternating pair generators, strictly shrinking
    the coefficient norm.  A step keeps each Y-simplex's signed weight sum,
    and one succeeds exactly when those sums vanish, which is linear, so
    the basis columns decide it for the whole kernel."""
    rep = VerificationReport(f"D2-kernel n={n}")
    f = tower.f
    D2 = tower.D(2)
    basis = alt_basis(tower, D2, n)
    K = _pushforward_kernel(tower, n)
    proj = pushforward_matrix(projection_eps(D2, 2), n) @ basis.to_raw_matrix
    if not _subgroups_equal(proj, K):
        rep.fail("subgroup-mismatch")
        return rep
    if K.cols == 0:
        rep.note("kernel-trivial")
    # pair generators indexed by (delta, ordered pair of distinct lifts)
    X = f.source
    # each X-simplex is the D^1 cell of its own lift, signed by the bridge
    records, _ = grid_cells(tower.D(1), n)
    sign_of = {rec.canonical: (rec.sign, rec.delta, rec.lifts[0]) for rec in records}
    for g in range(K.cols):
        c = K.column(g)
        start_norm = sum(abs(x) for x in c)
        steps = 0
        while any(c):
            j = next(i for i, x in enumerate(c) if x)
            s = X.simplices(n)[j]
            u, delta, T = sign_of[s]
            a_s = u * c[j]
            # some other lift over delta must carry the opposite signed weight
            partner = None
            for T2 in tower.lifts[delta]:
                if T2 == T:
                    continue
                s2 = tuple(sorted(T2))
                a2 = sign_of[s2][0] * c[X.index(s2)]
                if a2 * a_s < 0:
                    partner = (T2, s2)
                    break
            if partner is None:
                rep.fail("no-reduction-partner", s, c)
                return rep
            T2, s2 = partner
            alpha = 1 if a_s > 0 else -1
            u2 = sign_of[s2][0]
            c[j] -= alpha * u
            c[X.index(s2)] += alpha * u2
            steps += 1
            if steps > start_norm:
                rep.fail("reduction-did-not-terminate", start_norm)
                return rep
    return rep


def check_houston(tower: Tower, k: int, n: int) -> VerificationReport:
    """Alternating homology agrees between the k-fold fibre product and the
    distinct-point space of the map ``tower.f``, and the inclusion induces the
    identification."""
    rep = VerificationReport(f"houston k={k} n={n}")
    W, D = tower.W(k), tower.D(k)
    zero = HomologyGroup(0)  # above the dimension of the space
    try:
        ah_w = _alt_homology(tower, W, "kernel").get(n, zero)
        ah_d = _alt_homology(tower, D, "basis").get(n, zero)
        ah_d_kernel = _alt_homology(tower, D, "kernel").get(n, zero)
    except (NotASubgroup, NotAlternating) as exc:  # the boundary leaves the alternating chains
        rep.fail("not-a-subcomplex", str(exc))
        return rep
    if ah_d != ah_d_kernel:
        rep.fail("alt-basis-vs-kernel", str(ah_d), str(ah_d_kernel))
    if ah_w != ah_d:
        rep.fail("W-vs-D", str(ah_w), str(ah_d))
    # inclusion of chain groups carries one alternating subgroup onto the other
    if 0 <= n <= min(W.dim, D.dim):
        J = IntMatrix(W.n_simplices(n), D.n_simplices(n))
        for j, s in enumerate(D.simplices(n)):
            tuples = tuple(D.vertex_tuples[v] for v in s)
            image = tuple(sorted(W.tuple_index[t] for t in tuples))
            J.data[W.index(image)][j] = 1
        alt_d = _alt_kernel(tower, D, n)
        alt_w = _alt_kernel(tower, W, n)
        if not _subgroups_equal(J @ alt_d, alt_w):
            rep.fail("inclusion-not-onto-alternating")
    return rep


def run_all(f: SimplicialMap) -> list:
    """Every structural check, plus the collapse checks and the round trip
    between raw and alternating coordinates (reported as
    ``cochain-round-trip``), all reading one tower of f, in the degrees
    n <= min(2, dim Y)."""
    from .spectral import check_collapse_first, first_ss

    reports = []
    if not f.valid:
        rep = VerificationReport("validate")
        rep.fail("map-invalid", f.report.failures[:5])
        return [rep]
    tower = Tower(f)
    top = min(2, f.target.dim)
    for n in range(top + 1):
        reports.append(check_W_row_exact(tower, n))
        reports.append(check_D_row_exact(tower, n))
        reports.append(check_D2_kernel(tower, n))
    for k in range(1, tower.k_max() + 1):
        for n in range(top + 1):
            reports.append(check_houston(tower, k, n))
    for kind in ("Alt", "W"):
        rep = VerificationReport(f"collapse-first {kind}")
        try:
            cr = check_collapse_first(first_ss(tower, kind))
        except (NotAComplex, NotAlternating) as exc:  # the grid fails its identities or its bases
            rep.fail("not-a-complex", str(exc))
        else:
            if not cr.ok:
                rep.fail("collapse", cr.details[:5])
        reports.append(rep)
    # each alternating basis against its raw chains: the generators' raw
    # coordinates read back as the identity, and every alternating chain
    # has coordinates
    rep = VerificationReport("cochain-round-trip")
    for k in range(1, tower.k_max() + 1):
        for n in range(top + 1):
            basis = alt_basis(tower, tower.D(k), n)
            if basis.n_gens == 0:
                continue
            try:
                if basis.coordinates(basis.to_raw_matrix) != IntMatrix.identity(basis.n_gens):
                    rep.fail("theta-altstar", k, n)
            except NotAlternating:
                rep.fail("theta-altstar", k, n)
            try:
                basis.coordinates(_alt_kernel(tower, tower.D(k), n))
            except NotAlternating:
                rep.fail("altstar-theta", k, n)
    reports.append(rep)
    return reports
