"""Test-only oracles, on coordinate vectors and matrices.

Each one reaches its answer by a route the package does not take, so a test
that compares the two checks the package:

- ``alt_matrix`` alternates chains through ``slot_action``, the action of
  the slot permutations on the vertex tuples written here, with each
  permutation's sign counted off its cycles, not through the bridge
  ``multiplicity.grid_cells`` that ``AltBasis`` reads; ``is_alternating``
  tests a chain against the adjacent slot swaps of the same action.
- ``selector`` writes the evaluation on the basis generators' signed
  product simplices as a matrix, so a test can compare
  ``AltBasis.coordinates``' gather with a product.
- ``page_one_homology`` takes the homology of page one under its
  differential from the presented page-one groups, built from the grid's
  dense blocks (``d_h``, ``d_v``); page two must equal it.
- ``boundary_from_faces`` and ``transfer_from_projections`` build the
  boundary and the transfer of the fibre products W^k as dense matrices,
  face by face and from the validated slot projections, on the chains of
  the built spaces.  ``build_double`` writes the W grid's blocks off the
  map's lift table on cells (Y-simplex, tuple of lift indices), with no
  W^k built; ``cell_bijection`` carries those cells onto the chains of W^k
  through the space's own vertex tuples and simplex index, with lifts found
  by a scan of its own, so a test can compare the two, and compare it with
  the package's bridge ``multiplicity.grid_cells``.
- ``w_grid`` writes the W grid off the map's lift table with a column cut
  of the caller's choosing, so a test can compare ``build_double``'s cut
  with a later one.
- ``GenericSequence`` computes every page, the graded limit pieces and the
  total homology by the generic filtered-complex formula on the dense,
  unreduced total complex, where ``SpectralSequence`` reads them off the
  unit-pair reduction.
- ``homology_pair`` takes ker d_n / im d_next of one dense pair of
  differentials by kernel, solve and Smith, with no reduction, and the
  ``pair_*`` routes read each (co)homology group degree by degree off the
  two differentials around it.  The package builds each whole complex once
  as sparse columns and reads every degree off one reduction of it.
- ``solve``, ``contains`` and ``contains_subgroup`` are membership tests
  by one integral solve.
- ``build_complex_by_closure``, ``canonical_by_closure`` and
  ``validate_map_by_walk`` are the load route the package replaced: one
  face-closure set regrouped by dimension, a canonical form read off a
  built complex's facets, and a map checked simplex by simplex (with
  ``has_simplex``, a scan of one dimension's simplices).  The package
  sorts each given simplex once into per-dimension sets, reads the
  canonical form off the given simplices and compares image sets.
- ``rung_block`` forms one degree of a reduced complex, which the package
  holds as sparse columns, as a dense matrix, so a test can multiply it.
- ``from_rows``, ``from_columns``, ``copy``, ``transpose``, ``add``,
  ``sub``, ``scaled``, ``mul_vec``, ``is_zero`` and ``rank`` are the dense
  matrix helpers that only tests call; the package builds its matrices
  from sparse columns.
- ``alt_veps_matrix`` and ``alt_transfer`` form the alternating grid's
  vertical differential on raw chains: the last-slot projection of each
  generator's alternation, read back in alternating coordinates.  The
  package writes it off the lift table as subset drops
  (``LiftTable.transfer_columns(k, q, "D")``).
- ``alternating_homology_kernel`` reads alternating homology off the raw
  chains restricted to the alternating kernels, where the package reads it
  off the free basis of ``AltBasis``.  ``dual_alternating_homology`` and
  ``alternating_cochain_homology`` are the two models of alternating
  cohomology, the dual of the free basis complex and the alternating
  functionals on raw chains, each read off one reduction of its whole
  cochain complex (``dual_columns``, ``cochain_homology``); no command
  reads cohomology, so they serve as the duality checks of the tests.
"""

from itertools import combinations, compress, permutations, product as iproduct
from operator import add as add_entries, mul

from icss.errors import InvalidSimplex, NotAComplex
from icss.intlinalg import (
    HomologyGroup,
    IntMatrix,
    Subgroup,
    chain_homology,
    column_echelon,
    group_from_presentation,
    invariant_factors,
    kernel_basis,
    restrict,
    solve_columns,
    sparse_columns,
    subgroup_quotient,
)
from icss.alternating import (
    AltBasis,
    alt_basis,
    alt_boundary_matrix,
    alt_columns,
    alternating_kernel,
    complex_degrees,
    kernel_columns,
)
from icss.complexes import (
    MapReport,
    SimplicialComplex,
    boundary_matrix,
    pushforward_matrix,
    sort_sign,
)
from icss.io import MapDocument
from icss.multiplicity import projection_eps
from icss.spectral import DoubleComplex


def from_rows(rows, cols: int | None = None) -> IntMatrix:
    """The matrix with the given rows; ``cols`` is needed when there are none."""
    rows = [list(r) for r in rows]
    if cols is None:
        if not rows:
            raise ValueError("cols required for empty matrix")
        cols = len(rows[0])
    return IntMatrix(len(rows), cols, rows)


def from_columns(columns, rows: int | None = None) -> IntMatrix:
    """The matrix with the given columns; ``rows`` is needed when there are none."""
    columns = [list(c) for c in columns]
    if rows is None:
        if not columns:
            raise ValueError("rows required for empty matrix")
        rows = len(columns[0])
    if any(map(rows.__ne__, map(len, columns))):
        raise ValueError("column length mismatch")
    if not columns:
        return IntMatrix(rows, 0)
    return IntMatrix(rows, len(columns), list(zip(*columns)))


def copy(M: IntMatrix) -> IntMatrix:
    return IntMatrix(M.rows, M.cols, M.data)


def transpose(M: IntMatrix) -> IntMatrix:
    if not M.rows:
        return IntMatrix(M.cols, 0)
    return IntMatrix(M.cols, M.rows, list(zip(*M.data)))


def add(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ValueError("shape mismatch")
    return IntMatrix(A.rows, A.cols, [list(map(add_entries, r, s)) for r, s in zip(A.data, B.data)])


def mul_vec(M: IntMatrix, v) -> list:
    """The product of M with the coordinate vector v."""
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    ks = list(compress(range(M.cols), v))
    xs = [v[k] for k in ks]
    return [sum(map(mul, map(row.__getitem__, ks), xs)) for row in M.data]


def scaled(M: IntMatrix, a: int) -> IntMatrix:
    return IntMatrix(M.rows, M.cols, [[a * x for x in r] for r in M.data])


def sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return add(A, scaled(B, -1))


def is_zero(M: IntMatrix) -> bool:
    return not any(map(any, M.data))


def rank(M: IntMatrix) -> int:
    return len(column_echelon(M, transform=False)[2])


def has_simplex(K, s) -> bool:
    """Whether the vertex tuple s, sorted, is a simplex of K."""
    return tuple(s) in K.simplices(len(s) - 1)


def permutation_sign(perm) -> int:
    """(-1)^(k - c) for a permutation of k slots with c cycles."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def slot_action(Z, perm, n: int) -> IntMatrix:
    """The matrix of permuting the slots of Z by perm on the degree-n
    chains: slot perm[i] of each vertex tuple's image is its slot i, and a
    simplex goes to the sorted simplex of its vertices' images with the
    parity of that sort."""
    images = []
    for t in Z.vertex_tuples:
        moved = [None] * len(perm)
        for i, j in enumerate(perm):
            moved[j] = t[i]
        images.append(Z.tuple_index[tuple(moved)])
    m = Z.n_simplices(n)
    M = IntMatrix(m, m)
    for j, s in enumerate(Z.simplices(n)):
        image = [images[v] for v in s]
        M.data[Z.index(tuple(sorted(image)))][j] += sort_sign(image)
    return M


def alt_matrix(Z, n: int) -> IntMatrix:
    """The alternation operator on the degree-n chains of Z: the sum of
    sign(sigma) * sigma over the slot permutations."""
    m = Z.n_simplices(n)
    total = IntMatrix(m, m)
    for perm in permutations(range(Z.k)):
        total = add(total, scaled(slot_action(Z, perm, n), permutation_sign(perm)))
    return total


def selector(basis) -> IntMatrix:
    """Evaluation on the signed product representatives of an alternating
    basis: row g is ``g.sign`` at g's product simplex, zero elsewhere."""
    Z = basis.Z
    R = IntMatrix(basis.n_gens, Z.n_simplices(basis.n))
    for row, g in zip(R.data, basis.gens):
        row[Z.index(g.canonical)] = g.sign
    return R


def boundary_from_faces(K, n: int) -> IntMatrix:
    """The boundary of the degree-n chains of the complex K: each simplex
    goes to the alternating sum of its faces."""
    rows = K.simplices(n - 1) if n else ()
    position = {face: i for i, face in enumerate(rows)}
    M = IntMatrix(len(rows), K.n_simplices(n))
    for j, s in enumerate(K.simplices(n)):
        for i in range(len(s) if n else 0):
            M.data[position[s[:i] + s[i + 1 :]]][j] += (-1) ** i
    return M


def transfer_from_projections(Z, n: int) -> IntMatrix:
    """(-1)^n times the sum over the slots i of (-1)^(i+1) times the
    pushforward by the validated projection ``projection_eps(Z, i)``."""
    terms = [
        scaled(pushforward_matrix(projection_eps(Z, i), n), (-1) ** (i + 1 + n))
        for i in range(1, Z.k + 1)
    ]
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total


def alt_veps_matrix(basis_src: AltBasis, basis_tgt: AltBasis) -> IntMatrix:
    """Last-slot projection in alternating coordinates, D^k to D^(k-1), with
    the degree sign (-1)^n: the raw pushforward by ``projection_eps(Z, k)``
    of each generator's alternation, read back in the target basis by
    ``AltBasis.coordinates``.  For k = 2 the target basis lives on X."""
    Z, n = basis_src.Z, basis_src.n
    A = basis_tgt.coordinates(
        pushforward_matrix(projection_eps(Z, Z.k), n) @ basis_src.to_raw_matrix
    )
    return A if n % 2 == 0 else scaled(A, -1)


def alt_transfer(tower, k: int, n: int) -> IntMatrix:
    """``alt_veps_matrix`` from D^k to D^(k-1) in degree n, in the tower's
    alternating bases."""
    return alt_veps_matrix(
        alt_basis(tower, tower.D(k), n), alt_basis(tower, tower.D(k - 1), n)
    )


def cell_bijection(Z, q: int) -> IntMatrix:
    """The signed bijection from the W-grid cells of degree q onto the
    degree-q chains of Z = W^k.

    The cells are the pairs (delta, a): delta runs over Y's q-simplices in
    order and a over {0..N-1}^k lexicographically, indexing delta's N
    lifts, found here by scanning X and sorted.  Cell (delta, a) goes to the
    simplex of Z whose j-th vertex is the tuple of the chosen lifts' j-th
    vertices, with the parity of sorting that listing.
    """
    f = Z.f
    over: dict = {}  # Y-simplex -> its lifts, vertices in the order of delta
    for s in f.source.simplices(q):
        lift = tuple(sorted(s, key=lambda v: f.vertex_map[v]))
        over.setdefault(tuple(f.vertex_map[v] for v in lift), []).append(lift)
    rows, columns = Z.n_simplices(q), []
    for delta in f.target.simplices(q):
        for combo in iproduct(sorted(over[delta]), repeat=Z.k):
            listing = [Z.tuple_index[tuple(lift[j] for lift in combo)] for j in range(q + 1)]
            column = [0] * rows
            column[Z.complex.index(sorted(listing))] = sort_sign(listing)
            columns.append(column)
    return from_columns(columns, rows=rows)


def adjacent_swap(k: int, i: int) -> tuple:
    """The permutation of k slots exchanging slots i and i + 1 (0-based)."""
    perm = list(range(k))
    perm[i], perm[i + 1] = i + 1, i
    return tuple(perm)


def is_alternating(Z, n: int, v) -> bool:
    """Every adjacent slot swap negates the chain v (they generate S_k)."""
    for i in range(Z.k - 1):
        if mul_vec(slot_action(Z, adjacent_swap(Z.k, i), n), v) != [-x for x in v]:
            return False
    return True


def bar_sigma(sigma: tuple, j: int, k: int) -> tuple:
    """The permutation of k slots fixing slot j (1-based) that shadows sigma
    on k - 1 slots, so that permuting slots commutes with forgetting slot j."""
    j0 = j - 1

    def d(i):
        return i if i < j0 else i + 1

    perm = []
    for i in range(k):
        if i < j0:
            perm.append(d(sigma[i]))
        elif i == j0:
            perm.append(j0)
        else:
            perm.append(d(sigma[i - 1]))
    return tuple(perm)


def preimage_subgroup(M: IntMatrix, S: Subgroup) -> IntMatrix:
    """Columns generating {x : M @ x lies in S}."""
    stacked = M.hstack(scaled(S.basis, -1))
    K = kernel_basis(stacked)
    return IntMatrix(M.cols, K.cols, K.data[: M.cols])


def d_h(dc, p: int, q: int) -> IntMatrix:
    """The horizontal block of cell (p, q) of dc, dense, from its columns."""
    return IntMatrix.from_sparse(dc.h_columns(p, q), dc.rank(p, q - 1))


def d_v(dc, p: int, q: int) -> IntMatrix:
    """The vertical block of cell (p, q) of dc, dense, from its columns."""
    return IntMatrix.from_sparse(dc.v_columns(p, q), dc.rank(p - 1, q))


def rung_block(rung, n: int) -> IntMatrix:
    """The differential of a reduced complex ``(D, kept)``, as
    ``reduce_complex`` and ``SpectralSequence.rung`` give it, from degree n
    to n - 1 as a dense matrix: zero outside the degrees it has."""
    D, kept = rung

    def rank(m):
        return len(kept[m]) if 0 <= m < len(kept) else 0

    if 0 <= n < len(D):
        return IntMatrix.from_sparse(D[n], rank(n - 1))
    return IntMatrix(rank(n - 1), rank(n))


def d0_block(ss, p: int, q: int) -> IntMatrix:
    """The page-zero differential out of cell (p, q): the block inside the
    filtration level."""
    return d_h(ss.dc, p, q) if ss.filtration == "columns" else d_v(ss.dc, p, q)


def d1_block(ss, p: int, q: int) -> IntMatrix:
    """The block out of cell (p, q) that lowers the filtration level by one."""
    return d_v(ss.dc, p, q) if ss.filtration == "columns" else d_h(ss.dc, p, q)


def page_one_gens(ss, p: int, q: int) -> IntMatrix:
    """Cycle generators of cell (p, q) on page one: the kernel of page zero's
    differential, with no cell outside the grid."""
    if p < 0 or q < 0:
        return IntMatrix(0, 0)
    return kernel_basis(d0_block(ss, p, q))


def d1_matrix(ss, p: int, q: int) -> IntMatrix:
    """Page one's differential out of cell (p, q), from its cycle generators
    to those of the cell one level down."""
    tp, tq = (p - 1, q) if ss.filtration == "columns" else (p, q - 1)
    out = solve_columns(page_one_gens(ss, tp, tq), d1_block(ss, p, q) @ page_one_gens(ss, p, q))
    if out is None:
        raise NotAComplex("page-one differential image is not a cycle")
    return out


def d0_rels(ss, p: int, q: int) -> IntMatrix:
    """Page-zero boundaries at cell (p, q), in its page-one cycle basis."""
    up = d0_block(ss, p, q + 1) if ss.filtration == "columns" else d0_block(ss, p + 1, q)
    rels = solve_columns(page_one_gens(ss, p, q), up)
    if rels is None:
        raise NotAComplex("page-zero boundary is not a cycle")
    return rels


def page_one_homology(ss, p: int, q: int):
    """Homology of (page 1, its differential) at cell (p, q), computed from
    the presented page-one groups: every kernel, image and differential is
    built here from the grid's dense blocks, none of it read off the
    sequence's reductions."""
    gens = page_one_gens(ss, p, q)
    out = d1_matrix(ss, p, q)
    if ss.filtration == "columns":
        sp, sq, tp, tq = p + 1, q, p - 1, q
    else:
        sp, sq, tp, tq = p, q + 1, p, q - 1
    if ss.dc.rank(sp, sq):
        incoming = d1_matrix(ss, sp, sq)
    else:
        incoming = IntMatrix(gens.cols, 0)
    tgt_rels = d0_rels(ss, tp, tq) if tp >= 0 and tq >= 0 else IntMatrix(0, 0)
    # cycles: generator combinations whose page-one image is a relation
    cyc = Subgroup(gens.cols, preimage_subgroup(out, Subgroup(out.rows, tgt_rels)))
    bnd = Subgroup(gens.cols, incoming.hstack(d0_rels(ss, p, q)))
    return subgroup_quotient(cyc, bnd)


def w_grid(tower, p_max: int) -> DoubleComplex:
    """The W-chain grid of ``tower.f`` on rows 0..dim Y and columns
    0..p_max, its blocks read off ``tower.lifts``."""
    lifts, q_max = tower.lifts, tower.f.target.dim
    ranks, h_cols, v_cols = {}, {}, {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            ranks[(p, q)] = lifts.n_cells(p + 1, q)
            if q >= 1:
                h_cols[(p, q)] = lifts.face_columns(p + 1, q)
            if p >= 1:
                v_cols[(p, q)] = lifts.transfer_columns(p + 1, q)
    return DoubleComplex("W", p_max, q_max, ranks, h_cols, v_cols, tower=tower)


class GenericSequence:
    """The spectral sequence of ``ss`` (its double complex and filtration)
    by the generic formula on the dense, unreduced total complex."""

    def __init__(self, ss):
        self.dc = ss.dc
        self.columns = ss.filtration == "columns"
        self.n_top = self.dc.p_max + self.dc.q_max
        self.offsets, self.ranks = {}, {}
        for n in range(self.n_top + 1):
            off, total = {}, 0
            for p in range(max(0, n - self.dc.q_max), min(self.dc.p_max, n) + 1):
                off[(p, n - p)] = total
                total += self.dc.rank(p, n - p)
            self.offsets[n], self.ranks[n] = off, total
        self._D, self._cycles, self._pages = {}, {}, {}

    def tot_rank(self, n):
        return self.ranks.get(n, 0)

    def D(self, n):
        """The total differential from degree n to n-1, assembled densely."""
        if n not in self._D:
            M = IntMatrix(self.tot_rank(n - 1), self.tot_rank(n))
            for (p, q), co in self.offsets.get(n, {}).items():
                for target, block in (
                    ((p, q - 1), d_h(self.dc, p, q)),
                    ((p - 1, q), d_v(self.dc, p, q)),
                ):
                    ro = self.offsets.get(n - 1, {}).get(target)
                    if ro is None:
                        continue
                    for i, row in enumerate(block.data):
                        for j, a in enumerate(row):
                            M.data[ro + i][co + j] += a
            self._D[n] = M
        return self._D[n]

    def levels(self, n):
        return {(p if self.columns else q) for p, q in self.offsets.get(n, {})}

    def cycle_key(self, n, s, r):
        """(n, a, b) naming the level-s elements of degree n whose boundary
        drops by at least r levels: columns of level <= a whose boundary has
        no entry above level b, with a and b clipped to the levels present."""
        r = min(r, s + 1)  # no level lies below 0
        a = min(s, max(self.levels(n), default=-1))
        if a < 0:
            return (n, -1, -1)
        return (n, a, min(s - r, max(self.levels(n - 1), default=-1)))

    def cycles(self, key):
        """Basis (columns) of the cycle group named by ``cycle_key``."""
        if key not in self._cycles:
            n, a, b = key
            cols, rows = [], []
            for (p, q), off in self.offsets.get(n, {}).items():
                if (p if self.columns else q) <= a:
                    cols.extend(range(off, off + self.dc.rank(p, q)))
            for (p, q), off in self.offsets.get(n - 1, {}).items():
                if (p if self.columns else q) > b:
                    rows.extend(range(off, off + self.dc.rank(p, q)))
            D = self.D(n)
            restricted = IntMatrix(
                len(rows), len(cols), [[D.data[i][j] for j in cols] for i in rows]
            )
            K = kernel_basis(restricted)
            emb = IntMatrix(self.tot_rank(n), K.cols)
            for local, coord in enumerate(cols):
                emb.data[coord] = K.data[local]
            self._cycles[key] = emb
        return self._cycles[key]

    def page_group(self, r, s, t):
        """Z^r_s / (Z^{r-1}_{s-1} + D Z^{r-1}_{s+r-1}) for r >= 1."""
        n = s + t
        if s < 0 or t < 0 or n > self.n_top:
            return HomologyGroup(0)
        keys = (
            self.cycle_key(n, s, r),
            self.cycle_key(n, s - 1, r - 1),
            self.cycle_key(n + 1, s + r - 1, r - 1),
        )
        if keys not in self._pages:
            Z, below, up = map(self.cycles, keys)
            self._pages[keys] = quotient(Z, below.hstack(self.D(n + 1) @ up))
        return self._pages[keys]

    def infinity_group(self, s, t):
        return self.page_group(s + t + 3, s, t)

    def graded(self, n):
        """F_s H_n / F_{s-1} H_n for each filtration level s of degree n."""
        boundaries = Subgroup(self.tot_rank(n), self.D(n + 1))
        out, prev = [], boundaries
        for s in range(max(self.levels(n), default=-1) + 1):
            cyc = self.cycles(self.cycle_key(n, s, s + 1))
            S_s = Subgroup(self.tot_rank(n), cyc).sum(boundaries)
            out.append(subgroup_quotient(S_s, prev))
            prev = S_s
        return out

    def total_homology(self, n):
        """ker D(n) / im D(n+1) by kernel, solve and Smith, unreduced."""
        return quotient(kernel_basis(self.D(n)), self.D(n + 1))


def quotient(A: IntMatrix, B: IntMatrix):
    """The group span(A) / span(B), for independent columns A whose span
    holds every column of B."""
    rel = solve_columns(A, B)
    if rel is None:
        raise NotAComplex("the relations do not lie in the group")
    return group_from_presentation(A.cols, invariant_factors(rel))


def solve(M: IntMatrix, target) -> list | None:
    """An integral x with M @ x == target, or None if there is none."""
    X = solve_columns(M, from_columns([target], rows=M.rows))
    return None if X is None else X.column(0)


def contains(S: Subgroup, vec) -> bool:
    """Whether the vector vec lies in the subgroup S."""
    return solve(S.basis, vec) is not None


def contains_subgroup(S: Subgroup, other: Subgroup) -> bool:
    """Whether the subgroup other lies in the subgroup S."""
    return solve_columns(S.basis, other.basis) is not None


def homology_pair(d_n: IntMatrix, d_next: IntMatrix):
    """ker d_n / im d_next by kernel, solve and Smith on the dense pair;
    raises NotAComplex unless d_n @ d_next == 0."""
    if d_n.cols != d_next.rows:
        raise ValueError("shape mismatch: d_n.cols must equal d_next.rows")
    if not is_zero(d_n @ d_next):
        raise NotAComplex("d_n @ d_next != 0")
    return quotient(kernel_basis(d_n), d_next)


def pair_homology_of_complex(X, n: int):
    """H_n(X) off the boundaries into and out of degree n."""
    d_next = boundary_matrix(X, n + 1) if n < X.dim else IntMatrix(X.n_simplices(n), 0)
    return homology_pair(boundary_matrix(X, n), d_next)


def pair_alt_differentials(Z, n: int) -> tuple:
    """The alternating boundaries into and out of degree n of D^k, in new
    free alternating bases."""
    basis_n = AltBasis(Z, n)
    d_n = alt_boundary_matrix(basis_n, AltBasis(Z, n - 1) if n else None)
    return d_n, alt_boundary_matrix(AltBasis(Z, n + 1), basis_n)


def pair_alternating_homology(Z, n: int):
    """Alternating homology of D^k in degree n, through its free basis."""
    return homology_pair(*pair_alt_differentials(Z, n))


def pair_dual_alternating_homology(Z, n: int):
    """Degree-n cohomology of the dual of the free alternating complex: the
    transposed pair, in the opposite order."""
    d_n, d_next = pair_alt_differentials(Z, n)
    return homology_pair(transpose(d_next), transpose(d_n))


def pair_kernel_differentials(Z, n: int, dual: bool) -> tuple:
    """The raw boundaries into and out of degree n restricted to the
    alternating kernels (or their transposes, the coboundaries out of and
    into degree n), 0 above dim Z."""
    A = {m: alternating_kernel(Z, m) for m in (n - 1, n, n + 1) if 0 <= m <= Z.dim}

    def raw(m):  # the map between degrees m and m - 1, in its direction
        d = boundary_matrix(Z.complex, m)
        if dual:
            return restrict(transpose(d), A[m - 1], A[m])
        return restrict(d, A[m], A[m - 1])

    width = A[n].cols
    into = raw(n) if n >= 1 else None
    out = raw(n + 1) if n + 1 <= Z.dim else None
    if dual:  # the coboundary out of degree n comes first
        into, out = out, into
    first = into if into is not None else IntMatrix(0, width)
    return first, out if out is not None else IntMatrix(width, 0)


def pair_alternating_homology_kernel(Z, n: int):
    """Alternating homology of W^k or D^k in degree n, inside the raw chains."""
    if n > Z.dim:
        return HomologyGroup(0)
    return homology_pair(*pair_kernel_differentials(Z, n, dual=False))


def pair_alternating_cochain_homology(Z, n: int):
    """Degree-n cohomology of the alternating functionals on raw chains."""
    if n > Z.dim:
        return HomologyGroup(0)
    return homology_pair(*pair_kernel_differentials(Z, n, dual=True))


def alternating_homology_kernel(Z, n: int) -> HomologyGroup:
    """Homology of the alternating subcomplex cut out inside the raw chains
    of W^k or D^k, off one reduction of the complex up to degree n + 1."""
    kernels = [alternating_kernel(Z, m) for m in complex_degrees(Z, n)]
    return chain_homology(kernel_columns(Z, kernels), [n])[n]


def dual_columns(columns: list) -> list:
    """The cochain complex dual to the chain complex with boundary columns
    ``columns``: entry m holds the sparse columns of the coboundary out of
    degree m, the transpose of the boundary out of m + 1 (zero at the top)."""
    out = [[{} for _ in cells] for cells in columns]
    for m in range(1, len(columns)):
        for j, col in enumerate(columns[m]):
            for i, a in col.items():
                out[m - 1][i][j] = a
    return out


def cochain_homology(columns: list, degrees) -> dict:
    """{n: H^n} for each n in ``degrees`` of the cochain complex whose
    coboundary from degree n to n + 1 has the sparse columns ``columns[n]``
    (one empty dict per cell of the last degree); the dicts are consumed.
    Read from the last degree down, the cochain complex is a chain complex,
    and H^n is its homology in degree top - n."""
    top = len(columns) - 1
    groups = chain_homology(columns[::-1], [top - n for n in degrees])
    return {n: groups[top - n] for n in degrees}


def alternating_cochain_homology(Z, n: int) -> HomologyGroup:
    """Degree-n cohomology of the alternating functionals on the raw chains.
    The slot permutations act by signed involutions, so the transposed swap
    conditions are the chain-level ones: ``alternating_kernel`` is also a
    basis of the alternating functionals."""
    kernels = [alternating_kernel(Z, m) for m in complex_degrees(Z, n)]
    last = len(kernels) - 1
    columns = [
        sparse_columns(restrict(transpose(boundary_matrix(Z.complex, m + 1)), A, kernels[m + 1]))
        if m < last
        else [{} for _ in range(A.cols)]
        for m, A in enumerate(kernels)
    ]
    return cochain_homology(columns, [n])[n]


def dual_alternating_homology(Z, n: int) -> HomologyGroup:
    """Degree-n cohomology of the dual of the free alternating basis complex."""
    bases = [AltBasis(Z, m) for m in complex_degrees(Z, n)]
    return cochain_homology(dual_columns(alt_columns(bases)), [n])[n]


def build_complex_by_closure(maximal_simplices, labels=None) -> SimplicialComplex:
    """Face closure of the given simplices as one set, grouped by dimension."""
    if labels is not None:
        lab_ix = {lab: i for i, lab in enumerate(labels)}
        maximal_simplices = [tuple(lab_ix[v] for v in s) for s in maximal_simplices]
        n_vertices = len(labels)
    else:
        n_vertices = 1 + max((max(s) for s in maximal_simplices if s), default=-1)
    for s in maximal_simplices:
        if not s:
            raise InvalidSimplex("empty simplex")
        if len(set(s)) != len(s):
            raise InvalidSimplex(f"repeated vertex in simplex {s!r}")
    closed = set()
    for s in maximal_simplices:
        s = tuple(sorted(s))
        for d in range(1, len(s) + 1):
            closed.update(combinations(s, d))
    if labels is not None:
        closed.update((v,) for v in range(n_vertices))
    by_dim: dict = {}
    for s in closed:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return SimplicialComplex(n_vertices, by_dim, labels=labels)


def maximal_by_facets(K) -> list:
    """Simplices of K that are no facet of another, by (dimension, vertices)."""
    facets = {s[:i] + s[i + 1 :] for s in K.all_simplices() for i in range(len(s))}
    return sorted((s for s in K.all_simplices() if s not in facets), key=lambda s: (len(s), s))


def canonical_by_closure(doc) -> MapDocument:
    """The canonical form read off each side's built complex."""

    def canon_side(vertices, simplices):
        order = {v: i for i, v in enumerate(vertices)}
        complex_ = build_complex_by_closure(simplices, labels=vertices)
        out = [[vertices[v] for v in s] for s in maximal_by_facets(complex_)]
        return sorted(out, key=lambda s: (len(s), [order[v] for v in s]))

    return MapDocument(
        list(doc.x_vertices),
        canon_side(doc.x_vertices, doc.x_simplices),
        list(doc.y_vertices),
        canon_side(doc.y_vertices, doc.y_simplices),
        {v: doc.vertex_map[v] for v in doc.x_vertices},
        dict(doc.metadata),
    )


def validate_map_by_walk(vertex_map, X, Y) -> MapReport:
    """validate_map walking every simplex of X, then every simplex of Y."""
    failures = []
    simplicial = finite_to_one = True
    hit = set()
    for s in X.all_simplices():
        image = tuple(sorted({vertex_map[v] for v in s}))
        if len(image) != len(s):
            finite_to_one = False
            failures.append(("collapsed", s))
        if has_simplex(Y, image):
            hit.add(image)
        else:
            simplicial = False
            failures.append(("not-a-simplex", s))
    missed = [("missed", s) for s in Y.all_simplices() if s not in hit]
    failures.extend(missed)
    return MapReport(simplicial, finite_to_one, not missed, tuple(failures))
