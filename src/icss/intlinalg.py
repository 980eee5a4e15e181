"""Exact linear algebra over the integers.

Everything downstream (boundary maps, alternation conditions, spectral
sequence pages) reduces to Smith/Hermite normal forms, integer kernels,
integral solves and subgroup quotients, all computed here with Python's
arbitrary-precision ints, after a chain complex has been cut down by
cancelling its unit pairs.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import itemgetter

from .errors import NotAComplex, NotASubgroup


class IntMatrix:
    """Integer matrix with explicit shape (so 0xN and Nx0 make sense).

    Storage is dense rows of Python ints.  Products and ``sparse_columns``
    find the nonzeros of a row by C-level iteration (``itertools.compress``,
    ``map``), so they pay Python work per nonzero entry only; elimination
    steps skip zero entries.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(map(cols.__ne__, map(len, data))):
                raise ValueError("shape mismatch")
            self.data = list(map(list, data))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        m = IntMatrix(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @staticmethod
    def from_sparse(cols_list, rows: int) -> "IntMatrix":
        """The dense form of {row: entry} columns (``sparse_columns``'s form)."""
        M = IntMatrix(rows, len(cols_list))
        for j, col in enumerate(cols_list):
            for i, a in col.items():
                M.data[i][j] = a
        return M

    def column(self, j: int) -> list:
        return list(map(itemgetter(j), self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        out = IntMatrix(self.rows, other.cols)
        # (column, entry) pairs of the nonzeros in each row of other
        cols = range(other.cols)
        support = [[(j, row[j]) for j in compress(cols, row)] for row in other.data]
        inner = range(self.cols)
        for arow, orow in zip(self.data, out.data):
            for k in compress(inner, arow):
                a = arow[k]
                for j, b in support[k]:
                    orow[j] += a * b
        return out

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            [self.data[i] + other.data[i] for i in range(self.rows)],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def _find_pivot(S, t: int, m: int, n: int):
    """Smallest-|entry| nonzero pivot in the trailing block, row-major tiebreak."""
    best = None
    for i in range(t, m):
        row = S[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _smith(M: IntMatrix, transforms: bool):
    """Smith elimination of M: (U, S, V) with U @ M @ V == S, or (None, S,
    None) when ``transforms`` is false, so that no step touches U or V."""
    m, n = M.rows, M.cols
    S = [list(r) for r in M.data]
    U = IntMatrix.identity(m).data if transforms else None
    V = IntMatrix.identity(n).data if transforms else None
    # the matrices row steps act on, with their widths, and the rows column
    # steps act on (rows change places but are never replaced)
    row_mats = [(S, range(n)), (U, range(m))] if transforms else [(S, range(n))]
    col_mats = S + V if transforms else S

    def swap_rows(i, j):
        for A, _ in row_mats:
            A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for r in col_mats:
            r[i], r[j] = r[j], r[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j, over the nonzero entries of row_j
        for A, width in row_mats:
            Ai, Aj = A[i], A[j]
            for c in compress(width, Aj):
                Ai[c] -= q * Aj[c]

    def col_sub(i, j, q):
        # col_i -= q * col_j, over the rows where col_j is nonzero
        for r in col_mats:
            if r[j]:
                r[i] -= q * r[j]

    def neg_row(i):
        for A, _ in row_mats:
            A[i][:] = [-x for x in A[i]]

    t = 0
    while True:
        piv = _find_pivot(S, t, m, n)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if S[t][t] < 0:
            neg_row(t)
        while True:
            # clear column t
            restart = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_sub(i, t, q)
                    if S[i][t]:
                        swap_rows(t, i)
                        if S[t][t] < 0:
                            neg_row(t)
                        restart = True
                        break
            if restart:
                continue
            # clear row t
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_sub(j, t, q)
                    if S[t][j]:
                        # gcd step: the remainder becomes the new, smaller pivot
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # divisibility: pivot must divide the whole trailing block (a unit
            # pivot does, so its block is not scanned)
            p = S[t][t]
            bad = None
            for i in range(t + 1, m if p > 1 else t + 1):
                row = S[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)  # row_t += row_bad
        t += 1

    S = IntMatrix(m, n, S)
    if not transforms:
        return None, S, None
    return IntMatrix(m, m, U), S, IntMatrix(n, n, V)


def smith_normal_form(M: IntMatrix):
    """Return (U, S, V) with U @ M @ V == S, U and V unimodular, S diagonal
    with nonnegative entries in a divisibility chain d1 | d2 | ...
    """
    return _smith(M, True)


def invariant_factors(M: IntMatrix) -> list:
    """Nonzero diagonal entries of the Smith form of M, from an elimination
    that carries S alone."""
    S = _smith(M, False)[1].data
    return [S[t][t] for t in range(min(M.rows, M.cols)) if S[t][t]]


def column_echelon(M: IntMatrix, reduce: bool = False, transform: bool = True):
    """Integer column echelon form.

    Returns (H, T, pivots) with H == M @ T, T unimodular, and pivots a list of
    (row, col) pairs with strictly increasing rows and cols 0,1,2,...  In each
    pivot row the entries right of the pivot are zero and the pivot is positive.
    With reduce=True the entries left of each pivot are reduced into [0, pivot)
    (column-style Hermite normal form, canonical for a given column span).
    With transform=False, T is not carried and None is returned in its
    place: the dense n x n transform is most of the memory and half the
    column operations when M has many columns, and a span or a rank does
    not need it.
    """
    m, n = M.rows, M.cols
    H = [list(r) for r in M.data]
    T = IntMatrix.identity(n).data if transform else []  # no rows: nothing to update

    # Column c of H, and every column right of it, is zero above row r, so
    # the column operations on H start at row r.
    def swap_cols(i, j, top):
        for row in islice(H, top, None):
            row[i], row[j] = row[j], row[i]
        for row in T:
            row[i], row[j] = row[j], row[i]

    def neg_col(i, top):
        for row in chain(islice(H, top, None), T):
            row[i] = -row[i]

    def support(j, top):
        # the rows of H (from row top on) and of T with a nonzero in column j
        rows = H[top:] + T
        return list(compress(rows, map(itemgetter(j), rows)))

    def col_sub(i, j, q, rows):
        # col_i -= q * col_j, over the support rows of col_j
        for row in rows:
            row[i] -= q * row[j]

    pivots = []
    c = 0
    for r in range(m):
        if c >= n:
            break
        # gcd the active columns into column c using row r
        while True:
            best = None
            for j in range(c, n):
                v = H[r][j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, j)
            if best is None:
                break
            if best[1] != c:
                swap_cols(c, best[1], r)
            if H[r][c] < 0:
                neg_col(c, r)
            done = True
            rows = None
            for j in range(c + 1, n):
                if H[r][j]:
                    q = H[r][j] // H[r][c]
                    rows = rows or support(c, r)
                    col_sub(j, c, q, rows)
                    if H[r][j]:
                        done = False
            if done:
                break
        if c < n and H[r][c]:
            pivots.append((r, c))
            c += 1

    if reduce:
        for r, c in pivots:
            p = H[r][c]
            rows = None
            for j in range(c):
                q = H[r][j] // p
                if q:
                    rows = rows or support(c, r)
                    col_sub(j, c, q, rows)

    return IntMatrix(m, n, H), IntMatrix(n, n, T) if transform else None, pivots


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Columns generate the integer kernel of M (a saturated lattice basis)."""
    H, T, pivots = column_echelon(M)
    k = len(pivots)  # the pivot columns are 0, 1, ..., k-1
    return IntMatrix(M.cols, M.cols - k, [row[k:] for row in T.data])


def _back_substitute(H: IntMatrix, pivots: list, B: IntMatrix) -> IntMatrix | None:
    """Y with H @ Y == B for a column echelon form H with its pivots, or
    None if some column of B is not an integral combination of H's."""
    h = H.data
    # column c of H is zero above its pivot row r
    steps = [
        (r, c, h[r][c], [(i, h[i][c]) for i in range(r, H.rows) if h[i][c]])
        for r, c in pivots
    ]
    Y = IntMatrix(H.cols, B.cols)
    for j in range(B.cols):
        resid = B.column(j)
        for r, c, p, entries in steps:
            q, rem = divmod(resid[r], p)
            if rem:
                return None
            if q:
                Y.data[c][j] = q
                for i, a in entries:
                    resid[i] -= q * a
        if any(resid):
            return None
    return Y


def solve_columns(M: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """An integral X with M @ X == B, or None if some column of B has no
    integral solution.  M is echeloned once for all columns of B."""
    if B.rows != M.rows:
        raise ValueError("row count mismatch")
    H, T, pivots = column_echelon(M)
    Y = _back_substitute(H, pivots, B)
    return None if Y is None else T @ Y


def solution_factors(M: IntMatrix, B: IntMatrix) -> list | None:
    """The invariant factors of ``solve_columns(M, B)``, or None if it has
    no solution.  That solution is T @ Y for the unimodular echelon
    transform T, so its factors are those of Y, and neither T nor the
    product is formed."""
    if B.rows != M.rows:
        raise ValueError("row count mismatch")
    H, _, pivots = column_echelon(M, transform=False)
    Y = _back_substitute(H, pivots, B)
    return None if Y is None else invariant_factors(Y)


def restrict(M: IntMatrix, src: IntMatrix, tgt: IntMatrix) -> IntMatrix:
    """Matrix of M from the column span of src to the column span of tgt;
    raises NotASubgroup unless M carries the first span into the second."""
    X = solve_columns(tgt, M @ src)
    if X is None:
        raise NotASubgroup("map does not carry the source span into the target span")
    return X


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group in invariant-factor form."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def group_from_presentation(ambient_rank: int, relation_factors) -> HomologyGroup:
    """Z^ambient_rank modulo a subgroup with the given invariant factors."""
    tor = tuple(d for d in relation_factors if d >= 2)
    return HomologyGroup(ambient_rank - len(relation_factors), tor)


def hermite_basis(M: IntMatrix) -> IntMatrix:
    """The nonzero columns of the reduced column Hermite form of M: a basis
    of the column span, canonical for it."""
    H, _, pivots = column_echelon(M, reduce=True, transform=False)
    k = len(pivots)  # the pivot columns are 0, 1, ..., k-1
    return IntMatrix(M.rows, k, [row[:k] for row in H.data])


class Subgroup:
    """Subgroup of Z^ambient_rank with a basis of integer columns.

    ``Subgroup(ambient, generators)`` echelons a generator set, which may be
    dependent, into its reduced column Hermite form, canonical for the span.
    ``Subgroup.of_basis`` keeps independent columns, such as a kernel basis,
    as they are; their canonical form is computed only if the subgroup is
    compared or hashed.  Equality compares canonical forms, so it is exact
    whatever bases the two subgroups hold.
    """

    __slots__ = ("ambient_rank", "basis", "_hnf")

    def __init__(self, ambient_rank: int, generators: IntMatrix):
        if generators.rows != ambient_rank:
            raise ValueError("generator length mismatch")
        self.ambient_rank = ambient_rank
        self.basis = self._hnf = hermite_basis(generators)

    @staticmethod
    def of_basis(ambient_rank: int, basis: IntMatrix) -> "Subgroup":
        """The span of the independent columns of ``basis``, kept as its basis."""
        if basis.rows != ambient_rank:
            raise ValueError("generator length mismatch")
        sub = object.__new__(Subgroup)
        sub.ambient_rank, sub.basis, sub._hnf = ambient_rank, basis, None
        return sub

    @staticmethod
    def zero(ambient_rank: int) -> "Subgroup":
        return Subgroup.of_basis(ambient_rank, IntMatrix(ambient_rank, 0))

    @staticmethod
    def full(ambient_rank: int) -> "Subgroup":
        return Subgroup.of_basis(ambient_rank, IntMatrix.identity(ambient_rank))

    @property
    def rank(self) -> int:
        return self.basis.cols

    def sum(self, other: "Subgroup") -> "Subgroup":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient mismatch")
        return Subgroup(self.ambient_rank, self.basis.hstack(other.basis))

    def _canonical(self) -> IntMatrix:
        """``hermite_basis`` of the basis, made on first use (the basis of a
        generator set is already in that form)."""
        if self._hnf is None:
            self._hnf = hermite_basis(self.basis)
        return self._hnf

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.ambient_rank == other.ambient_rank
            and self._canonical() == other._canonical()
        )

    def __hash__(self):
        return hash((self.ambient_rank, self._canonical()))

    def __repr__(self):
        return f"Subgroup(rank {self.rank} of Z^{self.ambient_rank})"


def subgroup_quotient(A: Subgroup, B: Subgroup) -> HomologyGroup:
    """Invariant factors of A / B; raises NotASubgroup unless B is inside A."""
    if A.ambient_rank != B.ambient_rank:
        raise ValueError("ambient mismatch")
    rel = solution_factors(A.basis, B.basis)
    if rel is None:
        raise NotASubgroup("B is not contained in A")
    return group_from_presentation(A.basis.cols, rel)


def sparse_columns(M: IntMatrix) -> list:
    """The nonzero entries of each column of M, as {row: entry} dicts with
    the rows in increasing order."""
    cols = [{} for _ in range(M.cols)]
    width = range(M.cols)
    for i, row in enumerate(M.data):
        for j in compress(width, row):
            cols[j][i] = row[j]
    return cols


def compose(a_cols: list, b_cols: list) -> list:
    """The columns of A @ B as {row: entry} dicts without zero entries,
    from those of A and of B (as ``sparse_columns`` gives them)."""
    out = []
    for b in b_cols:
        col: dict = {}
        for k, x in b.items():
            for i, a in a_cols[k].items():
                col[i] = col.get(i, 0) + x * a
        out.append({i: v for i, v in col.items() if v})
    return out


class Differentials:
    """The differentials of a chain complex of free groups, held as sparse
    columns: ``columns[n]`` are the {row: entry} columns of the map from
    degree n to degree n-1 (one empty dict per cell of degree 0).  ``D[n]``
    is that map as an ``IntMatrix``, made the first time it is read."""

    __slots__ = ("columns", "_dense")

    def __init__(self, columns: list):
        self.columns = columns
        self._dense = [None] * len(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, n: int) -> IntMatrix:
        if not 0 <= n < len(self.columns):
            raise IndexError(n)
        if self._dense[n] is None:
            rows = len(self.columns[n - 1]) if n else 0
            self._dense[n] = IntMatrix.from_sparse(self.columns[n], rows)
        return self._dense[n]

    def is_zero(self, n: int) -> bool:
        return not any(self.columns[n])


def reduce_complex(columns: list, levels: list, gap: int = 0) -> tuple:
    """Cancel the admissible unit pairs of a filtered chain complex of free
    groups.

    ``columns[n][j]`` is the boundary of cell j of degree n, a dict
    {cell of degree n-1: nonzero entry} (the dicts of degree 0 are empty),
    and ``levels[n][j]`` is the filtration level of that cell; no boundary
    entry may run from a cell to one of a higher level.  ``columns`` and
    its dicts are consumed: each is freed as soon as no step reads it, so
    the reduction holds little more than its input at any time.

    From the top degree down, each cell sigma still present is paired with
    a cell tau of its boundary d(sigma) when the pair is admissible at
    ``gap``, that is when

    1. the entry phi of tau in d(sigma) is +-1,
    2. 0 <= level(sigma) - level(tau) <= gap,
    3. every other entry of d(sigma) lies at a level <= level(tau), and
    4. every other cell whose boundary holds tau lies at a level
       >= level(sigma);

    among several, the tau in the fewest other boundaries is taken.  The
    pair is eliminated: writing d_n = [[phi, delta], [gamma, eps]] with
    sigma and tau split off, d_n becomes eps - gamma phi^-1 delta, d_{n+1}
    loses the row of sigma and d_{n-1} the column of tau.

    Lemma.  The projection f (tau -> tau - phi d(sigma), sigma -> 0) and
    the inclusion g (x -> x - phi [d(x) : tau] sigma) are chain maps with
    f g = 1 and g f - 1 = d h + h d, where h(tau) = -phi sigma (algebraic
    discrete Morse reduction).  Condition 3 makes f filtered, condition 4
    makes g filtered, and with them the reduced differential f d g; h
    raises the level by level(sigma) - level(tau) <= gap.  So f and g are
    gap-homotopy equivalences: they induce isomorphisms on every page
    r >= gap + 1 of the filtration spectral sequence, on its limit and on
    the filtered homology (Cirici, Egas Santander, Livernet and Whitehouse,
    "Model category structures and spectral sequences", 2020; Romero,
    Rubio and Sergeraert, "Computing spectral sequences", JSC 2006).  At
    gap 0 conditions 3 and 4 follow from condition 2 and the filtration,
    so every unit pair of equal level is cancelled and every page r >= 1
    is kept.  Conditions 3 and 4 are needed from gap 1 on: if
    d(sigma) = 2 rho + tau with sigma and rho at level 1 and tau at level
    0, page two is Z/2 at level 1 plus Z at level 0, but cancelling
    (sigma, tau) would leave rho alone and read Z.

    Returns ``(D, kept)``: ``D`` holds the reduced differentials as
    ``Differentials`` (sparse columns, dense on read) and ``kept[n]`` the
    levels of the surviving degree-n cells, in their original order.
    """
    top = len(columns) - 1
    # the columns holding each cell, as lists: a cell lies in few
    # boundaries, and a list of a few entries is a quarter of a set's size
    rows = [[[] for _ in lev] for lev in levels]
    for n in range(1, top + 1):
        for j, col in enumerate(columns[n]):
            for i in col:
                rows[n - 1][i].append(j)
    alive = [[True] * len(lev) for lev in levels]
    for n in range(top, 0, -1):
        cols, below = columns[n], rows[n - 1]
        level, level_below = levels[n], levels[n - 1]
        for sigma, dsig in enumerate(cols):
            if not alive[n][sigma] or not dsig:
                continue
            # conditions 2 and 3: tau lies at the top level of d(sigma)
            lev = level[sigma]
            head = max(map(level_below.__getitem__, dsig))
            if lev - head > gap:
                continue
            tau = None
            for i, a in dsig.items():
                if (a == 1 or a == -1) and level_below[i] == head:
                    if tau is None or len(below[i]) < len(below[tau]):
                        # condition 4, which the filtration gives at equal levels
                        if head == lev or all(level[x] >= lev for x in below[i]):
                            tau = i
            if tau is None:
                continue
            phi = dsig[tau]
            for x in list(below[tau]):
                if x == sigma:
                    continue
                dx = cols[x]
                q = dx[tau] * phi  # phi is its own inverse
                for i, a in dsig.items():
                    v = dx.get(i, 0) - q * a
                    if v:
                        if i not in dx:
                            below[i].append(x)
                        dx[i] = v
                    else:
                        del dx[i]
                        below[i].remove(x)
            for i in dsig:
                below[i].remove(sigma)
            if n < top:
                for z in rows[n][sigma]:
                    del columns[n + 1][z][sigma]
            if n > 1:
                for i in columns[n - 1][tau]:
                    rows[n - 2][i].remove(tau)
            alive[n][sigma] = alive[n - 1][tau] = False
            cols[sigma] = columns[n - 1][tau] = None  # free what no step reads
    del rows
    survivors = [[j for j, a in enumerate(al) if a] for al in alive]
    D = []
    for n, cells in enumerate(survivors):
        pos = {j: c for c, j in enumerate(survivors[n - 1])} if n else {}
        D.append([{pos[i]: a for i, a in columns[n][j].items()} for j in cells])
        columns[n] = None  # each degree's input is freed once renumbered
    kept = [[levels[n][j] for j in cells] for n, cells in enumerate(survivors)]
    return Differentials(D), kept


def chain_homology(columns: list, degrees) -> dict:
    """{n: H_n} for each n in ``degrees`` of the chain complex whose degree-n
    boundary has the sparse columns ``columns[n]`` (one empty dict per cell
    of degree 0, and no cells below 0 or above the last degree, where H_n
    is 0); the dicts are consumed.

    Each adjacent pair of differentials is checked to compose to zero
    before ``homology_by_reduction`` computes the groups.
    """
    for n in range(1, len(columns) - 1):
        if any(compose(columns[n], columns[n + 1])):
            raise NotAComplex("d_n @ d_next != 0")
    return homology_by_reduction(columns, degrees)


def homology_by_reduction(columns: list, degrees) -> dict:
    """``chain_homology`` of columns already known to form a complex, with
    no d∘d check.

    One ``reduce_complex`` call with one filtration level cancels the unit
    pairs of the whole complex, so the kernel, solve and Smith steps see
    only the cells no unit entry cancels, and a zero differential needs no
    kernel.
    """
    D, _ = reduce_complex(columns, [[0] * len(c) for c in columns])
    out = {}
    for n in degrees:
        if not 0 <= n < len(D):  # no cells
            out[n] = HomologyGroup(0)
            continue
        d_next = D[n + 1] if n + 1 < len(D) else IntMatrix(len(D.columns[n]), 0)
        if D.is_zero(n):
            cycles, rel = d_next.rows, invariant_factors(d_next)
        else:
            K = kernel_basis(D[n])
            rel = solution_factors(K, d_next)
            if rel is None:  # cannot happen for a genuine complex with saturated kernel
                raise NotAComplex("boundary not inside the kernel lattice")
            cycles = K.cols
        out[n] = group_from_presentation(cycles, rel)
    return out
