"""Double complexes of multiple-point chains and their spectral sequences.

Grid conventions: a cell (p, q) holds chains of degree q on the multiplicity
p+1 space.  The horizontal differential is the simplicial boundary (q drops
by one); the vertical differential is the degree-signed transfer to
multiplicity p (the signed sum of slot projections on W, the last-slot
projection on alternating D-chains).  The sign twist makes the two
differentials anticommute, so the total complex squares to zero.  Both
grids are cells on the map's lift table (``Tower.lifts``): a Y-simplex
with a tuple of lift indices (W) or an increasing subset of them (Alt).
The table gives both grids' ranks and vertical differentials and the W
grid's horizontal one, with no W^k built; the alternating grid's
horizontal differential is the alternating chain complex of each D^k.

Filtering the total complex by columns (p) gives the multiple-point spectral
sequences; filtering by rows (q) gives the collapsing one whose second page
is already the homology of the image.  Pages are read off a ladder of
reductions of the total complex (``intlinalg.reduce_complex``): rung g
cancels the unit pairs admissible at level gap g, which changes no page
r >= g + 1, no limit and no homology.  Page 1 is the homology of the level
pieces of rung 0 (only pairs of equal level cancelled), each piece reduced
once for all its degrees; page r >= 2 is read off rung r - 1, and the limit
page, its graded pieces and the total homology off the top rung, where the
gap is the largest level L and every admissible pair is cancelled.  From
page 2 on, the cycle and boundary subgroups of a page are taken on its
rung, with exact integer arithmetic.

How the usual symbols of the subject map onto this module:

- Tot(C)_n: the blocks of total degree n; ``tot_rank(n, g)`` is the rank of
  rung g
- D_n: ``SpectralSequence.D(n, g)``, the differential of rung g
- F^s: the cells ``SpectralSequence._coords_leq(n, s, g)`` of rung g
- Z^r_{s,t}: ``SpectralSequence.cycle_subgroup(s + t, s, r, g)``, on rung g
- E^r_{p,q}: ``SpectralSequence.page_group`` at the filtration spot of the
  cell (p, q): for r = 1 the homology of the level piece F_s / F_{s-1} of
  rung 0, for r >= 2 read off rung min(r - 1, L)
- d^r: not emitted; ``page_group`` gives each page's groups, read off rung
  r - 1, which keeps page r and its differential
- E^infinity_{p,q}: ``SpectralSequence.infinity_group`` (page L + 1)
- F_p H_n: the filtration levels inside ``SpectralSequence.e_infinity``
"""

from __future__ import annotations

from dataclasses import dataclass

from .alternating import alt_complex
from .complexes import SimplicialMap
from .errors import DegreeOutOfRange, NotAComplex, TruncationInsufficient
from .intlinalg import (
    HomologyGroup,
    IntMatrix,
    Subgroup,
    chain_homology,
    compose,
    homology_by_reduction,
    kernel_basis,
    reduce_complex,
    subgroup_quotient,
)
from .multiplicity import Tower


class DoubleComplex:
    """First-quadrant double complex with anticommuting differentials.

    ``ranks[(p, q)]`` are the cell ranks.  Each block is held once, as
    sparse ``{row: entry}`` columns without zero entries: ``h_cols[(p, q)]``
    maps cell (p, q) to (p, q-1) for q >= 1 and ``v_cols[(p, q)]`` maps it
    to (p-1, q) for p >= 1; a block that is not given is zero.  The identity
    checks, the total complex and the page-one oracle read these columns,
    through ``h_columns`` and ``v_columns``.  ``tower`` is the tower of the
    map the grid was built from, if any: the map, the dimension of Y and the
    largest multiplicity are read off it.
    """

    def __init__(self, kind, p_max, q_max, ranks, h_cols, v_cols, tower=None):
        self.kind = kind
        self.p_max = p_max
        self.q_max = q_max
        self._ranks = dict(ranks)
        self._h_cols = dict(h_cols)
        self._v_cols = dict(v_cols)
        self.tower = tower
        self.verify_identities()

    def rank(self, p, q) -> int:
        if 0 <= p <= self.p_max and 0 <= q <= self.q_max:
            return self._ranks.get((p, q), 0)
        return 0

    def h_columns(self, p, q) -> list:
        """Sparse columns of the horizontal block d_h at cell (p, q)."""
        cols = self._h_cols.get((p, q))
        return cols if cols is not None else [{} for _ in range(self.rank(p, q))]

    def v_columns(self, p, q) -> list:
        """Sparse columns of the vertical block d_v at cell (p, q)."""
        cols = self._v_cols.get((p, q))
        return cols if cols is not None else [{} for _ in range(self.rank(p, q))]

    def verify_identities(self):
        """Both differentials square to zero and they anticommute, checked by
        composing the blocks' sparse columns."""
        h, v = self.h_columns, self.v_columns
        for p in range(self.p_max + 1):
            for q in range(self.q_max + 1):
                if q >= 2 and any(compose(h(p, q - 1), h(p, q))):
                    raise NotAComplex(f"horizontal square nonzero at {(p, q)}")
                if p >= 2 and any(compose(v(p - 1, q), v(p, q))):
                    raise NotAComplex(f"vertical square nonzero at {(p, q)}")
                if p >= 1 and q >= 1:
                    hv = compose(h(p - 1, q), v(p, q))
                    vh = compose(v(p, q - 1), h(p, q))
                    if any(a != {i: -x for i, x in b.items()} for a, b in zip(hv, vh)):
                        raise NotAComplex(f"differentials do not anticommute at {(p, q)}")


def build_double(tower: Tower, kind: str) -> DoubleComplex:
    """Assemble the W-chain ("W") or alternating D-chain ("Alt") double complex
    of the map ``tower.f`` from its tower.

    The map fixes the grid's shape.  No row lies above the dimension of Y,
    so q_max = dim Y.  The alternating grid ends by itself: D^k is empty past
    the largest fibre, so p_max = k_max - 1.  The W grid is nonzero in every
    column, so it is cut at p_max = dim Y + 2, which supports every total
    degree up to dim Y + 1.

    Both grids are cells on the lift table (``tower.lifts``): column p, row
    q has one cell per q-simplex delta of Y and tuple (W) or increasing
    subset (Alt) of p+1 indices into delta's lifts, in Y's order and then
    lexicographically (see ``grid_cells`` for the orientation).  Ranks
    and d_v come off the table, ``LiftTable.n_cells`` and
    ``LiftTable.transfer_columns``, with no W^k or D^k built.  d_h is
    ``LiftTable.face_columns`` on W; on Alt it is each column's alternating
    chain complex (``alt_complex``), kept on the tower in the bases the
    checks of ``verify`` share.
    """
    q_max = tower.f.target.dim
    lifts = tower.lifts
    if kind == "W":
        p_max, cells, d_h = q_max + 2, "W", lifts.face_columns
    elif kind == "Alt":
        p_max, cells = tower.k_max() - 1, "D"

        def d_h(k, q):
            return alt_complex(tower, tower.D(k))[q]

    else:
        raise ValueError(f"unknown double complex kind {kind!r}")
    ranks, h_cols, v_cols = {}, {}, {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            ranks[(p, q)] = lifts.n_cells(p + 1, q, cells)
            if q >= 1:
                h_cols[(p, q)] = d_h(p + 1, q)
            if p >= 1:
                v_cols[(p, q)] = lifts.transfer_columns(p + 1, q, cells)
    return DoubleComplex(kind, p_max, q_max, ranks, h_cols, v_cols, tower=tower)


@dataclass(frozen=True)
class DegreeReport:
    """Convergence bookkeeping for one total degree."""

    n: int
    e_infinity: tuple  # ((p, q), group) for each graded spot
    graded: tuple  # ((p, q), group) from the filtration on homology
    total_homology: HomologyGroup
    target_homology: HomologyGroup  # homology of Y in this degree
    graded_matches_page: bool
    total_matches_target: bool

    @property
    def converged(self) -> bool:
        return self.graded_matches_page and self.total_matches_target


class SpectralSequence:
    """Spectral sequence of the total complex of a double complex, filtered
    by columns (p) or rows (q).

    Pages are read off a ladder of reductions of the total complex
    (``rung``): page r off rung min(r - 1, ``top_gap``), and the limit page,
    the graded limit and the total homology off the top rung.  Rung 0 is
    built when the sequence is made, every other rung when first read.
    """

    def __init__(self, dc: DoubleComplex, filtration: str = "columns"):
        if filtration not in ("columns", "rows"):
            raise ValueError("filtration must be 'columns' or 'rows'")
        self.dc = dc
        self.filtration = filtration
        self.n_top = dc.p_max + dc.q_max
        self._blocks = {
            n: [(p, n - p) for p in range(max(0, n - dc.q_max), min(dc.p_max, n) + 1)]
            for n in range(self.n_top + 1)
        }
        # the levels run from 0 to L, so at gap L every pair a filtration
        # allows is admissible
        self.top_gap = self._stable_r() - 1
        self._rungs = {}
        self._cycles = {}
        self._pages = {}
        self._pieces = {}  # _level_homology's, by filtration level
        self._total = {}
        self._column_homology = {}  # page_one_oracle's, by column
        self.rung(0)

    def _total_complex(self) -> tuple:
        """Sparse columns and filtration levels of the unreduced total complex."""
        dc = self.dc
        columns, levels, prev = [], [], {}
        for n in range(self.n_top + 1):
            off, level = {}, []
            for cell in self._blocks[n]:
                off[cell] = len(level)
                level.extend([self._filt_index(cell)] * dc.rank(*cell))
            # the total differential's columns, read off the blocks' nonzeros
            cols = [{} for _ in level]
            for (p, q), co in off.items():
                for target, block in (
                    ((p, q - 1), dc.h_columns(p, q)),
                    ((p - 1, q), dc.v_columns(p, q)),
                ):
                    if target in prev:
                        ro = prev[target]
                        for j, col in enumerate(block):
                            cols[co + j].update((ro + i, a) for i, a in col.items())
            columns.append(cols)
            levels.append(level)
            prev = off
        return columns, levels

    def rung(self, g: int) -> tuple:
        """``(D, levels)`` of rung g of the ladder: the total complex with
        its unit pairs admissible at gap g cancelled (``reduce_complex``),
        as ``Differentials`` and the levels of the surviving cells.

        Rung 0 is reduced from the total complex itself and every higher
        rung from a copy of the highest rung below it.  Rung g keeps every
        page r >= g + 1; a gap above ``top_gap`` reads the top rung.
        """
        g = min(g, self.top_gap)
        if g not in self._rungs:
            if g == 0:
                columns, levels = self._total_complex()
            else:
                D, levels = self._rungs[max(k for k in self._rungs if k < g)]
                columns = [[dict(col) for col in cols] for cols in D.columns]
            self._rungs[g] = reduce_complex(columns, levels, g)
        return self._rungs[g]

    # the rungs
    def tot_rank(self, n: int, g: int = 0) -> int:
        """Rank in degree n of rung g."""
        return len(self.rung(g)[1][n]) if 0 <= n <= self.n_top else 0

    def D(self, n: int, g: int = 0) -> IntMatrix:
        """Differential of rung g from degree n to n-1."""
        if 0 <= n <= self.n_top:
            return self.rung(g)[0][n]
        return IntMatrix(self.tot_rank(n - 1, g), self.tot_rank(n, g))

    def _bounds_nothing(self, n: int, g: int) -> bool:
        """The differential of rung g into degree n is zero."""
        return n >= self.n_top or self.rung(g)[0].is_zero(n + 1)

    def _filt_index(self, cell) -> int:
        p, q = cell
        return p if self.filtration == "columns" else q

    def _coords_leq(self, n: int, s: int, g: int) -> list:
        """Cells of degree n of rung g with filtration level at most s."""
        if not 0 <= n <= self.n_top:
            return []
        return [j for j, level in enumerate(self.rung(g)[1][n]) if level <= s]

    def cycle_subgroup(self, n: int, s: int, r: int, g: int = 0) -> Subgroup:
        """Elements of filtration level s in degree n of rung g whose
        boundary drops by at least r filtration levels, with the saturated
        kernel basis kept as the subgroup's basis."""
        r = min(r, s + 1)  # no level lies below 0, so a larger r is the same
        g = min(g, self.top_gap)
        key = (n, s, r, g)
        if key in self._cycles:
            return self._cycles[key]
        ambient = self.tot_rank(n, g)
        cols = self._coords_leq(n, s, g)
        if not cols:
            sub = Subgroup.zero(ambient)
        else:
            D, levels = self.rung(g)
            # the rows the boundary must vanish on: levels above s - r
            rows = [i for i, level in enumerate(levels[n - 1] if n else []) if level > s - r]
            pos = {i: k for k, i in enumerate(rows)}
            restricted = [
                {pos[i]: a for i, a in D.columns[n][j].items() if i in pos} for j in cols
            ]
            if any(restricted):
                K = kernel_basis(IntMatrix.from_sparse(restricted, len(rows)))
            else:
                K = IntMatrix.identity(len(cols))  # the kernel of a zero map
            emb = IntMatrix(ambient, K.cols)
            for local, coord in enumerate(cols):
                emb.data[coord] = K.data[local]
            sub = Subgroup.of_basis(ambient, emb)
        self._cycles[key] = sub
        return sub

    def page_group(self, r: int, s: int, t: int) -> HomologyGroup:
        """The group at filtration spot (s, t) of page r: the cell rank on
        page 0, H_{s+t} of the level-s piece of rung 0 on page 1
        (``_level_homology``), and Z^r_s / (Z^{r-1}_{s-1} + D Z^{r-1}_{s+r-1})
        on rung r - 1 from page 2 on."""
        if r < 0:
            raise DegreeOutOfRange("page index must be nonnegative")
        n = s + t
        if s < 0 or t < 0 or n > self.n_top:
            return HomologyGroup(0)
        key = (r, s, t)
        if key in self._pages:
            return self._pages[key]
        if r == 0:
            cell = (s, t) if self.filtration == "columns" else (t, s)
            grp = HomologyGroup(self.dc.rank(*cell))
        elif r == 1:
            grp = self._level_homology(s).get(n, HomologyGroup(0))
        else:
            g = r - 1
            Z = self.cycle_subgroup(n, s, r, g)
            B = self.cycle_subgroup(n, s - 1, r - 1, g)
            if not self._bounds_nothing(n, g):
                up = self.cycle_subgroup(n + 1, s + r - 1, r - 1, g)
                if up.rank:
                    cells = self._coords_leq(n + 1, s + r - 1, g)
                    if up.rank == len(cells):
                        # the restricted boundary is zero, so up is these
                        # cells and D's columns span D(up)
                        columns = self.rung(g)[0].columns[n + 1]
                        image = IntMatrix.from_sparse(
                            [columns[j] for j in cells], self.tot_rank(n, g)
                        )
                    else:
                        image = self.D(n + 1, g) @ up.basis
                    B = Subgroup(self.tot_rank(n, g), B.basis.hstack(image))
            grp = subgroup_quotient(Z, B)
        self._pages[key] = grp
        return grp

    def _level_homology(self, s: int) -> dict:
        """{n: H_n} of the level-s piece F_s / F_{s-1} of rung 0: its cells
        of level exactly s under the entries of D that stay at level s.

        Every degree comes off one reduction of the piece, built from fresh
        dicts since the reduction consumes them and the higher rungs read
        rung 0 again.  A filtered D with D^2 = 0, which the grid's identity
        checks guarantee, gives a piece that squares to zero, so no d∘d
        check is made."""
        if s not in self._pieces:
            D, levels = self.rung(0)
            pos = []  # per degree: rung-0 index of each cell of level s -> its index in the piece
            for level_n in levels:
                cells = [j for j, level in enumerate(level_n) if level == s]
                pos.append({j: k for k, j in enumerate(cells)})
            columns = [[{} for _ in pos[0]]]
            for n in range(1, len(pos)):
                rows, cols = pos[n - 1], D.columns[n]
                columns.append(
                    [{rows[i]: a for i, a in cols[j].items() if i in rows} for j in pos[n]]
                )
            self._pieces[s] = homology_by_reduction(columns, range(len(pos)))
        return self._pieces[s]

    def _stable_r(self) -> int:
        """First page index at which every spot has stabilized.

        d^r lowers the filtration level by r, and the levels of the grid run
        from 0 to its largest one L (p_max for columns, q_max for rows), so
        every d^r with r > L leaves the grid: page L + 1 is the limit page.
        """
        return (self.dc.p_max if self.filtration == "columns" else self.dc.q_max) + 1

    def infinity_group(self, s: int, t: int) -> HomologyGroup:
        return self.page_group(self._stable_r(), s, t)

    def total_homology(self, n: int) -> HomologyGroup:
        """H_n of the total complex.  The first call reads every degree up to
        the larger of n and the dimension of Y off one reduction of a copy
        of the top rung."""
        if not 0 <= n <= self.n_top:
            return HomologyGroup(0)
        if n not in self._total:
            D, _ = self.rung(self.top_gap)
            last = min(max(n, self.dc.q_max), self.n_top)
            cut = min(last + 1, self.n_top)  # the cells above do not touch degree last
            columns = [[dict(col) for col in D.columns[m]] for m in range(cut + 1)]
            self._total.update(chain_homology(columns, range(last + 1)))
        return self._total[n]

    # cell-indexed access
    def _to_st(self, p, q):
        return (p, q) if self.filtration == "columns" else (q, p)

    # convergence
    def _require_complete(self, n: int):
        """Degree n needs every cell of total degree up to n + 1.  Only the W
        grid is cut, at column p_max, and its cell (n + 1, 0) is the first
        to fall outside."""
        if self.dc.kind == "W" and n + 1 > self.dc.p_max:
            raise TruncationInsufficient(f"grid truncation cannot support total degree {n}")

    def e_infinity(self, n: int) -> DegreeReport:
        """Graded comparison of the limit page with the filtration on the
        homology of the total complex, plus the homology of Y as the target;
        all of it is read off the top rung."""
        self._require_complete(n)
        dc = self.dc
        g = self.top_gap
        ambient = self.tot_rank(n, g)
        if self._bounds_nothing(n, g):
            boundaries = Subgroup.zero(ambient)
        else:
            boundaries = Subgroup(ambient, self.D(n + 1, g))
        s_values = sorted({self._filt_index(c) for c in self._blocks.get(n, [])})
        prev = boundaries
        graded, infinity = [], []
        max_s = s_values[-1] if s_values else -1
        for s in range(max_s + 1):
            S_s = self.cycle_subgroup(n, s, s + 1, g).sum(boundaries)
            gr = subgroup_quotient(S_s, prev)
            prev = S_s
            cell = (s, n - s) if self.filtration == "columns" else (n - s, s)
            graded.append((cell, gr))
            infinity.append((cell, self.infinity_group(s, n - s)))
        total = self.total_homology(n)
        if dc.tower is not None and 0 <= n <= dc.q_max:
            target = dc.tower.target_homology(n)
        else:
            target = HomologyGroup(0)
        return DegreeReport(
            n=n,
            e_infinity=tuple(infinity),
            graded=tuple(graded),
            total_homology=total,
            target_homology=target,
            graded_matches_page=all(
                g == e for (_, g), (_, e) in zip(graded, infinity)
            ),
            total_matches_target=(total == target),
        )


def icss(f: SimplicialMap) -> SpectralSequence:
    """Column-filtered spectral sequence of the alternating D-chain double
    complex; page one is the alternating homology of the distinct-point
    spaces and the limit is the homology of Y."""
    return SpectralSequence(build_double(Tower(f), "Alt"), "columns")


def gvzss(f: SimplicialMap) -> SpectralSequence:
    """Column-filtered spectral sequence of the W-chain double complex, cut
    at column dim Y + 2 (``build_double``)."""
    return SpectralSequence(build_double(Tower(f), "W"), "columns")


def first_ss(tower: Tower, kind: str = "Alt") -> SpectralSequence:
    """Row-filtered (collapsing) spectral sequence of the same double complex."""
    return SpectralSequence(build_double(tower, kind), "rows")


@dataclass(frozen=True)
class CollapseReport:
    vanishing_above_bottom: bool  # page one is concentrated on the bottom row
    bottom_matches_target: bool  # page two bottom row is the homology of Y
    stabilized: bool  # page two equals the limit page
    details: tuple = ()

    @property
    def ok(self) -> bool:
        return self.vanishing_above_bottom and self.bottom_matches_target and self.stabilized


def check_collapse_first(ss: SpectralSequence) -> CollapseReport:
    """The row filtration degenerates: page one lives on the bottom row and
    page two there is already the homology of Y.

    ``ss`` is a row-filtered sequence (``first_ss``) whose double complex
    carries the tower of its map; the kind is that of the double complex.
    """
    if ss.filtration != "rows":
        raise ValueError("the collapse check reads the row filtration")
    dc = ss.dc
    vanish = True
    bottom = True
    stable = True
    details = []
    for q in range(dc.q_max + 1):
        for p in range(dc.p_max + 1):
            if dc.kind == "W" and p == dc.p_max:
                # the cut column of the W grid has no incoming transfer, so
                # its vertical homology is not the page-one value there
                continue
            g1 = ss.page_group(1, q, p)  # (s, t) = (q, p) under the row filtration
            if p > 0 and not g1.is_trivial:
                vanish = False
                details.append(("page1-nonzero", p, q, str(g1)))
        g2 = ss.page_group(2, q, 0)
        target = dc.tower.target_homology(q)
        if g2 != target:
            bottom = False
            details.append(("page2-bottom", q, str(g2), str(target)))
        ginf = ss.infinity_group(q, 0)
        if ginf != g2:
            stable = False
            details.append(("not-stable", q, str(g2), str(ginf)))
    return CollapseReport(vanish, bottom, stable, tuple(details))


@dataclass(frozen=True)
class SpectralSequenceReport:
    """Pages, limit comparison and per-degree convergence verdicts."""

    kind: str  # "ICSS" or "GVZSS"
    pages: tuple  # ((r, p, q), group) for r = 1, 2 and the stable page
    degree_reports: tuple  # DegreeReport per total degree up to dim Y
    page_one_cross_checked: bool  # page one vs the homology of each d_h column

    @property
    def converged(self) -> bool:
        return self.page_one_cross_checked and all(
            d.converged for d in self.degree_reports
        )


def make_report(ss: SpectralSequence, kind_name: str) -> SpectralSequenceReport:
    """Pages 1, 2 and the limit at every cell of total degree up to dim Y + 1,
    and the convergence of every total degree up to dim Y."""
    dc = ss.dc
    pages = []
    cross_ok = True
    for p in range(dc.p_max + 1):
        for q in range(dc.q_max + 1):
            if p + q > dc.q_max + 1:
                continue
            s, t = ss._to_st(p, q)
            g1 = ss.page_group(1, s, t)
            g2 = ss.page_group(2, s, t)
            gs = ss.infinity_group(s, t)
            pages.append(((1, p, q), g1))
            pages.append(((2, p, q), g2))
            pages.append((("stable", p, q), gs))
            if g1 != page_one_oracle(ss, p, q):
                cross_ok = False
    degree_reports = tuple(ss.e_infinity(n) for n in range(dc.q_max + 1))
    return SpectralSequenceReport(
        kind=kind_name,
        pages=tuple(pages),
        degree_reports=degree_reports,
        page_one_cross_checked=cross_ok,
    )


def icss_report(f: SimplicialMap) -> SpectralSequenceReport:
    return make_report(icss(f), "ICSS")


def gvzss_report(f: SimplicialMap) -> SpectralSequenceReport:
    return make_report(gvzss(f), "GVZSS")


def page_one_oracle(ss: SpectralSequence, p: int, q: int) -> HomologyGroup:
    """Independent page-one value: the homology in degree q of column p of the
    grid under d_h alone, which is the (alternating, for the D-chain kind)
    chain complex of the multiplicity p+1 space.  Each column is reduced
    once, for every q, from copies of the grid's block columns; nothing of
    the total complex it cross-checks is read.  The column's d_h squares
    were checked when the grid was built (``verify_identities``), so they
    are not composed again."""
    dc = ss.dc
    if p not in ss._column_homology:
        degrees = range(dc.q_max + 1)
        columns = [[dict(col) for col in dc.h_columns(p, d)] for d in degrees]
        ss._column_homology[p] = homology_by_reduction(columns, degrees)
    return ss._column_homology[p].get(q, HomologyGroup(0))
