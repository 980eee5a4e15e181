"""Triangulated fibre products and multiple-point spaces of a simplicial map.

For a finite surjective simplicial map f: X -> Y, the k-fold fibre product
W^k carries a triangulation whose top simplices are products of k ordered
lifts of a common Y-simplex; D^k is the sub-triangulation coming from
pairwise distinct lifts.  Both come with component-forgetting projections;
the symmetric group acts by permuting slots, that is, by reordering the
lift tuple of each product.

The lifts of each Y-simplex are found and ordered in one place, the map's
``LiftTable``, which the spaces' products, both grids (the W grid's
boundary, and each grid's ranks and transfer, without building W^k or
D^k) and the alternating basis all read.
``grid_cells`` is the one signed bridge from the grid cells to raw chains,
where the listing sign that orients a product simplex is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product as iproduct
from math import comb

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    face_closure,
    homology_groups,
    sort_sign,
)
from .errors import ComplexMismatch, DegreeOutOfRange, InvalidIndex, InvalidMultiplicity
from .intlinalg import HomologyGroup


@dataclass(frozen=True)
class ProductRecord:
    """One grid cell as a raw product simplex: (lift_1 x ... x lift_k)/Y
    inside W^k or D^k."""

    delta: tuple  # canonical Y-simplex
    lifts: tuple  # k ordered lifts of delta
    canonical: tuple  # the product's vertex ids, sorted (the chain-basis simplex)
    sign: int  # parity of the vertex listing in delta's order against canonical


class MultiplePointComplex:
    """W^k(f) or D^k(f) with the triangulation induced by f.

    ``lifts`` is the map's lift table, which the space's products are read
    off.  ``below`` is the same-kind space at multiplicity k-1 (X for k = 2,
    None for k = 1), the target of the slot projections, which are kept in
    ``eps`` by slot.
    """

    def __init__(self, kind, k, f, lifts, complex_, vertex_tuples, products, below=None):
        self.kind = kind
        self.k = k
        self.f = f
        self.lifts = lifts
        self.below = below
        self.eps: dict = {}
        self.complex = complex_
        self.vertex_tuples = tuple(vertex_tuples)
        self.tuple_index = {t: v for v, t in enumerate(self.vertex_tuples)}
        # the vertex ids of each product listed in delta's vertex order, keyed
        # by (delta, lifts); read by grid_cells alone
        self.products = products

    # chain-facing delegation
    def simplices(self, dim):
        return self.complex.simplices(dim)

    def n_simplices(self, dim):
        return self.complex.n_simplices(dim)

    def index(self, s):
        return self.complex.index(s)

    @property
    def dim(self):
        return self.complex.dim

    def __repr__(self):
        return f"MultiplePointComplex(kind={self.kind}, k={self.k}, {self.complex!r})"


def _build(f: SimplicialMap, k: int, kind: str, below, lifts) -> MultiplePointComplex:
    """W^k or D^k of f, its products read off the lift table ``lifts``: all
    k-tuples of each Y-simplex's lifts for W, distinct ones for D."""
    if k < 1:
        raise InvalidMultiplicity(f"multiplicity {k} < 1")
    deltas = f.target.all_simplices()
    if k == 1:
        # W^1 = D^1 = X itself, vertex v the tuple (v,): a lift lists itself
        products = {(delta, (lift,)): lift for delta in deltas for lift in lifts[delta]}
        vertex_tuples = [(v,) for v in range(f.source.n_vertices)]
        return MultiplePointComplex(kind, 1, f, lifts, f.source, vertex_tuples, products)

    # vertex j of a product is the tuple of its lifts' j-th vertices
    listings = {}
    for delta in deltas:
        combos = permutations(lifts[delta], k) if kind == "D" else iproduct(lifts[delta], repeat=k)
        for combo in combos:
            listings[(delta, combo)] = tuple(zip(*combo))
    vertex_tuples = sorted({t for listing in listings.values() for t in listing})
    tuple_index = {t: v for v, t in enumerate(vertex_tuples)}
    products = {
        key: tuple(tuple_index[t] for t in listing) for key, listing in listings.items()
    }
    by_dim = face_closure(list(map(sorted, products.values())))
    complex_ = SimplicialComplex(len(vertex_tuples), by_dim, labels=vertex_tuples)
    return MultiplePointComplex(kind, k, f, lifts, complex_, vertex_tuples, products, below)


def grid_cells(Z: MultiplePointComplex, n: int) -> tuple:
    """The signed bridge from the grid cells of degree n on Z to its raw
    degree-n chains, in grid order: ``(records, columns)``.

    The cells over each n-simplex delta of Y, in Y's order, are the k-tuples
    of delta's lifts (``Z.lifts``) in lexicographic order on W^k, and the
    increasing ones on D^k.  Sign rule: the product of a lift tuple is
    oriented by listing its vertices in delta's vertex order (vertex j is
    the tuple of the lifts' j-th vertices), so its raw simplex is that
    listing sorted, with the listing parity as sign.  A cell's record holds
    its own product's simplex and parity.  A W cell goes to its parity
    times its product simplex; a D cell (delta, I) goes to its alternation,
    the sum over the k! reorderings of I of the permutation's sign times
    the reordered product's parity at its simplex.  Columns are
    {raw index: entry} dicts.
    """
    alternate = Z.kind == "D"
    orders = list(permutations(range(Z.k))) if alternate else [tuple(range(Z.k))]
    signs = [sort_sign(order) for order in orders]  # the identity comes first

    def listed(delta, lifts):  # (raw simplex, listing parity) of a product
        ids = Z.products[(delta, lifts)]
        return tuple(sorted(ids)), sort_sign(ids)

    records, columns, index = [], [], Z.complex.index
    for delta in Z.f.target.simplices(n):
        over = Z.lifts[delta]
        for cell in combinations(over, Z.k) if alternate else iproduct(over, repeat=Z.k):
            products = [listed(delta, tuple(map(cell.__getitem__, order))) for order in orders]
            records.append(ProductRecord(delta, cell, *products[0]))
            columns.append({index(s): sign * parity for (s, parity), sign in zip(products, signs)})
    return records, columns


class LiftTable:
    """The lifts of every Y-simplex and how they restrict to its faces: the
    one place where lifts are found and ordered, and all that the W-chain
    grid is read off, with no W^k built, as are the alternating grid's
    ranks and vertical differential.

    A lift of the canonical Y-simplex delta = (w_0 < ... < w_n) is the
    vertex tuple (v_0, ..., v_n) of an X-simplex ordered so that
    f(v_j) = w_j; ``table[delta]`` holds delta's lifts sorted, as a tuple,
    one per X-simplex over delta.  One pass over X finds them all.

    A q-simplex of W^k is a Y-simplex delta together with k lifts of delta,
    so the degree-q chains of W^k have one cell (delta, a) for each
    q-simplex delta of Y and each a in {0..N-1}^k, indexing delta's
    ``counts[delta] = N`` lifts.  The cells run over Y's simplices in
    order, then over a lexicographically, each oriented as ``grid_cells``
    says.

    ``faces[delta]`` holds (delta_i, (-1)^i, r) for i = q, ..., 0, so that
    the faces come in Y's order, where r[b] is the index among delta_i's
    lifts of lift b with vertex i dropped: the face map r_{delta,i}.

    The D^k cells (delta, I), I an increasing k-subset of delta's lift
    indices in lexicographic order, are the alternating generators of
    ``grid_cells``; the table counts them and gives their transfer, the
    last-slot projection in alternating coordinates, which is the
    alternating grid's d_v.
    """

    def __init__(self, f: SimplicialMap):
        self.target = f.target
        found: dict = {delta: [] for delta in f.target.all_simplices()}
        image_of = f.vertex_map.__getitem__
        for s in f.source.all_simplices():
            image, lift = zip(*sorted(zip(map(image_of, s), s)))
            if len(set(image)) == len(s):
                found[image].append(lift)
        self._lifts = {delta: tuple(sorted(ls)) for delta, ls in found.items()}
        self.counts = {delta: len(ls) for delta, ls in self._lifts.items()}
        self._faces = None
        self._drops: dict = {}  # drops by (kind, lift count, k, twist)

    def __getitem__(self, delta) -> tuple:
        """The sorted lifts of the Y-simplex delta."""
        return self._lifts[delta]

    @property
    def faces(self) -> dict:
        """``faces[delta]``, made at the first use: the W grid alone reads it."""
        if self._faces is None:
            lifts = self._lifts
            positions = {d: {lift: b for b, lift in enumerate(ls)} for d, ls in lifts.items()}
            self._faces = {}
            for delta, ls in lifts.items():
                faces = self._faces[delta] = []
                if len(delta) == 1:
                    continue
                for i in range(len(delta) - 1, -1, -1):
                    face = delta[:i] + delta[i + 1 :]
                    position = positions[face]
                    r = [position[lift[:i] + lift[i + 1 :]] for lift in ls]
                    faces.append((face, -1 if i % 2 else 1, r))
        return self._faces

    def n_cells(self, k: int, q: int, kind: str = "W") -> int:
        """Rank of the degree-q cells of W^k or D^k, by ``kind``: the sum of
        N_delta^k, or of C(N_delta, k), over the q-simplices of Y, which
        k = 0 counts."""
        return sum(_cell_count(self.counts[delta], k, kind) for delta in self.target.simplices(q))

    def _offsets(self, k: int, q: int, kind: str) -> dict:
        """Position of each q-simplex delta's first cell among those of W^k or D^k."""
        offsets, n = {}, 0
        for delta in self.target.simplices(q):
            offsets[delta] = n
            n += _cell_count(self.counts[delta], k, kind)
        return offsets

    def face_columns(self, k: int, q: int) -> list:
        """Columns of the boundary of the degree-q chains of W^k (q >= 1):
        (delta, a) goes to the sum of (-1)^i (delta_i, r_{delta,i}(a)), with r
        applied slot by slot; {row: +-1} dicts, rows increasing."""
        offsets = self._offsets(k, q - 1, "W")
        columns = []
        for delta in self.target.simplices(q):
            rows, signs = [], []
            for face, sign, r in self.faces[delta]:
                m, o = self.counts[face], offsets[face]
                index = [0]
                for _ in range(k - 1):
                    index = [x * m + b for x in index for b in r]
                rows.append([x * m + b + o for x in index for b in r])
                signs.append(sign)
            columns.extend(dict(zip(cell, signs)) for cell in zip(*rows))
        return columns

    def transfer_columns(self, k: int, q: int, kind: str = "W") -> list:
        """Columns of the degree-twisted transfer on the degree-q cells of
        W^k or D^k, by ``kind``, the grids' d_v: on W^k, (-1)^q rho, so
        (delta, a) goes to (-1)^q times the sum of (-1)^j (delta, a without
        slot j), onto the cells of W^(k-1); on D^k, (-1)^q times the
        last-slot projection eps_k of the cells' alternations, so (delta, I)
        goes to (-1)^q times the sum of (-1)^(k-1-j) (delta, I without its
        place j), onto the cells of D^(k-1).  For k = 1 both send
        (delta, (b)) to (-1)^q delta, onto the chains of Y.  Entries that
        cancel are dropped; rows increase."""
        twist = -1 if q % 2 else 1
        simplices = self.target.simplices(q)
        if k == 1:
            return [{row: twist} for row, d in enumerate(simplices) for _ in range(self.counts[d])]
        offsets = self._offsets(k - 1, q, kind)
        columns = []
        for delta in simplices:
            o = offsets[delta]
            drops = self.drops(kind, self.counts[delta], k, twist)
            columns.extend({o + row: a for row, a in col} for col in drops)
        return columns

    def drops(self, kind: str, n: int, k: int, twist: int) -> list:
        """The transfer over a simplex with n lifts, ``_slot_drops`` for W and
        ``_subset_drops`` for D, made once per table."""
        key = (kind, n, k, twist)
        if key not in self._drops:
            self._drops[key] = (_subset_drops if kind == "D" else _slot_drops)(n, k, twist)
        return self._drops[key]


def _cell_count(n: int, k: int, kind: str) -> int:
    """The cells over a simplex with n lifts: the k-tuples of its lifts on
    W^k, the increasing k-subsets on D^k."""
    return comb(n, k) if kind == "D" else n**k


def _slot_drops(n: int, k: int, twist: int) -> list:
    """twist times the sum over the slots j of (-1)^j times dropping slot j,
    from the tuples {0..n-1}^k to the (k-1)-tuples, both in lexicographic
    order, as (row, entry) lists without zero entries, rows increasing."""
    lows = [n ** (k - 1 - j) for j in range(k)]  # place value of slot j
    columns = []
    for x in range(n**k):
        col: dict = {}
        for j, low in enumerate(lows):
            # the slots before j, shifted down one place, and those after it
            row = x // (low * n) * low + x % low
            col[row] = col.get(row, 0) + (twist if j % 2 == 0 else -twist)
        columns.append(sorted((row, a) for row, a in col.items() if a))
    return columns


def _subset_drops(n: int, k: int, twist: int) -> list:
    """twist times the sum over the places j of (-1)^(k-1-j) times dropping
    place j, from the increasing k-subsets of {0..n-1} to the (k-1)-subsets,
    both in lexicographic order, as (row, entry) lists, rows increasing:
    dropping a later place leaves a smaller subset, and none cancel."""
    rows = {s: row for row, s in enumerate(combinations(range(n), k - 1))}
    signs = [twist if (k - 1 - j) % 2 == 0 else -twist for j in range(k)]
    return [
        [(rows[s[:j] + s[j + 1 :]], signs[j]) for j in reversed(range(k))]
        for s in combinations(range(n), k)
    ]


class Tower:
    """The W^k / D^k complexes of one simplicial map, each built once, its
    lift table, and the homology of its target, computed once for every
    degree.

    Functions that read several multiplicities of one map take a tower, so
    they share its spaces; building W^k or D^k builds the spaces below it.
    W^1 = D^1 = X is one space, of kind "D" whichever was asked for.  The
    W-chain grid reads the lift table alone.  ``memo`` keeps what is
    derived from the spaces for as long as the tower lives.
    """

    def __init__(self, f: SimplicialMap):
        if not f.valid:
            raise ComplexMismatch("map must be simplicial, finite-to-one and surjective")
        self.f = f
        self._cache: dict = {}
        self._memo: dict = {}
        self._lifts = None
        self._target_homology = None

    @property
    def lifts(self) -> LiftTable:
        """The map's lift table, built on first use."""
        if self._lifts is None:
            self._lifts = LiftTable(self.f)
        return self._lifts

    def W(self, k: int) -> MultiplePointComplex:
        return self._get("W", k)

    def D(self, k: int) -> MultiplePointComplex:
        return self._get("D", k)

    def _get(self, kind, k):
        key = ("D" if k == 1 else kind, k)
        if key not in self._cache:
            below = self._get(kind, k - 1) if k > 1 else None
            self._cache[key] = _build(self.f, k, key[0], below, self.lifts)
        return self._cache[key]

    def memo(self, key, make):
        """``make()``, computed at the first call with ``key`` and kept for
        the tower's life: what several checks of one map read, such as the
        alternating basis of one space in one degree.  No value may refer
        to the tower, so that a dropped tower is still freed by reference
        counting alone."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def target_homology(self, n: int) -> HomologyGroup:
        """H_n(Y) of the map's target; the first call computes every degree,
        off one reduction of Y's chain complex."""
        Y = self.f.target
        if n < 0 or n > Y.dim:
            raise DegreeOutOfRange(f"degree {n} outside 0..{Y.dim}")
        if self._target_homology is None:
            self._target_homology = homology_groups(Y)
        return self._target_homology[n]

    def k_max(self) -> int:
        """Largest k with D^k nonempty: the maximal lift count of a Y-simplex."""
        return max(self.lifts.counts.values())


def projection_eps(Z: MultiplePointComplex, i: int) -> SimplicialMap:
    """The simplicial projection forgetting the i-th slot (1-based) onto the
    space one multiplicity down, ``Z.below``, as a validated map: vertex v
    goes to the vertex of the k-1 tuple left when slot i of v's tuple is
    dropped.  Built once per slot and kept on Z."""
    if not 1 <= i <= Z.k:
        raise InvalidIndex(f"slot {i} outside 1..{Z.k}")
    if Z.k == 1:
        return Z.f  # the convention epsilon^1 = f
    if i not in Z.eps:
        index = Z.below.tuple_index
        drop = [index[t[: i - 1] + t[i:]] for t in Z.vertex_tuples]
        Z.eps[i] = SimplicialMap(Z.complex, Z.below.complex, enumerate(drop))
    return Z.eps[i]
