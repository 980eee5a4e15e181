"""Abstract simplicial complexes, boundary and pushforward matrices and
validated simplicial maps.

Vertices are dense integer indices; the canonical representative of a
geometric simplex is its strictly increasing vertex tuple.  Reorderings are
identified up to permutation sign, so each geometric simplex contributes one
oriented generator to the chain groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ComplexMismatch, DegreeOutOfRange, InvalidSimplex
from .intlinalg import HomologyGroup, IntMatrix, chain_homology

Simplex = tuple  # strictly increasing tuple of vertex ids


def sort_sign(seq) -> int:
    """Parity (+1/-1) of the permutation sorting seq; 0 if entries repeat."""
    n = len(seq)
    if len(set(seq)) != n:
        return 0
    inv = 0
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under faces.

    ``labels[v]`` is an arbitrary hashable naming vertex ``v``; plain string
    names for input complexes, k-tuples of vertex ids for fibre products.
    Immutable after construction.
    """

    def __init__(self, n_vertices: int, simplices_by_dim, labels=None):
        self.n_vertices = n_vertices
        self.labels = tuple(labels) if labels is not None else tuple(range(n_vertices))
        if len(self.labels) != n_vertices:
            raise ValueError("label count mismatch")
        self.label_index = {lab: v for v, lab in enumerate(self.labels)}
        if len(self.label_index) != n_vertices:
            raise ValueError("duplicate labels")
        # per-dimension sorted tuple list, lexicographic order fixes the bases
        self._simplices = {
            d: tuple(sorted(set(map(tuple, ss)))) for d, ss in simplices_by_dim.items() if ss
        }
        self._index = {
            d: {s: i for i, s in enumerate(ss)} for d, ss in self._simplices.items()
        }
        self.dim = max(self._simplices) if self._simplices else -1

    def simplices(self, dim: int) -> tuple:
        return self._simplices.get(dim, ())

    def all_simplices(self):
        for d in sorted(self._simplices):
            yield from self._simplices[d]

    def n_simplices(self, dim: int) -> int:
        return len(self._simplices.get(dim, ()))

    def has_simplex(self, s) -> bool:
        return tuple(s) in self._index.get(len(s) - 1, {})

    def index(self, s) -> int:
        return self._index[len(s) - 1][tuple(s)]

    def maximal_simplices(self) -> list:
        """Simplices that are faces of no other simplex.  The complex is
        closed under faces, so these are the ones that are no facet."""
        facets = {s[:i] + s[i + 1 :] for s in self.all_simplices() for i in range(len(s))}
        return sorted(
            (s for s in self.all_simplices() if s not in facets), key=lambda s: (len(s), s)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.labels == other.labels
            and self._simplices == other._simplices
        )

    def __hash__(self):
        return hash((self.labels, tuple(sorted(self._simplices.items()))))

    def __repr__(self):
        counts = [self.n_simplices(d) for d in range(self.dim + 1)]
        return f"SimplicialComplex(dim={self.dim}, counts={counts})"


def face_closure(simplices) -> set:
    closed = set()
    for s in simplices:
        s = tuple(sorted(s))
        for d in range(1, len(s) + 1):
            closed.update(combinations(s, d))
    return closed


def build_complex(maximal_simplices, labels=None) -> SimplicialComplex:
    """Face closure of the given maximal simplices (vertex-id tuples).

    With ``labels`` given, the tuples may use labels instead of indices and
    the vertex order is the label order; a labelled vertex that lies in no
    given simplex is a 0-simplex of its own.
    """
    if labels is not None:
        lab_ix = {lab: i for i, lab in enumerate(labels)}
        maximal_simplices = [
            tuple(lab_ix[v] for v in s) for s in maximal_simplices
        ]
        n_vertices = len(labels)
    else:
        n_vertices = 1 + max((max(s) for s in maximal_simplices if s), default=-1)
    for s in maximal_simplices:
        if not s:
            raise InvalidSimplex("empty simplex")
        if len(set(s)) != len(s):
            raise InvalidSimplex(f"repeated vertex in simplex {s!r}")
    closed = face_closure(maximal_simplices)
    if labels is not None:
        closed.update((v,) for v in range(n_vertices))
    by_dim: dict = {}
    for s in closed:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return SimplicialComplex(n_vertices, by_dim, labels=labels)


def boundary_columns(X, n: int) -> list:
    """Columns of the alternating-sum face map C_n -> C_{n-1} in canonical
    bases, as {row: +-1} dicts with the rows in increasing order.

    n = 0 gives one empty column per vertex.
    """
    if n < 0 or n > X.dim:
        raise DegreeOutOfRange(f"degree {n} outside 0..{X.dim}")
    if n == 0:
        return [{} for _ in X.simplices(0)]
    # dropping a later vertex gives an earlier face in the lexicographic basis
    signs = [(i, -1 if i % 2 else 1) for i in range(n, -1, -1)]
    index = X.index
    return [{index(s[:i] + s[i + 1 :]): a for i, a in signs} for s in X.simplices(n)]


def boundary_matrix(X, n: int) -> IntMatrix:
    """Dense form of :func:`boundary_columns`; n = 0 gives the
    0 x (#vertices) matrix."""
    return IntMatrix.from_sparse(boundary_columns(X, n), X.n_simplices(n - 1))


@dataclass(frozen=True)
class MapReport:
    simplicial: bool
    finite_to_one: bool
    surjective: bool
    failures: tuple = ()

    @property
    def valid(self) -> bool:
        return self.simplicial and self.finite_to_one and self.surjective


def validate_map(vertex_map, X: SimplicialComplex, Y: SimplicialComplex) -> MapReport:
    """Check that vertex_map induces a finite-to-one surjective simplicial map."""
    failures = []
    simplicial = True
    finite_to_one = True
    hit = set()
    for s in X.all_simplices():
        image = tuple(sorted({vertex_map[v] for v in s}))
        if len(image) != len(s):
            finite_to_one = False
            failures.append(("collapsed", s))
        if Y.has_simplex(image):
            hit.add(image)
        else:
            simplicial = False
            failures.append(("not-a-simplex", s))
    missed = [("missed", s) for s in Y.all_simplices() if s not in hit]
    surjective = not missed
    failures.extend(missed)
    return MapReport(simplicial, finite_to_one, surjective, tuple(failures))


class SimplicialMap:
    """Vertex assignment X -> Y inducing a simplicial map.

    Construction only requires simpliciality; finite-to-one and surjectivity
    are reported by :func:`validate_map` (the fibre-product constructions
    insist on a fully valid map, the projections need not be surjective).
    """

    __slots__ = ("source", "target", "vertex_map", "report")

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        missing = [v for v in range(source.n_vertices) if v not in self.vertex_map]
        if missing:
            raise ComplexMismatch(f"vertex map not total: missing {missing}")
        self.report = validate_map(self.vertex_map, source, target)
        if not self.report.simplicial:
            raise InvalidSimplex("vertex map is not simplicial")

    @property
    def valid(self) -> bool:
        return self.report.valid

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]

    def __repr__(self):
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def pushforward_simplex(vertex_map, s):
    """(sign, image) of a canonical simplex; sign 0 if the image degenerates."""
    image = tuple(vertex_map[v] for v in s)
    sign = sort_sign(image)
    return sign, tuple(sorted(image))


def pushforward_matrix(f: SimplicialMap, n: int) -> IntMatrix:
    """Matrix of the degree-n pushforward in the canonical bases."""
    src = f.source.simplices(n)
    tgt = f.target.simplices(n)
    M = IntMatrix(len(tgt), len(src))
    for j, s in enumerate(src):
        sign, image = pushforward_simplex(f.vertex_map, s)
        if sign:
            M.data[f.target.index(image)][j] += sign
    return M


def homology_of_complex(X: SimplicialComplex, n: int) -> HomologyGroup:
    """H_n(X) = ker d_n / im d_{n+1} in invariant-factor form, off one
    reduction of X's chain complex up to degree n + 1."""
    if n < 0 or n > X.dim:
        raise DegreeOutOfRange(f"degree {n} outside 0..{X.dim}")
    degrees = range(min(n + 1, X.dim) + 1)
    return chain_homology([boundary_columns(X, m) for m in degrees], [n])[n]


def homology_groups(X: SimplicialComplex) -> list:
    """[H_0(X), ..., H_dim(X)], off one reduction of X's whole chain complex."""
    degrees = range(X.dim + 1)
    groups = chain_homology([boundary_columns(X, n) for n in degrees], degrees)
    return [groups[n] for n in degrees]
