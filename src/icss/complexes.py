"""Abstract simplicial complexes, boundary and pushforward matrices and
validated simplicial maps.

Vertices are dense integer indices; the canonical representative of a
geometric simplex is its strictly increasing vertex tuple.  Reorderings are
identified up to permutation sign, so each geometric simplex contributes one
oriented generator to the chain groups.  A complex is built in one sweep:
each given simplex is sorted once and its faces read into one set per
dimension.  ``maximal_faces`` reads maximal simplices off given ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat

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
    ``simplices_by_dim`` maps each dimension to distinct increasing vertex
    tuples, as :func:`face_closure` gives them.  Immutable after construction.
    """

    def __init__(self, n_vertices: int, simplices_by_dim, labels=None):
        self.n_vertices = n_vertices
        self.labels = tuple(labels) if labels is not None else tuple(range(n_vertices))
        if len(self.labels) != n_vertices:
            raise ValueError("label count mismatch")
        self.label_index = dict(zip(self.labels, range(n_vertices)))
        if len(self.label_index) != n_vertices:
            raise ValueError("duplicate labels")
        # per-dimension sorted tuples, lexicographic order fixes the bases
        self._simplices = {d: tuple(sorted(ss)) for d, ss in sorted(simplices_by_dim.items()) if ss}
        self._index = {d: dict(zip(ss, range(len(ss)))) for d, ss in self._simplices.items()}
        self.dim = max(self._simplices) if self._simplices else -1

    def simplices(self, dim: int) -> tuple:
        return self._simplices.get(dim, ())

    def all_simplices(self):
        return chain.from_iterable(self._simplices.values())

    def n_simplices(self, dim: int) -> int:
        return len(self._simplices.get(dim, ()))

    def index(self, s) -> int:
        return self._index[len(s) - 1][tuple(s)]

    def maximal_simplices(self) -> list:
        """Simplices that are faces of no other simplex."""
        return maximal_faces(self.all_simplices())

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


def face_closure(simplices) -> dict:
    """{d: set of the d-faces} of a list of sorted vertex sequences."""
    return {
        d: set(chain.from_iterable(map(combinations, simplices, repeat(d + 1))))
        for d in range(max(map(len, simplices), default=0))
    }


def maximal_faces(simplices) -> list:
    """The given increasing vertex tuples that are no proper face of another
    given one, each once, by dimension and then lexicographically."""
    given, faces = set(simplices), set()
    for size in set(map(len, given)):
        faces.update(chain.from_iterable(combinations(s, size) for s in given if len(s) > size))
    out = sorted(given - faces)
    out.sort(key=len)
    return out


def index_simplices(simplices, labels=None) -> tuple:
    """``(n_vertices, tops)``: the given simplices as increasing vertex-id
    tuples, labels read as their index in ``labels``.  Raises ``KeyError``
    for an unknown label, ``InvalidSimplex`` for an empty or repeated one."""
    if labels is None:
        given = list(map(tuple, simplices))
        n_vertices = 1 + max(map(max, filter(None, given)), default=-1)
    else:
        index, n_vertices = dict(zip(labels, range(len(labels)))), len(labels)
        if len(index) != n_vertices:
            raise ValueError("duplicate labels")
        given = list(map(tuple, map(map, repeat(index.__getitem__), simplices)))
    tops = list(map(tuple, map(sorted, map(set, given))))
    if not all(tops) or list(map(len, tops)) != list(map(len, given)):
        for s in given:
            if not s:
                raise InvalidSimplex("empty simplex")
            if len(set(s)) != len(s):
                raise InvalidSimplex(f"repeated vertex in simplex {s!r}")
    return n_vertices, tops


def build_complex(maximal_simplices, labels=None) -> SimplicialComplex:
    """Face closure of the given maximal simplices (vertex-id tuples), read
    off each given simplex once into per-dimension sets.

    With ``labels`` given, the tuples may use labels instead of indices and
    the vertex order is the label order; a labelled vertex that lies in no
    given simplex is a 0-simplex of its own.
    """
    n_vertices, tops = index_simplices(maximal_simplices, labels)
    by_dim = face_closure(tops)
    if labels is not None:
        by_dim[0] = list(zip(range(n_vertices)))
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
    """Check that vertex_map induces a finite-to-one surjective simplicial map.
    X is walked simplex by simplex only to name the failures of a map with an
    image (sorted, repeats kept) outside Y's simplices."""
    get = vertex_map.__getitem__
    images = set(map(tuple, map(sorted, map(map, repeat(get), X.all_simplices()))))
    failures, hit, in_y = [], images, set(Y.all_simplices())
    if not images <= in_y:
        hit = set()
        for s in X.all_simplices():
            image = tuple(sorted({vertex_map[v] for v in s}))
            if len(image) != len(s):
                failures.append(("collapsed", s))
            if image in in_y:
                hit.add(image)
            else:
                failures.append(("not-a-simplex", s))
    missed = [] if hit == in_y else [("missed", s) for s in Y.all_simplices() if s not in hit]
    kinds = {kind for kind, _ in failures}
    simplicial, finite_to_one = "not-a-simplex" not in kinds, "collapsed" not in kinds
    return MapReport(simplicial, finite_to_one, not missed, tuple(failures + missed))


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
