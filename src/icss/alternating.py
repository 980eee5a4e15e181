"""Alternating chains on the multiple-point spaces and the maps between them.

The symmetric group permuting the k slots of W^k and D^k acts on chains,
reordering the lift tuple of each product simplex; the alternating part
(sigma acts by its sign) has, on D^k, a concrete free basis: one generator
per Y-simplex and per increasing k-subset of its lifts, the D^k grid cells
that ``multiplicity.grid_cells`` carries to their raw alternations.  This
module builds that basis, converts between raw and alternating coordinates,
assembles the transfer rho (signed sum of slot projections, as sparse
columns) and the alternating chain complexes, and keeps a tower's
alternating complexes on it, one copy each.  The last-slot projection on
alternating chains, the alternating grid's vertical differential, is read
off the lift table (``LiftTable.transfer_columns``), not built here.
"""

from __future__ import annotations

from operator import neg

from .complexes import boundary_matrix, pushforward_simplex
from .errors import ComplexMismatch, DegreeOutOfRange, NotAlternating
from .intlinalg import (
    HomologyGroup,
    IntMatrix,
    chain_homology,
    kernel_basis,
    restrict,
    sparse_columns,
)
from .multiplicity import MultiplePointComplex, Tower, grid_cells, projection_eps


def alternating_kernel(Z: MultiplePointComplex, n: int) -> IntMatrix:
    """Basis (columns) of the alternating subgroup of the degree-n chains,
    computed as the integer kernel of the stacked swap conditions: for each
    pair of adjacent slots, the chain plus its image under exchanging them
    is zero."""
    m = Z.n_simplices(n)
    if Z.k == 1:
        return IntMatrix.identity(m)
    rows: list = []
    for i in range(Z.k - 1):
        swap = [Z.tuple_index[t[:i] + (t[i + 1], t[i]) + t[i + 2 :]] for t in Z.vertex_tuples]
        block = IntMatrix.identity(m)
        for j, s in enumerate(Z.simplices(n)):
            sign, image = pushforward_simplex(swap, s)
            block.data[Z.index(image)][j] += sign
        rows.extend(block.data)
    return kernel_basis(IntMatrix(len(rows), m, rows))


class AltBasis:
    """Free basis of the alternating degree-n chains of D^k.

    The generators are the D^k grid cells of degree n: one per Y-simplex
    delta and increasing k-subset I of its lifts.  ``gens[j]`` is the
    record and column j of ``to_raw_matrix`` the alternation that
    ``grid_cells`` gives the cell (see there for the sign rule), so the
    generator holds its own product simplex with the record's sign, and
    raw coordinates are recovered by a signed lookup there.
    """

    def __init__(self, Z: MultiplePointComplex, n: int):
        if Z.kind != "D":
            raise ComplexMismatch("the alternating basis is built on D^k")
        self.Z = Z
        self.n = n
        self.gens, columns = grid_cells(Z, n)
        self.n_gens = len(self.gens)
        self.to_raw_matrix = IntMatrix.from_sparse(columns, Z.n_simplices(n))

    def coordinates(self, R: IntMatrix) -> IntMatrix:
        """Alternating coordinates of the raw columns of R; raises
        NotAlternating unless every column is an alternating chain.

        Row g is R's row at g's product simplex times ``g.sign``: the value
        of an alternating chain on each generator, gathered from its raw
        coordinates.  ``coordinates(to_raw_matrix)`` is the identity."""
        rows = []
        for g in self.gens:
            row = R.data[self.Z.index(g.canonical)]
            rows.append(row if g.sign == 1 else list(map(neg, row)))
        A = IntMatrix(self.n_gens, R.cols, rows)
        if self.to_raw_matrix @ A != R:
            raise NotAlternating("a column is not an alternating chain")
        return A


def alt_basis(tower: Tower, Z: MultiplePointComplex, n: int) -> AltBasis:
    """The alternating basis of the tower's space Z in degree n, built at the
    first call and kept on the tower (``Tower.memo``), so that the Alt grid
    and the checks of one map share it."""
    return tower.memo(("basis", Z.kind, Z.k, n), lambda: AltBasis(Z, n))


def alt_complex(tower: Tower, Z: MultiplePointComplex) -> list:
    """``alt_columns`` of the tower's space Z in the degrees 0..dim Y, in the
    tower's bases, made at the first call and kept on the tower: the Alt
    grid's column and the checks' free-basis route read it.
    ``chain_homology`` consumes its columns, so a caller that reduces them
    reduces a copy."""
    degrees = range(tower.f.target.dim + 1)
    return tower.memo(
        ("alt-complex", Z.k), lambda: alt_columns([alt_basis(tower, Z, q) for q in degrees])
    )


def rho_columns(Z: MultiplePointComplex, n: int) -> list:
    """The transfer on raw degree-n chains, as {row: entry} columns without
    zero entries: simplex s goes to the sum over the slots i of (-1)^(i+1)
    times its pushforward by ``projection_eps(Z, i)``, onto ``Z.below``.

    For k = 1 this is the pushforward by f, down to Y itself.
    """
    projections = [projection_eps(Z, i) for i in range(1, Z.k + 1)]
    target = projections[0].target
    columns = []
    for s in Z.simplices(n):
        col: dict = {}
        for i, g in enumerate(projections):
            sign, image = pushforward_simplex(g.vertex_map, s)
            if sign:
                row = target.index(image)
                col[row] = col.get(row, 0) + (-sign if i % 2 else sign)
        columns.append({row: a for row, a in col.items() if a})
    return columns


def alt_boundary_matrix(basis_n: AltBasis, basis_prev: AltBasis | None) -> IntMatrix:
    """Simplicial boundary in alternating coordinates (degree n to n-1)."""
    Z, n = basis_n.Z, basis_n.n
    if n == 0:
        return IntMatrix(0, basis_n.n_gens)
    if basis_prev is None or basis_prev.n != n - 1 or basis_prev.Z is not Z:
        raise DegreeOutOfRange("basis_prev must be the degree n-1 basis of the same complex")
    if basis_n.n_gens == 0:
        return IntMatrix(basis_prev.n_gens, 0)
    return basis_prev.coordinates(boundary_matrix(Z.complex, n) @ basis_n.to_raw_matrix)


def alt_columns(bases: list) -> list:
    """The alternating chain complex of D^k as ``chain_homology`` reads it:
    entry m holds the sparse columns of the boundary out of degree m, in the
    free bases ``bases[m]`` (an ``AltBasis``) and ``bases[m - 1]``."""
    return [
        sparse_columns(alt_boundary_matrix(basis, bases[m - 1] if m else None))
        for m, basis in enumerate(bases)
    ]


def kernel_columns(Z: MultiplePointComplex, kernels: list) -> list:
    """The alternating subcomplex of the raw chains of Z as ``chain_homology``
    reads it: entry m holds the raw boundary out of degree m, restricted once
    to the alternating kernels ``kernels[m]`` and ``kernels[m - 1]``."""
    return [
        sparse_columns(restrict(boundary_matrix(Z.complex, m), A, kernels[m - 1]))
        if m
        else [{} for _ in range(A.cols)]
        for m, A in enumerate(kernels)
    ]


def complex_degrees(Z: MultiplePointComplex, n: int) -> range:
    """The degrees 0..min(n + 1, dim Z) that a complex on Z must span to give
    its (co)homology in degree n.  Raises DegreeOutOfRange for n < 0."""
    if n < 0:
        raise DegreeOutOfRange(f"degree {n} < 0")
    return range(min(n + 1, Z.dim) + 1)


def alternating_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Homology of the alternating chain complex of D^k via its free basis."""
    bases = [AltBasis(Z, m) for m in complex_degrees(Z, n)]
    return chain_homology(alt_columns(bases), [n])[n]
