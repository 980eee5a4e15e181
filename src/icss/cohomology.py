"""Integer cochains on the multiple-point spaces.

Everything is finite rank, so a cochain is just a coordinate vector against
the canonical chain basis and dualizing a complex transposes its matrices.
Two models of the alternating cochains are carried: functionals on the free
alternating basis of D^k (the dual of ``alt_columns``), and alternating
functionals on raw chains (the transposed raw boundary restricted to
``alternating_kernel``).  The two cohomologies are computed independently,
so a test can compare them.
"""

from __future__ import annotations

from .alternating import AltBasis, alt_columns, alternating_kernel, complex_degrees
from .complexes import boundary_matrix
from .intlinalg import HomologyGroup, chain_homology, restrict, sparse_columns
from .multiplicity import MultiplePointComplex


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
    and H^n is its homology in degree top - n.
    """
    top = len(columns) - 1
    groups = chain_homology(columns[::-1], [top - n for n in degrees])
    return {n: groups[top - n] for n in degrees}


def alternating_cochain_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Degree-n cohomology of the alternating-cochain subcomplex of the
    raw dual complex.

    The slot permutations act by signed involutions, so the transposed
    swap conditions are the chain-level ones: ``alternating_kernel`` is
    also a basis of the alternating functionals, and each transposed raw
    boundary is restricted to the kernels once.
    """
    kernels = [alternating_kernel(Z, m) for m in complex_degrees(Z, n)]
    last = len(kernels) - 1
    columns = [
        sparse_columns(restrict(boundary_matrix(Z.complex, m + 1).transpose(), A, kernels[m + 1]))
        if m < last
        else [{} for _ in range(A.cols)]
        for m, A in enumerate(kernels)
    ]
    return cochain_homology(columns, [n])[n]


def dual_alternating_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Degree-n cohomology of the dual of the free alternating basis complex."""
    bases = [AltBasis(Z, m) for m in complex_degrees(Z, n)]
    return cochain_homology(dual_columns(alt_columns(bases)), [n])[n]
