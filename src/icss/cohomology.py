"""Integer cochains on the multiple-point spaces.

Everything is finite rank, so a cochain is just a coordinate vector against
the canonical chain basis and dualizing a complex transposes its matrices.
Two models of the alternating cochains are carried: functionals on the free
alternating basis of D^k, and alternating functionals on raw chains.  The
two are identified by a pair of mutually inverse matrices: precomposition
with the alternation operator one way, evaluation on the basis
representatives the other.
"""

from __future__ import annotations

from .alternating import AltBasis, alt_differentials, alternating_kernel
from .complexes import boundary_matrix, sort_sign
from .intlinalg import HomologyGroup, IntMatrix, homology_pair, restrict
from .multiplicity import MultiplePointComplex


def dualize(diffs: list) -> list:
    """Transpose a chain complex d_1, d_2, ... into its cochain complex
    delta^0, delta^1, ...; compositions stay zero."""
    return [d.transpose() for d in diffs]


def cochain_homology(d_n: IntMatrix, d_next: IntMatrix) -> HomologyGroup:
    """Degree-n cohomology of the dual of a chain complex given the chain
    differentials into and out of level n."""
    return homology_pair(d_next.transpose(), d_n.transpose())


def alt_star_matrix(basis: AltBasis) -> IntMatrix:
    """Precomposition with the alternation operator: a functional on the
    alternating basis becomes an alternating functional on raw chains.

    Returns the raw_rank x basis_rank matrix applied to coordinate vectors
    of such functionals.  Alternating the product simplex of the lifts L
    gives the generator of sorted(L), up to the listing parity and the sign
    of the sort, so each product record over a degree-n Y-simplex fills one
    entry and every other raw simplex alternates to zero.
    """
    Z, n = basis.Z, basis.n
    col = {(g.delta, g.lifts): j for j, g in enumerate(basis.gens)}
    T = IntMatrix(Z.n_simplices(n), basis.n_gens)
    for (delta, lifts), rec in Z.products.items():
        if len(delta) == n + 1:
            j = col[(delta, tuple(sorted(lifts)))]
            T.data[Z.index(rec.canonical)][j] = rec.sign * sort_sign(lifts)
    return T


def theta_matrix(basis: AltBasis) -> IntMatrix:
    """Evaluation of an alternating raw functional on the signed product
    representatives of the basis generators; inverse to alt_star."""
    return basis.selector()


def alternating_cochain_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Degree-n cohomology of the alternating-cochain subcomplex of the
    raw dual complex.

    The slot permutations act by signed involutions, so the transposed
    swap conditions are the chain-level ones: ``alternating_kernel`` is
    also a basis of the alternating functionals.
    """
    if Z.dim < 0 or n > Z.dim:
        return HomologyGroup(0)
    A_n = alternating_kernel(Z, n)
    if n + 1 <= Z.dim:
        delta_n = restrict(
            boundary_matrix(Z.complex, n + 1).transpose(),
            A_n,
            alternating_kernel(Z, n + 1),
        )
    else:
        delta_n = IntMatrix(0, A_n.cols)
    if n >= 1:
        delta_prev = restrict(
            boundary_matrix(Z.complex, n).transpose(),
            alternating_kernel(Z, n - 1),
            A_n,
        )
    else:
        delta_prev = IntMatrix(A_n.cols, 0)
    return homology_pair(delta_n, delta_prev)


def dual_alternating_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Degree-n cohomology of the dual of the free alternating basis complex."""
    return cochain_homology(*alt_differentials(Z, n))
