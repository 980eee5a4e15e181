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

from .alternating import AltBasis, alt_Z, alt_differentials, alternating_kernel
from .complexes import Chain, boundary_matrix
from .errors import NotAlternating
from .intlinalg import HomologyGroup, IntMatrix, homology_pair, restrict
from .multiplicity import MultiplePointComplex, SkElement, sk_matrix


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
    of such functionals.
    """
    Z, n = basis.Z, basis.n
    cols = [alt_Z(Chain(Z.complex, n, {s: 1}), Z).to_vector() for s in Z.simplices(n)]
    # coords of Alt on each raw generator
    T = basis.coordinates(IntMatrix.from_columns(cols, rows=Z.n_simplices(n)))
    return T.transpose()


def theta_matrix(basis: AltBasis) -> IntMatrix:
    """Evaluation of an alternating raw functional on the signed product
    representatives of the basis generators; inverse to alt_star."""
    return basis.selector()


def is_alternating_cochain(Z: MultiplePointComplex, n: int, phi) -> bool:
    """Adjacent slot swaps act on functionals by the transposed matrices."""
    for i in range(Z.k - 1):
        sigma = SkElement.transposition(Z.k, i, i + 1)
        P = sk_matrix(Z, sigma, n)
        if P.transpose().mul_vec(list(phi)) != [-x for x in phi]:
            return False
    return True


def theta_apply(basis: AltBasis, phi) -> list:
    """theta on a concrete functional; rejects non-alternating input."""
    if not is_alternating_cochain(basis.Z, basis.n, phi):
        raise NotAlternating("functional is not alternating")
    return theta_matrix(basis).mul_vec(list(phi))


def alternating_cochain_basis(Z: MultiplePointComplex, n: int) -> IntMatrix:
    """Basis of the alternating functionals on raw degree-n chains.

    The slot permutations act by signed involutions, so the transposed
    conditions coincide with the chain-level ones.
    """
    return alternating_kernel(Z, n)


def alternating_cochain_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Degree-n cohomology of the alternating-cochain subcomplex of the
    raw dual complex."""
    if Z.dim < 0 or n > Z.dim:
        return HomologyGroup(0)
    A_n = alternating_cochain_basis(Z, n)
    if n + 1 <= Z.dim:
        delta_n = restrict(
            boundary_matrix(Z.complex, n + 1).transpose(),
            A_n,
            alternating_cochain_basis(Z, n + 1),
        )
    else:
        delta_n = IntMatrix(0, A_n.cols)
    if n >= 1:
        delta_prev = restrict(
            boundary_matrix(Z.complex, n).transpose(),
            alternating_cochain_basis(Z, n - 1),
            A_n,
        )
    else:
        delta_prev = IntMatrix(A_n.cols, 0)
    return homology_pair(delta_n, delta_prev)


def dual_alternating_homology(Z: MultiplePointComplex, n: int) -> HomologyGroup:
    """Degree-n cohomology of the dual of the free alternating basis complex."""
    return cochain_homology(*alt_differentials(Z, n))
