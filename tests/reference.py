"""Test-only oracles, on coordinate vectors and matrices.

Each one reaches its answer by a route the package does not take, so a test
that compares the two checks the package:

- ``alt_matrix`` alternates chains through the vertex-tuple action of the
  slot permutations (``sk_matrix``), not through the product records that
  ``AltBasis`` and ``alt_star_matrix`` read.
- ``page_one_homology`` takes the homology of page one under its
  differential from the presented page-one groups; page two must equal it.
"""

from icss.errors import NotAComplex
from icss.intlinalg import (
    IntMatrix,
    Subgroup,
    kernel_basis,
    solve_columns,
    subgroup_quotient,
)
from icss.multiplicity import SkElement, sk_matrix


def alt_matrix(Z, n: int) -> IntMatrix:
    """The alternation operator on the degree-n chains of Z: the sum of
    sign(sigma) * sigma over the slot permutations."""
    m = Z.n_simplices(n)
    total = IntMatrix(m, m)
    for sigma in SkElement.all(Z.k):
        total = total + sk_matrix(Z, sigma, n).scaled(sigma.sign)
    return total


def is_alternating(Z, n: int, v) -> bool:
    """Every adjacent slot swap negates the chain v (they generate S_k)."""
    for i in range(Z.k - 1):
        swap = SkElement.transposition(Z.k, i, i + 1)
        if sk_matrix(Z, swap, n).mul_vec(v) != [-x for x in v]:
            return False
    return True


def compose(s: SkElement, t: SkElement) -> SkElement:
    """The permutation s after t."""
    return SkElement(tuple(s.perm[t.perm[i]] for i in range(s.k)))


def bar_sigma(sigma: SkElement, j: int, k: int) -> SkElement:
    """The element of S_k fixing slot j (1-based) that shadows sigma in
    S_{k-1}, so that permuting slots commutes with forgetting slot j."""
    j0 = j - 1

    def d(i):
        return i if i < j0 else i + 1

    perm = []
    for i in range(k):
        if i < j0:
            perm.append(d(sigma.perm[i]))
        elif i == j0:
            perm.append(j0)
        else:
            perm.append(d(sigma.perm[i - 1]))
    return SkElement(tuple(perm))


def preimage_subgroup(M: IntMatrix, S: Subgroup) -> IntMatrix:
    """Columns generating {x : M @ x lies in S}."""
    stacked = M.hstack(S.basis.scaled(-1))
    K = kernel_basis(stacked)
    return IntMatrix(M.cols, K.cols, K.data[: M.cols])


def d0_rels(ss, p: int, q: int) -> IntMatrix:
    """Page-zero boundaries at cell (p, q), in its page-one cycle basis."""
    if ss.filtration == "columns":
        up = ss.dc.d_h(p, q + 1)
    else:
        up = ss.dc.d_v(p + 1, q)
    rels = solve_columns(ss._d0_kernel(p, q), up)
    if rels is None:
        raise NotAComplex("page-zero boundary is not a cycle")
    return rels


def page_one_homology(ss, p: int, q: int):
    """Homology of (page 1, its differential) at cell (p, q), computed from
    the presented page-one groups."""
    gens = ss._d0_kernel(p, q)
    out = ss._d1_matrix(p, q, gens)
    if ss.filtration == "columns":
        sp, sq, tp, tq = p + 1, q, p - 1, q
    else:
        sp, sq, tp, tq = p, q + 1, p, q - 1
    if ss.dc.rank(sp, sq):
        incoming = ss._d1_matrix(sp, sq, ss._d0_kernel(sp, sq))
    else:
        incoming = IntMatrix(gens.cols, 0)
    tgt_rels = d0_rels(ss, tp, tq) if tp >= 0 and tq >= 0 else IntMatrix(0, 0)
    # cycles: generator combinations whose page-one image is a relation
    cyc = Subgroup(gens.cols, preimage_subgroup(out, Subgroup(out.rows, tgt_rels)))
    bnd = Subgroup(gens.cols, incoming.hstack(d0_rels(ss, p, q)))
    return subgroup_quotient(cyc, bnd)
