"""Machine checks of the structural claims behind the spectral sequences.

Each checker recomputes both sides of an exactness or isomorphism statement
from scratch and reports exact integer agreement, carrying concrete
witnesses (matrices, offending chains) on failure.  The W-row checker also
constructs the contracting homotopies explicitly, one per choice of base
lift, and multiplies out their defining identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product as iproduct

from .alternating import (
    AltBasis,
    alt_veps_matrix,
    alternating_homology,
    alternating_homology_kernel,
    alternating_kernel,
    eps_last_matrix,
    rho_matrix,
)
from .complexes import SimplicialMap, pushforward_matrix
from .intlinalg import IntMatrix, Subgroup, kernel_basis
from .multiplicity import Tower, ordered_lifts


@dataclass
class VerificationReport:
    name: str
    passed: bool = True
    details: list = field(default_factory=list)

    def fail(self, *info):
        self.passed = False
        self.details.append(info)

    def note(self, *info):
        self.details.append(info)


def _combo_index(combos) -> dict:
    return {T: i for i, T in enumerate(combos)}


def _drop_matrix(combos_k, combos_prev, i: int) -> IntMatrix:
    """Slot-i (1-based) forgetting map in the per-simplex tuple bases."""
    idx = _combo_index(combos_prev)
    M = IntMatrix(len(combos_prev), len(combos_k))
    for j, T in enumerate(combos_k):
        M.data[idx[T[: i - 1] + T[i:]]][j] += 1
    return M


def _rho_listing(combos_k, combos_prev, k: int) -> IntMatrix:
    """Alternating-signed sum of the k slot-forgetting maps."""
    idx = _combo_index(combos_prev)
    M = IntMatrix(len(combos_prev), len(combos_k))
    for j, T in enumerate(combos_k):
        for i in range(k):
            M.data[idx[T[:i] + T[i + 1 :]]][j] += -1 if i % 2 else 1
    return M


def _subgroups_equal(A_cols: IntMatrix, B_cols: IntMatrix) -> bool:
    rows = A_cols.rows
    return Subgroup(rows, A_cols) == Subgroup(rows, B_cols)


def check_W_row_exact(tower: Tower, n: int) -> VerificationReport:
    """Exactness of the multiplicity row of degree-n W-chains of the map
    ``tower.f`` augmented by the chains of Y, with explicit contracting
    homotopies, for the multiplicities up to min(k_max + 1, 3).

    Chains of a fixed degree split over the Y-simplex underneath, so the row
    is checked block by block in tuple coordinates; the transfer the W grid
    reads is tied back to the honest chain-level matrices at low
    multiplicity.
    """
    rep = VerificationReport(f"W-row-exact n={n}")
    f = tower.f
    k_cap = min(tower.k_max() + 1, 3)
    for delta in f.target.simplices(n):
        lifts = ordered_lifts(f, delta)
        N = len(lifts)
        combos = {0: [()]}
        top = k_cap + 1
        for k in range(1, top + 1):
            combos[k] = list(iproduct(lifts, repeat=k))
        rhos = {k: _rho_listing(combos[k], combos[k - 1], k) for k in range(1, top + 1)}
        # surjectivity onto the augmentation and two-step vanishing
        for k in range(2, top + 1):
            if not (rhos[k - 1] @ rhos[k]).is_zero():
                rep.fail("rho-square", delta, k)
        if Subgroup(1, rhos[1]) != Subgroup.full(1):
            rep.fail("augmentation-not-surjective", delta)
        # exactness: kernel at k is spanned by the image from k+1
        for k in range(1, k_cap + 1):
            ker = kernel_basis(rhos[k])
            if not _subgroups_equal(rhos[k + 1], ker):
                rep.fail("row-not-exact", delta, k, ker.cols)
        # contracting homotopy for every choice of base lift
        for t in lifts:
            S = {
                k: _prepend_matrix(combos[k], combos[k + 1], t)
                for k in range(0, k_cap + 1)
            }
            ident0 = _drop_matrix(combos[1], combos[0], 1) @ S[0]
            if ident0 != IntMatrix.identity(1):
                rep.fail("homotopy-augmentation", delta, t)
            for k in range(1, k_cap + 1):
                if _drop_matrix(combos[k + 1], combos[k], 1) @ S[k] != IntMatrix.identity(
                    len(combos[k])
                ):
                    rep.fail("homotopy-first-slot", delta, t, k)
                for i in range(1, k + 1):
                    lhs = _drop_matrix(combos[k + 1], combos[k], i + 1) @ S[k]
                    rhs = S[k - 1] @ _drop_matrix(combos[k], combos[k - 1], i)
                    if lhs != rhs:
                        rep.fail("homotopy-shift", delta, t, k, i)
                hom = rhos[k + 1] @ S[k] + S[k - 1] @ rhos[k]
                if hom != IntMatrix.identity(len(combos[k])):
                    rep.fail("homotopy-not-contracting", delta, t, k)
    _tie_to_chain_level(rep, tower, n, k_cap)
    return rep


def _prepend_matrix(combos_k, combos_next, t) -> IntMatrix:
    idx = _combo_index(combos_next)
    M = IntMatrix(len(combos_next), len(combos_k))
    for j, T in enumerate(combos_k):
        M.data[idx[(t,) + T]][j] += 1
    return M


def _tie_to_chain_level(rep, tower, n, k_top):
    """The W grid's transfer columns, read off the lift table and twisted
    back by (-1)^n, are rho on raw chains: conjugating by the listing
    parities carries one onto the other (k = 1 lands on Y)."""
    f, lifts = tower.f, tower.lifts
    twist = -1 if n % 2 else 1
    for k in range(1, k_top + 1):
        Zk = tower.W(k)
        R_src = _listing_to_raw(Zk, n)
        if k == 1:
            R_tgt = IntMatrix.identity(f.target.n_simplices(n))
        else:
            R_tgt = _listing_to_raw(Zk.below, n)
        cells = IntMatrix.from_sparse(lifts.transfer_columns(k, n), lifts.n_cells(k - 1, n))
        if rho_matrix(Zk, n) @ R_src != R_tgt @ cells.scaled(twist):
            rep.fail("listing-model-mismatch", k)
    # kernel of the augmentation is exactly the image of the first transfer
    A = pushforward_matrix(f, n)
    img = rho_matrix(tower.W(2), n)
    if not _subgroups_equal(img, kernel_basis(A)):
        rep.fail("global-kernel-image")


def _listing_to_raw(Z, n) -> IntMatrix:
    """Signed bijection from per-simplex tuple coordinates, the W grid's
    cells, to raw W-chains."""
    cols = []
    for delta in Z.f.target.simplices(n):
        lifts = ordered_lifts(Z.f, delta)
        for T in iproduct(lifts, repeat=Z.k):
            rec = Z.products[(delta, T)]
            v = [0] * Z.n_simplices(n)
            v[Z.index(rec.canonical)] = rec.sign
            cols.append(v)
    return IntMatrix.from_columns(cols, rows=Z.n_simplices(n))


def _std_boundary(N: int, k: int) -> IntMatrix:
    """Augmented boundary of the standard (N-1)-simplex in face degree k-1."""
    src = list(combinations(range(N), k))
    tgt = list(combinations(range(N), k - 1)) if k >= 2 else [()]
    idx = {t: i for i, t in enumerate(tgt)}
    M = IntMatrix(len(tgt), len(src))
    for j, I in enumerate(src):
        for pos in range(k):
            face = I[:pos] + I[pos + 1 :]
            M.data[idx[face]][j] += (-1) ** pos
    return M


def check_D_row_exact(tower: Tower, n: int) -> VerificationReport:
    """Exactness of the alternating multiplicity row of degree-n chains of
    the map ``tower.f``.

    Over a Y-simplex with N lifts the alternating generators in multiplicity
    k biject with k-subsets, and the signed vertical transfer is carried to
    (-1)^(k+n-1) times the augmented boundary of the standard (N-1)-simplex.
    That boundary complex is acyclic, which is the exactness statement.
    """
    rep = VerificationReport(f"D-row-exact n={n}")
    f = tower.f
    N_max = tower.k_max()
    bases = {k: AltBasis(tower.D(k), n) for k in range(1, N_max + 1)}
    eps_alt = {
        k: alt_veps_matrix(bases[k], bases[k - 1]) for k in range(2, N_max + 1)
    }
    # augmentation to the chains of Y in alternating coordinates
    aug = pushforward_matrix(f, n) @ bases[1].to_raw_matrix
    for delta in f.target.simplices(n):
        lifts = ordered_lifts(f, delta)
        N = len(lifts)
        for k in range(1, N + 1):
            idx_src = bases[k].gens_over(delta)
            if len(idx_src) != len(list(combinations(range(N), k))):
                rep.fail("basis-count", delta, k)
                continue
            if k == 1:
                # the unsigned augmentation hits the base simplex once per
                # lift; the degree sign then matches the k = 1 exponent
                row = [aug.data[f.target.index(delta)][j] for j in idx_src]
                if row != [1] * N:
                    rep.fail("sign-identity-augmentation", delta, row)
                continue
            idx_tgt = bases[k - 1].gens_over(delta)
            R = IntMatrix(
                len(idx_tgt),
                len(idx_src),
                [[eps_alt[k].data[i][j] for j in idx_src] for i in idx_tgt],
            )
            expected = _std_boundary(N, k).scaled((-1) ** (k + n - 1))
            if R != expected:
                rep.fail("sign-identity", delta, k, R.data, expected.data)
        # exactness of the restricted augmented column (subset coordinates)
        chain = [_std_boundary(N, k) for k in range(1, N + 1)]
        for k in range(1, N):
            ker = kernel_basis(chain[k - 1])
            if not _subgroups_equal(chain[k], ker):
                rep.fail("column-not-exact", delta, k)
        if chain and kernel_basis(chain[N - 1]).cols != 0:
            rep.fail("top-not-injective", delta)
    # the identification above plus acyclicity gives global exactness; also
    # confirm the two ends directly on the assembled matrices
    if Subgroup(aug.rows, aug) != Subgroup.full(aug.rows):
        rep.fail("augmentation-not-surjective")
    if N_max >= 2:
        if not _subgroups_equal(eps_alt[2], kernel_basis(aug)):
            rep.fail("kernel-not-image-at-1")
        for k in range(2, N_max):
            if not _subgroups_equal(eps_alt[k + 1], kernel_basis(eps_alt[k])):
                rep.fail("kernel-not-image", k)
        if kernel_basis(eps_alt[N_max]).cols != 0:
            rep.fail("top-not-injective-global")
    return rep


def check_D2_kernel(
    tower: Tower, n: int, samples: int = 100, seed: int = 0
) -> VerificationReport:
    """The alternating double-point chains of the map ``tower.f`` project onto
    exactly the kernel of the induced map on degree-n chains, with the
    constructive reduction: any kernel element is brought to zero by
    subtracting projected alternating pair generators, strictly shrinking the
    coefficient norm."""
    rep = VerificationReport(f"D2-kernel n={n}")
    f = tower.f
    D2 = tower.D(2)
    basis = AltBasis(D2, n)
    A = pushforward_matrix(f, n)
    proj = eps_last_matrix(D2, n) @ basis.to_raw_matrix
    if not _subgroups_equal(proj, kernel_basis(A)):
        rep.fail("subgroup-mismatch")
        return rep
    # pair generators indexed by (delta, ordered pair of distinct lifts)
    X = f.source
    rng = random.Random(seed)
    K = kernel_basis(A)
    lifts_of = {delta: ordered_lifts(f, delta) for delta in f.target.simplices(n)}
    sign_of = {}
    for delta, lifts in lifts_of.items():
        for T in lifts:
            rec = tower.D(1).products[(delta, (T,))]
            sign_of[rec.canonical] = (rec.sign, delta, T)
    for _ in range(samples):
        if K.cols == 0:
            rep.note("kernel-trivial")
            break
        coeffs = [rng.randint(-3, 3) for _ in range(K.cols)]
        c = K.mul_vec(coeffs)
        start_norm = sum(abs(x) for x in c)
        steps = 0
        while any(c):
            j = next(i for i, x in enumerate(c) if x)
            s = X.simplices(n)[j]
            u, delta, T = sign_of[s]
            a_s = u * c[j]
            # some other lift over delta must carry the opposite signed weight
            partner = None
            for T2 in lifts_of[delta]:
                if T2 == T:
                    continue
                s2 = tuple(sorted(T2))
                a2 = sign_of[s2][0] * c[X.index(s2)]
                if a2 * a_s < 0:
                    partner = (T2, s2)
                    break
            if partner is None:
                rep.fail("no-reduction-partner", s, c)
                return rep
            T2, s2 = partner
            alpha = 1 if a_s > 0 else -1
            u2 = sign_of[s2][0]
            c[j] -= alpha * u
            c[X.index(s2)] += alpha * u2
            steps += 1
            if steps > start_norm:
                rep.fail("reduction-did-not-terminate", start_norm)
                return rep
    return rep


def check_houston(tower: Tower, k: int, n: int) -> VerificationReport:
    """Alternating homology agrees between the k-fold fibre product and the
    distinct-point space of the map ``tower.f``, and the inclusion induces the
    identification."""
    rep = VerificationReport(f"houston k={k} n={n}")
    W, D = tower.W(k), tower.D(k)
    ah_w = alternating_homology_kernel(W, n)
    ah_d = alternating_homology(D, n)
    ah_d_kernel = alternating_homology_kernel(D, n)
    if ah_d != ah_d_kernel:
        rep.fail("alt-basis-vs-kernel", str(ah_d), str(ah_d_kernel))
    if ah_w != ah_d:
        rep.fail("W-vs-D", str(ah_w), str(ah_d))
    # inclusion of chain groups carries one alternating subgroup onto the other
    if 0 <= n <= min(W.dim, D.dim):
        J = IntMatrix(W.n_simplices(n), D.n_simplices(n))
        for j, s in enumerate(D.simplices(n)):
            tuples = tuple(D.vertex_tuples[v] for v in s)
            image = tuple(sorted(W.tuple_index[t] for t in tuples))
            J.data[W.index(image)][j] = 1
        alt_d = alternating_kernel(D, n)
        alt_w = alternating_kernel(W, n)
        if not _subgroups_equal(J @ alt_d, alt_w):
            rep.fail("inclusion-not-onto-alternating")
    return rep


def run_all(f: SimplicialMap, seed: int = 0) -> list:
    """Every structural check, plus collapse and cohomology round-trips, all
    reading one tower of f, in the degrees n <= min(2, dim Y)."""
    from .cohomology import alt_star_matrix, theta_matrix
    from .spectral import check_collapse_first, first_ss

    reports = []
    if not f.valid:
        rep = VerificationReport("validate")
        rep.fail("map-invalid", f.report.failures[:5])
        return [rep]
    tower = Tower(f)
    top = min(2, f.target.dim)
    for n in range(top + 1):
        reports.append(check_W_row_exact(tower, n))
        reports.append(check_D_row_exact(tower, n))
        reports.append(check_D2_kernel(tower, n, samples=25, seed=seed))
    for k in range(1, tower.k_max() + 1):
        for n in range(top + 1):
            reports.append(check_houston(tower, k, n))
    for kind in ("Alt", "W"):
        cr = check_collapse_first(first_ss(tower, kind))
        rep = VerificationReport(f"collapse-first {kind}")
        if not cr.ok:
            rep.fail("collapse", cr.details[:5])
        reports.append(rep)
    rep = VerificationReport("cochain-round-trip")
    for k in range(1, tower.k_max() + 1):
        for n in range(top + 1):
            basis = AltBasis(tower.D(k), n)
            if basis.n_gens == 0:
                continue
            R = theta_matrix(basis)
            T = alt_star_matrix(basis)
            if R @ T != IntMatrix.identity(basis.n_gens):
                rep.fail("theta-altstar", k, n)
            back = T @ R
            A = alternating_kernel(tower.D(k), n)
            if back @ A != A:
                rep.fail("altstar-theta", k, n)
    reports.append(rep)
    return reports
