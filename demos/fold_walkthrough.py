"""Walk through every stage of the pipeline on the smallest interesting map:
a path m - z - p folded onto a single edge, so the two endpoints m, p land
on top of each other.  Run with  python demos/fold_walkthrough.py
"""

from icss import IntMatrix, Tower, get_fixture, icss
from icss.alternating import AltBasis, rho_columns

f = get_fixture("fold")
X, Y = f.source, f.target
print("source:", X)
print("target:", Y)

# the Y edge (a, b) has two ordered lifts; z always sits over a
tower = Tower(f)
edge = (0, 1)
print("\nordered lifts of the edge", [tuple(X.labels[v] for v in t) for t in tower.lifts[edge]])

W2 = tower.W(2)
D2 = tower.D(2)
print("\nW^2 has", W2.n_simplices(0), "vertices and", W2.n_simplices(1), "edges")
print("D^2 has", D2.n_simplices(0), "vertices and", D2.n_simplices(1), "edges")
print("W^2 vertices:", W2.vertex_tuples)
print("D^2 vertices:", D2.vertex_tuples)

# the transfer rho kills diagonal simplices and subtracts slot projections
print("\nrho on W^2 vertices:")
print(IntMatrix.from_sparse(rho_columns(W2, 0), X.n_simplices(0)).data)

# one alternating generator per increasing pair of lifts
basis = AltBasis(D2, 1)
print("\nalternating basis of D^2 in degree 1:")
for g in basis.gens:
    print("  over", g.delta, "lifts", g.lifts, "sign", g.sign)

# the spectral sequence of the alternating double complex
ss = icss(f)
print("\npage one (p, q) -> group:")
for p in range(ss.dc.p_max + 1):
    for q in range(ss.dc.q_max + 1):
        print(f"  E^1_{p},{q} = {ss.page_group(1, p, q)}")

for n in range(Y.dim + 1):
    report = ss.e_infinity(n)
    print(f"degree {n}: total = {report.total_homology}, "
          f"target = {report.target_homology}, converged = {report.converged}")
