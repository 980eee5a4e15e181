"""A disc folded onto the six-vertex projective plane.  The image has
2-torsion in degree one, and the spectral sequence locates it on the
multiplicity-two column: the double-point space is a circle carrying a free
slot swap, whose alternating homology in degree zero is Z/2.
Run with  python demos/projective_plane_torsion.py
"""

from icss import Tower, get_fixture, homology_of_complex, icss
from icss.alternating import alternating_homology

f = get_fixture("disc_to_rp2")
Y = f.target
print("image complex:", Y)
for n in range(Y.dim + 1):
    print(f"  H_{n}(Y) = {homology_of_complex(Y, n)}")

D2 = Tower(f).D(2)
print("\ndouble-point space:", D2.complex)
print("it is a circle:", [homology_of_complex(D2.complex, n) for n in range(2)])
print("alternating homology under the slot swap:")
for n in range(D2.dim + 1):
    print(f"  AH_{n}(D^2) = {alternating_homology(D2, n)}")

ss = icss(f)
print("\npage one of the spectral sequence:")
for p in range(ss.dc.p_max + 1):
    for q in range(ss.dc.q_max + 1):
        g = ss.page_group(1, p, q)
        if not g.is_trivial:
            print(f"  E^1_{p},{q} = {g}")

print("\nconvergence, degree by degree:")
for n in range(Y.dim + 1):
    report = ss.e_infinity(n)
    graded = ", ".join(f"{cell}: {g}" for cell, g in report.graded if not g.is_trivial)
    print(f"  H_{n} = {report.total_homology}  [{graded or 'trivial'}]")
