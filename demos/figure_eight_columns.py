"""A hexagonal circle with two opposite vertices glued maps onto a wedge of
two circles.  H_1 of the image has rank two, but the source only supplies
rank one; the missing generator enters through the double-point column of
the spectral sequence.  Run with  python demos/figure_eight_columns.py
"""

from icss import Tower, get_fixture, homology_of_complex, icss
from icss.verify import check_D2_kernel, check_W_row_exact, run_all

f = get_fixture("figure_eight")
print("source circle:", f.source)
print("image wedge:  ", f.target)
print("H_1 of the source:", homology_of_complex(f.source, 1))
print("H_1 of the image: ", homology_of_complex(f.target, 1))

ss = icss(f)
print("\ncolumn contributions in total degree one:")
print("  E^1_0,1 =", ss.page_group(1, 0, 1), " (cycles upstairs)")
print("  E^1_1,0 =", ss.page_group(1, 1, 0), " (double points)")
report = ss.e_infinity(1)
print("assembled:", report.total_homology, "- converged:", report.converged)

# the structural checks behind the convergence
print("\nrow exactness (degree 1):", check_W_row_exact(Tower(f), 1).passed)
print("double points span the kernel:", check_D2_kernel(Tower(f), 1).passed)
print("full verification:", all(r.passed for r in run_all(f)))
