"""Multiple-point spaces of finite simplicial maps and the spectral
sequences computing the homology of their images, over the integers."""

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    boundary_matrix,
    build_complex,
    homology_groups,
    homology_of_complex,
    pushforward_matrix,
    validate_map,
)
from .alternating import AltBasis, alternating_homology
from .errors import IcssError
from .fixtures import FIXTURES, fixture_names, get_fixture
from .intlinalg import (
    HomologyGroup,
    IntMatrix,
    Subgroup,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    subgroup_quotient,
)
from .io import MapDocument, document_from_map, emit_map, emit_report, parse_map
from .multiplicity import MultiplePointComplex, Tower, projection_eps
from .spectral import (
    DoubleComplex,
    SpectralSequence,
    build_double,
    check_collapse_first,
    first_ss,
    gvzss,
    gvzss_report,
    icss,
    icss_report,
)
from .verify import (
    check_D2_kernel,
    check_D_row_exact,
    check_houston,
    check_W_row_exact,
    run_all,
)

__version__ = "0.14.0"
