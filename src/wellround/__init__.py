"""Well-rounded retract, flag subcomplexes and boundary cohomology in exact
rational arithmetic, for GL_n(Z), SL_n(Z) and their congruence subgroups."""

from .exactla import (
    CertificateError, LPResult, NotPositiveDefinite, RatMatrix, Rational,
    format_rational, hnf, lp, parse_rational, saturation, snf,
)
from .lattice import (
    GramForm, GroupSpec, MinimaResult, config_equiv, config_stabilizer,
    is_well_rounded, minimal_vectors, normalize, vectors_below,
)
from .flags import (
    FlagOrbitSet, RationalFlag, flag_canonical, flag_equivalent, flag_orbits,
    in_parabolic, standard_flag, subflags_with_signs,
)
from .retraction import (
    FlagSplitting, OrthantBound, RetractionTrace, ScalingVector, flag_split,
    orthant_bound, retract, retract_path, scale_along_flag, stopping_mu,
)
from .cells import (
    Cell, OrbitComplex, cell_cofaces, cell_faces, cell_from_config,
    enumerate_W, flags_respected_by, is_small_enough, respects_flag,
    subcomplex_WF,
)
from .quotient import (
    ChainMap, HomologyResult, QuotientComplex, barycentric_quotient,
    cohomology, homology,
)
from .boundary import (
    DoubleComplex, RestrictionReport, SpectralPage, boundary_homology,
    build_double_complex, e1_page, face_map, restriction, spectral_sequence,
    total_cohomology,
)

__version__ = "0.1.0"
