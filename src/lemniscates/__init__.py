"""Lemniscates: polynomial lemniscates and pseudo-lemniscates, conformal
welding fingerprints, level-curve continuation, and the degree-4
non-injectivity region."""

from .conformal import (
    DiskMap,
    ExteriorMap,
    exterior_map,
    interior_map,
    riemann_maps,
)
from .counterexample import (
    ArcSpec,
    BoundaryChain,
    PolarGrid,
    Table1Row,
    build_boundary,
    build_d4_chain,
    chain_from_table,
    d4_table,
    design_counterexample,
    f4_polynomial,
    noninjectivity_degree,
    reproduce_table,
)
from .curves import (
    SampledCurve,
    count_preimages,
    ellipse,
    is_jordan,
    unit_circle,
    winding_number,
)
from .errors import (
    ChainClosureError,
    LemniscateError,
    NumericalError,
    PreconditionError,
    RootFindingError,
    SolverError,
    TraceError,
)
from .fingerprint import (
    BlaschkeProduct,
    CircleMap,
    circle_map_of_blaschke,
    fingerprint_of_curve,
    identity_report,
    is_proper,
    is_proper_oracle,
    nth_root_lift,
    pseudo_lemniscate,
)
from .levelcurves import (
    TracedArc,
    level_components,
    solve_target,
    trace_gradient,
    trace_level,
)
from .polynomials import (
    Polynomial,
    RationalMap,
    critical_points,
    critical_values,
    normalize_leading,
    poly_roots,
)

__version__ = "0.1.0"
