"""Lemniscates: polynomial lemniscates and pseudo-lemniscates, conformal
welding fingerprints, level-curve continuation, and the degree-4
non-injectivity region."""

from .conformal import (
    DiskMap,
    ExteriorMap,
    exterior_map,
    interior_map,
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
    f4_polynomial,
    noninjectivity_degree,
    region_contains,
    reproduce_table,
)
from .curves import (
    SampledCurve,
    count_preimages,
    ellipse,
    image_curve,
    is_jordan,
    resample,
    unit_circle,
    winding_number,
)
from .errors import (
    ChainClosureError,
    GridResolutionError,
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
    RectGrid,
    blaschke_eval,
    blaschke_model,
    circle_map_of_blaschke,
    fingerprint_of_curve,
    fingerprint_of_pseudolemniscate,
    identity_report,
    is_proper,
    is_proper_oracle,
    nth_root_lift,
    pseudo_lemniscate,
    verify_identity,
)
from .levelcurves import (
    ArgChangeReaches,
    ClosedLoop,
    HitsGradient,
    TracedArc,
    arg_change_along,
    level_component_enclosing,
    solve_target,
    trace_gradient,
    trace_level,
)
from .polynomials import (
    Polynomial,
    RationalMap,
    construct_counterexample_poly,
    critical_points,
    critical_values,
    design_counterexample,
    normalize_leading,
    poly_derivative,
    poly_eval,
    poly_roots,
)

__version__ = "0.1.0"
