"""Exact-arithmetic workbench for point-line incidence geometry.

Rational points and complex lines with exact incidence counting, the
direction sphere with its Grassmannian embedding, hierarchical cube
covers with shift graphs, and the near-orthogonal region builder, plus
seeded generators, text serialization, and a CLI.
"""

from .exact import (
    ComplexLine,
    ComplexPoint,
    Flat2,
    FlatMeet,
    GaussianRational,
    RVector4,
    Rational,
    embed_flat,
    embed_r4,
    flat_intersect,
    incident,
    intersect_lines,
    line_through,
)
from .directions import (
    ComplexLinearMap,
    Direction,
    SpherePoint,
    Subspace2,
    apply_mobius,
    direction_of,
    dist_deg,
    gamma_arg,
    gr_dist_deg,
    is_orthogonal,
    pi_lambda,
    sphere_disk_cover,
    tau_hat,
    to_sphere,
)
from .incidence import (
    IncidenceReport,
    RichLine,
    beck_stats,
    check_rich_bound,
    count_incidences,
    rich_lines,
    similar_copies,
    sum_product,
)
from .covering import (
    CoverResult,
    FreeCube,
    ShiftGraph,
    SignedPermutation,
    build_shift_graph,
    normalize_points,
    run_covering,
    verify_cover,
)
from .regions import (
    FlatBundle,
    Region,
    RegionAssignment,
    canonical_frame,
    combine,
    count_crossings,
    verify_regions,
)
from .diagnostics import (
    ArcSpec,
    DiagnosticParams,
    SparseInvariant,
    SystemView,
    balance_lambda,
    classify_points,
    hemisphere_split,
    is_gamma_point,
    is_na_point,
    refine_step,
    separate_to_orthogonal,
)
from .generators import gen_bundle_fixture, gen_erdos, gen_random_system

__version__ = "0.1.0"
