"""Tangent-disk geometry: Minkowski lifts, Descartes solvers, Apollonian gaskets."""

from .errors import (
    BadDimension,
    ComplexRoots,
    DegenerateConfiguration,
    DegenerateTriple,
    DiskGeomError,
    EmptyGasket,
    InvalidIndex,
    InvalidSeed,
    NonUnitNormal,
    NotNormalized,
    NotSpacelike,
    NotTangent,
    SingularMatrix,
    ZeroRadius,
)
from .minkowski import (
    Circle,
    CircleVector,
    Disk,
    Halfplane,
    gramian,
    inner,
    inner_geometric,
    intersection_angle,
    invert4,
    invert_matrix,
    lift,
    minkowski_metric,
    minkowski_metric_inv,
    normalize,
    project,
    verify_generalized,
)
from .descartes import (
    Quadruple,
    descartes_residual,
    soddy_gosset_residual,
    solve_fourth_curvature,
    solve_fourth_disk,
    tangency_residual,
    tangent_disk_with_curvature,
    vieta_reflect,
)
from .gasket import (
    Gasket,
    GasketDisk,
    GenerationLimits,
    canonical_quadruple,
    generate,
    render_svg,
)
from .nsphere import canonical_simplex_config

# the n-dimensional names of the shared kernel
NSphere = Circle
lift_sphere = lift
inner_sphere = inner
verify_generalized_n = verify_generalized

__version__ = "0.1.0"
