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
    MINKOWSKI_METRIC,
    MINKOWSKI_METRIC_INV,
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
    solve_fourth_curvature,
    solve_fourth_disk,
    tangency_residual,
    tangent_disk_with_curvature,
    vieta_reflect,
)
from .gasket import (
    SPECTRUM_QUANTUM,
    Gasket,
    GasketDisk,
    GenerationLimits,
    RenderStyle,
    canonical_quadruple,
    curvature_spectrum,
    generate,
    render_svg,
)
from .nsphere import (
    NSphere,
    NVector,
    canonical_simplex_config,
    gramian_n,
    inner_sphere,
    lift_sphere,
    soddy_gosset_residual,
    verify_generalized_n,
)

__version__ = "0.1.0"
