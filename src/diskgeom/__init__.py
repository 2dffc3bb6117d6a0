"""Tangent-disk geometry: Minkowski lifts, Descartes solvers, Apollonian gaskets."""

import importlib

from .errors import (
    BadDimension,
    ComplexRoots,
    DegenerateConfiguration,
    DegenerateTriple,
    DiskGeomError,
    EmptyGasket,
    InvalidIndex,
    InvalidSeed,
    NonFiniteOutput,
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
from .nsphere import canonical_simplex_config

# gasket loads on the first use of one of its names; it imports numpy only where it builds arrays
_GASKET_NAMES = {"gasket", "Gasket", "GasketDisk", "GenerationLimits", "canonical_quadruple", "generate", "render_svg"}


def __getattr__(name: str):
    if name not in _GASKET_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.gasket")  # which also binds the module's name here
    return module if name == "gasket" else getattr(module, name)


# the n-dimensional names of the shared kernel
NSphere = Circle
lift_sphere = lift
inner_sphere = inner
verify_generalized_n = verify_generalized

__version__ = "0.1.0"
__all__ = sorted({name for name in globals() if name[0] != "_"} - {"importlib"} | _GASKET_NAMES)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _GASKET_NAMES)
