"""Exceptions raised by the disk geometry kernel."""


class DiskGeomError(Exception):
    """Base class for all package errors."""


class ZeroRadius(DiskGeomError):
    """Circle or sphere radius is zero or not finite, or its 1/r or reduced center c/r is past the double range."""


class NonUnitNormal(DiskGeomError):
    """Halfplane normal is not unit length."""


class NotNormalized(DiskGeomError):
    """Vector self-product differs from -1 beyond tolerance."""


class NotSpacelike(DiskGeomError):
    """Vector has nonnegative self-product and cannot represent a disk."""


class SingularMatrix(DiskGeomError):
    """Matrix determinant falls below the singularity gate."""


class DegenerateConfiguration(SingularMatrix):
    """Disk configuration has a singular Gramian."""


class NotTangent(DiskGeomError):
    """Input disks are not mutually tangent within tolerance."""


class DegenerateTriple(DiskGeomError):
    """Tangency constraints are rank deficient."""


class ComplexRoots(DiskGeomError):
    """Quadratic constraint has no real roots within tolerance."""


class InvalidIndex(DiskGeomError):
    """Reflection slot outside 0..n+1, which is 0..3 for disks."""


class InvalidSeed(DiskGeomError):
    """Seed quadruple or curvature list cannot start a gasket."""


class EmptyGasket(DiskGeomError):
    """Gasket holds no disks."""


class NonFiniteOutput(DiskGeomError):
    """A gasket disk, SVG viewport, report value, residual, center difference or solver root is not a finite double."""


class BadDimension(DiskGeomError):
    """Ambient dimension below 2, or a planar xdot/ydot read on a vector of n != 2."""
