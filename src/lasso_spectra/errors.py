"""Exception types shared across the package."""


class SpectraError(Exception):
    """Base class for all lasso-spectra errors."""


class IrrationalLength(SpectraError):
    """An edge length or breakpoint is not an exact rational."""


class BadBreakpoints(SpectraError):
    """Potential breakpoints are not strictly increasing from 0 to the edge length."""


class NoPendantEdge(SpectraError):
    """The graph has no pendant edge (p >= 1 is required by the boundary conditions)."""


class BadIndex(SpectraError):
    """Pendant-edge index outside 1..p."""


class NearPole(SpectraError):
    """The Weyl-function denominator is below threshold: lambda sits on the spectrum."""


class ConstantFunction(SpectraError):
    """Trigonometric polynomial has no positive-frequency term, hence no period."""


class UnresolvedMultiplicity(SpectraError):
    """The rho-order of the characteristic function's zero at rho = 0 is unresolved."""


class ScanResolutionTooCoarse(SpectraError):
    """Fewer roots found than the unperturbed grid predicts: scan missed roots."""


class AssignmentAmbiguity(SpectraError):
    """A root could not be assigned to a unique unperturbed grid point."""


class InsufficientCatalog(SpectraError):
    """Spectrum catalog does not cover the requested truncation depth."""


class DegenerateLeadingTerm(SpectraError):
    """Leading derivative of the reference function vanishes, contradicting mu0."""


class GridTooCoarse(SpectraError):
    """Finite-difference grid resolution below the supported minimum."""


class HalfPeriodZeroWarning(UserWarning):
    """tau/2 is a zero of the reference polynomial; folded boundary convention in use."""


class WindowViolationWarning(UserWarning):
    """A low-spectrum catalog entry deviates from its grid point by more than the window."""
