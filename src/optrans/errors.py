"""Exception hierarchy shared across the package."""


class OptransError(Exception):
    """Base class for all library errors."""


class NoRoot(OptransError):
    """A first-order condition has constant sign over the search range."""


class GridSnapError(OptransError):
    """An off-grid action is farther than half a cell from every grid point."""


class SizeLimit(OptransError):
    """The requested LP exceeds the configured variable cap."""


class Infeasible(OptransError):
    """The LP admits no feasible point (grid too coarse for the constraints)."""


class Unbounded(OptransError):
    """The LP objective is unbounded; treated as an internal error here."""


class DegenerateBasis(OptransError):
    """Basis duals are inconsistent and no fallback recovered them."""


class IllPosed(OptransError):
    """Arguments violate a structural precondition (ordering, interiority)."""


class NotStrictlyDipped(OptransError):
    """Pair extraction needs a strictly single-dipped contact set."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ShootingFailed(OptransError):
    """No sign change of the terminal residual over the admissible bracket."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class StiffStep(OptransError):
    """Adaptive step size underflow near the pairing collision point."""


class UnknownPreset(OptransError):
    """Preset id not in the catalog."""


class ParamOutOfRange(OptransError):
    """Preset parameter outside its documented range."""


class ParseError(OptransError):
    """A problem spec file failed to parse; carries the offending field."""

    def __init__(self, message, field=None, line=None):
        super().__init__(message)
        self.field = field
        self.line = line


class SchemaVersionMismatch(ParseError):
    """Spec file schema version is not supported."""


class ShapeMismatch(ParseError):
    """Tabulated V/u dimensions disagree with the declared grids."""
