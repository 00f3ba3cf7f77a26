"""Exception types shared across the package."""


class GridFactorsError(Exception):
    """Base class for all errors raised by this package."""


class GridStructureError(GridFactorsError, ValueError):
    """Invalid grid data: dangling endpoints, duplicate ids, bad values."""


class CaseParseError(GridFactorsError, ValueError):
    """Malformed case file.

    Carries the 1-based line number of the offending input line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CaseConversionError(GridFactorsError, ValueError):
    """Case data cannot be converted to a grid (e.g. zero-reactance branch)."""


class IslandingError(GridFactorsError):
    """The grid (or a modification of it) is disconnected: ``components`` holds
    the partition found by traversal. Without it, a numerical guard refused an
    ill-conditioned update of a connected grid; ``criterion`` holds the value."""

    def __init__(self, message, criterion=None, components=None):
        super().__init__(message)
        self.criterion = criterion
        self.components = components


class DegenerateSwitchError(GridFactorsError):
    """A redundant closing: the switch's terminals are already merged."""
