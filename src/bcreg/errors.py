"""Exception types shared across the package."""

__all__ = [
    "BcregError",
    "InvalidDataError",
    "InvalidParameterError",
    "InsufficientDataError",
    "ShapeError",
    "DegenerateDataError",
    "InvalidStateError",
    "SequencingError",
    "CsvFormatError",
    "CsvParseError",
]


class BcregError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDataError(BcregError, ValueError):
    """Input data contains non-finite values or is otherwise unusable."""


class InvalidParameterError(BcregError, ValueError):
    """A parameter is outside its admissible range."""


class InsufficientDataError(BcregError, ValueError):
    """Too few rows for the requested operation."""


class ShapeError(BcregError, ValueError):
    """Array dimensions do not match the operation's contract."""


class DegenerateDataError(BcregError, ValueError):
    """Data is degenerate (e.g. all pairwise distances are zero)."""


class InvalidStateError(BcregError, RuntimeError):
    """Objects passed together are in incompatible states."""


class SequencingError(BcregError, RuntimeError):
    """Stream updates arrived out of order."""


class CsvFormatError(BcregError, ValueError):
    """CSV file does not follow the expected layout."""


class CsvParseError(BcregError, ValueError):
    """A CSV cell could not be parsed as a number.

    Carries the 1-based data row and column of the offending cell.
    """

    def __init__(self, message: str, row: int, column: int):
        super().__init__(message)
        self.row = row
        self.column = column
