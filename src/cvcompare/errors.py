"""Exception types raised by the comparison pipeline."""


class CvCompareError(ValueError):
    """Base class for all validation errors raised by this package."""


class ParseError(CvCompareError):
    """Malformed input file (bad header, row, or value); carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(CvCompareError):
    """A (dataset, classifier) score matrix is ragged or incomplete."""


class CoverageError(CvCompareError):
    """A classifier is missing for one or more datasets."""


class DegenerateDataError(CvCompareError):
    """Statistic undefined for the given data (for example zero variance)."""
