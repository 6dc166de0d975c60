"""Exception types raised by the comparison pipeline."""

__all__ = ["CvCompareError", "ParseError", "ShapeError", "CoverageError", "DegenerateDataError"]


class CvCompareError(ValueError):
    """Base class for all validation errors raised by this package."""

    component = "validation"  # the part of the pipeline whose check failed, as the CLI reports it


class ParseError(CvCompareError):
    """Malformed input file (bad header, row, or value); carries a line number."""

    component = "data"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(CvCompareError):
    """A (dataset, classifier) score matrix is ragged or incomplete."""

    component = "data"


class CoverageError(CvCompareError):
    """A classifier is missing for one or more datasets."""

    component = "data"


class DegenerateDataError(CvCompareError):
    """Statistic undefined for the given data (for example zero variance)."""

    component = "frequentist"
