"""Exception hierarchy shared across the package."""


class PairDesignError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(PairDesignError):
    """A matrix expected to be SPD failed Cholesky factorization."""


class DegenerateUpdate(PairDesignError):
    """Rank-one update denominator collapsed; inverse state is corrupted."""


class AlreadySelected(PairDesignError):
    """A candidate pair is already part of the selected set."""


class InstanceTooLarge(PairDesignError):
    """Problem size exceeds a guard meant for exhaustive computation."""


class EmptyHeap(PairDesignError):
    """Peek or extract attempted on an empty heap."""


class StaleStampCorruption(PairDesignError):
    """A lazy-search entry claims a refresh time later than the current iteration."""


class ParseError(PairDesignError):
    """Malformed CSV input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatch(PairDesignError):
    """Row width or index range inconsistent with the feature matrix."""


class InvalidLabel(ParseError):
    """A label outside {-1, +1} was encountered."""


class DegenerateLabelSet(PairDesignError):
    """AUC requested for labels lacking a positive or a negative example."""


class ConfigError(PairDesignError):
    """Invalid run configuration (maps to CLI usage errors)."""
