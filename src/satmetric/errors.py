"""Exception hierarchy shared by all satmetric modules."""


class SatmetricError(Exception):
    """Base class for every error raised by this package."""


class DefinitionError(SatmetricError):
    """A definition document (instrument, weights, house of quality,
    fishbone) is malformed or violates its schema."""


class ConfigError(SatmetricError):
    """An analysis setting has the wrong type (a string for a number, a
    non-finite number) or is not one of its allowed values."""


class DataError(SatmetricError):
    """Response data cannot be ingested or generated: malformed file,
    header mismatch, zero accepted rows, infeasible synthesis target."""


class ComputationError(SatmetricError):
    """A statistic is undefined for the given input (too few items,
    zero variance, empty dimension, mismatched item sets)."""
