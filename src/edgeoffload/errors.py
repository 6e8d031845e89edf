"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so new failure modes should
subclass one of the three roots rather than raising bare ValueError.
"""


class EdgeOffloadError(Exception):
    """Base class for all package errors."""


class ConfigError(EdgeOffloadError):
    """Bad or missing configuration (ranges, keys, experiment specs)."""


class ValidationError(EdgeOffloadError):
    """Semantically invalid data: parameters, allocations, shapes, sizes."""


class InvalidParameterError(ValidationError):
    """A numeric parameter is non-positive or non-finite."""


class InvalidAllocationError(ValidationError):
    """An allocation fraction is inconsistent with the offload decision."""


class ShapeError(ValidationError):
    """Vector / tensor dimensions do not match."""


class FileFormatError(EdgeOffloadError):
    """A versioned data file has a bad header or a malformed record."""
