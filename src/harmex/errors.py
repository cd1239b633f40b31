"""Exception hierarchy shared by all harmex modules.

Every error carries a short machine-readable ``category`` string that the
CLI emits on stderr, so batch scripts can dispatch on failures without
parsing prose.
"""

import math


class HarmexError(Exception):
    """Base class for all harmex errors."""

    category = "error"

    def __init__(self, message, path=None):
        self.path = path
        if path is not None:
            message = f"{message} [{path}]"
        super().__init__(message)


class ConfigError(HarmexError):
    """Invalid or inconsistent configuration / arguments."""

    category = "config"


class LengthMismatchError(ConfigError):
    """Sequence lengths inconsistent beyond the allowed slack."""

    category = "length-mismatch"


class DomainError(HarmexError):
    """Input values outside the mathematical domain of an operation."""

    category = "domain"


class AliasingError(DomainError):
    """A requested frequency is at or above the Nyquist frequency."""

    category = "aliasing-domain"


class FormatError(HarmexError):
    """A file does not conform to the expected on-disk format."""

    category = "format"


class DegenerateReferenceError(DomainError):
    """The reference signal of a relative metric is identically zero."""

    category = "degenerate-reference"


class UndefinedMetricError(DomainError):
    """A metric has an empty support (e.g. no voiced frames)."""

    category = "undefined-metric"


def check_positive(name, value, *, allow_zero=False, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is finite and > 0 (>= 0 if allow_zero).

    A bare ``value <= 0`` test lets NaN through, so every such check is here.
    """
    if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise error(f"{name} must be finite and {bound}, got {value!r}")


def check_count(name, value) -> int:
    """``round(value)`` for a length derived from other values, if in [0, 2**31).

    Call it before any array has that length; NaN and inf are rejected too.
    """
    if not 0 <= value < 2**31:
        raise ConfigError(f"{name} of {value!r} is not in [0, 2**31)")
    return round(value)


def check_integer(name, value, minimum) -> int:
    """``int(value)`` if ``value`` is a whole number >= minimum; 2.5, NaN and inf are rejected."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < minimum:
        raise ConfigError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return whole
