"""Exception hierarchy shared by all harmex modules.

Every error carries a short machine-readable ``category`` string that the
CLI emits on stderr, so batch scripts can dispatch on failures without
parsing prose.
"""

import math

import numpy as np

SAMPLE_LIMIT = 1e60  # samples within it keep every stage's products and sums finite


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


def from_file(path, record, *args):
    """``record(*args)``, where a HarmexError it raises becomes a FormatError naming ``path``."""
    try:
        return record(*args)
    except HarmexError as exc:
        raise FormatError(str(exc), path=path) from None


def check_positive(name, value, *, allow_zero=False, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is a finite real > 0 (>= 0 if allow_zero).

    A bare ``value <= 0`` test lets NaN through, so every such check is here.
    """
    try:
        ok = math.isfinite(value) and (value >= 0 if allow_zero else value > 0)
    except (TypeError, OverflowError):  # not a real number, or an int beyond float64
        ok = False
    if not ok:
        bound = ">= 0" if allow_zero else "> 0"
        raise error(f"{name} must be finite and {bound}, got {value!r}")


def check_count(name, value) -> int:
    """``round(value)`` for a length derived from other values, if in [0, 2**31).

    Call it before any array has that length; NaN and inf are rejected too, and
    so is a value in [2**31 - 0.5, 2**31), which rounds to 2**31.
    """
    if not (0 <= value < 2**31 and round(value) < 2**31):
        raise ConfigError(f"{name} of {value!r} does not round into [0, 2**31)")
    return round(value)


def check_integer(name, value, minimum, maximum=math.inf, error=ConfigError) -> int:
    """``int(value)`` if it is a whole number in [minimum, maximum]; 2.5, NaN and inf are not."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or not minimum <= whole <= maximum:
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise error(f"{name} must be a whole number {bound}, got {value!r}")
    return whole


def check_type(name, value, kind) -> None:
    """Raise ConfigError unless ``value`` is a ``kind``, before any of its fields is read."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {kind.__name__}, got {type(value).__name__}")


def check_array(name, values, ndim, minimum=None, error=DomainError, limit=None) -> np.ndarray:
    """``values`` as a float64 array of ``ndim`` dimensions, finite and >= minimum,
    or, given a ``limit``, strictly within +-limit: one ``min`` and one ``max``,
    which NaN and inf fail too.

    ConfigError if they do not convert or have other dimensions, else ``error``.
    A float32 signaling NaN converts without its warning and fails as non-finite.
    """
    try:
        with np.errstate(invalid="ignore"):
            array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be real numbers: {exc}") from None
    if array.ndim != ndim:
        raise ConfigError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if limit is not None:
        if not -limit < array.min(initial=0.0) <= array.max(initial=0.0) < limit:
            raise error(f"{name} must be finite and within +-{limit:.0e}".replace("e+", "e"))
    elif not np.all(np.isfinite(array)) or (minimum is not None and np.any(array < minimum)):
        raise error(f"{name} must be finite" + ("" if minimum is None else f" and >= {minimum}"))
    return array
