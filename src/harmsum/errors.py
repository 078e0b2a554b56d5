"""Typed errors shared across the package.

The CLI maps these onto process exit codes: bad input / unusable parameters
exit 2, cap and resource refusals exit 3, numerical truncation failures exit 4.
"""


class HarmsumError(Exception):
    """Base class for all package errors."""


class InvalidSpec(HarmsumError, ValueError):
    """A sequence specification or list of terms that describes no valid sequence."""


class Overflow(HarmsumError, ValueError):
    """A term, generated or given, would not fit in 64 bits."""


class CapExceeded(HarmsumError):
    """Requested N is above the cap for this operation, or too large for
    the 64-bit encodings of the exact searches."""


class CertificateError(HarmsumError):
    """An exact result failed its independent run-time check: a bug, not bad input."""


class ResourceLimit(HarmsumError):
    """Estimated memory for an operation exceeds the configured budget."""


class RangeUnreachable(HarmsumError):
    """The target lies outside the reachable range of signed sums."""


class DivergedTruncation(HarmsumError):
    """The certified cosine-product bound cannot reach eps: its rounding part alone exceeds it."""


class TruncationFailure(HarmsumError):
    """The density integrals could not be truncated at the requested accuracy."""
