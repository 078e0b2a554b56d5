"""Typed errors shared across the package.

The CLI maps these onto process exit codes: bad input / unusable parameters
exit 2, cap and resource refusals exit 3, numerical truncation failures exit 4.
"""


class HarmsumError(Exception):
    """Base class for all package errors."""


class InvalidSpec(HarmsumError):
    """A sequence specification that cannot describe a valid sequence."""


class Overflow(HarmsumError):
    """A generated term would not fit in 64 bits."""


class CapExceeded(HarmsumError):
    """Requested N is above the configured cap for this operation."""


class CertificateError(HarmsumError):
    """An exact result failed its independent run-time check: a bug, not bad input."""


class ResourceLimit(HarmsumError):
    """Estimated memory for the search exceeds the configured budget."""


class RangeUnreachable(HarmsumError):
    """The target lies outside the reachable range of signed sums."""


class DivergedTruncation(HarmsumError):
    """The certified cosine-product truncation would exceed the hard term cap."""


class TruncationFailure(HarmsumError):
    """The density integrals could not be truncated at the requested accuracy."""
