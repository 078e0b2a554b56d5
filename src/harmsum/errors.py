"""Typed errors shared across the package, and the limits that raise them.

The CLI maps these onto process exit codes: bad input / unusable parameters
exit 2, cap and resource refusals exit 3, numerical truncation failures exit 4.

Every layer takes its limits from here: the caps on n, the default memory
budget (half of physical memory) and the two checks that raise CapExceeded
and ResourceLimit before anything is allocated.
"""

from __future__ import annotations

import math
import os


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


MINSUM_CAP = 48
GAP_CAP = 26
ENUM_CAP = 24


def _physical_memory_gib() -> float | None:
    """The machine's physical memory in GiB; None where the platform does
    not report it."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        total = 0
    return total / 2**30 if total > 0 else None


PHYSICAL_GIB = _physical_memory_gib()  # no estimate above it runs, whatever the budget
MEMORY_GIB = PHYSICAL_GIB / 2 if PHYSICAL_GIB else 8.0  # default budget of every memory check


def _check_cap(n: int, cap: float) -> None:
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the cap of {cap}")


def _check_memory(est: int, memory_gib: float) -> None:
    """Refuse an estimated allocation of `est` bytes above the budget or
    above physical memory, where the platform reports it, and a NaN budget,
    which no comparison would catch."""
    if math.isnan(memory_gib):
        raise ValueError("the memory budget is NaN GiB")
    for limit, name in ((memory_gib, "budget"), (PHYSICAL_GIB, "of physical memory")):
        if limit is not None and est > limit * 2**30:
            gib = est / 2**30
            # a limit whose short form reads back as it, as a typed budget
            # does, prints in that form, any other with the digits gib needs;
            # gib with the fewest significant digits that show it above that
            given = float(f"{limit:g}") == limit
            p = next(
                (p for p in range(2, 17)
                 if float(f"{gib:.{p}g}") > (limit if given else float(f"{limit:.{p}g}"))), 17
            )
            shown = f"{limit:g}" if given else f"{limit:.{p}g}"
            raise ResourceLimit(f"estimated {gib:.{p}g} GiB exceeds the {shown} GiB {name}")
