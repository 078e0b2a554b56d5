"""Exact minimal signed harmonic sums, minimal gaps, cosine-product
kernels, the limiting density, and Monte Carlo comparison tools.

`import harmsum` loads no layer: each public name is imported from the
module that defines it when it is first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# every public name once, under the module that defines it
_EXPORTS = {
    "errors": (
        "CapExceeded", "CertificateError", "DivergedTruncation", "HarmsumError", "InvalidSpec",
        "Overflow", "RangeUnreachable", "ResourceLimit", "TruncationFailure",
    ),
    "exact": (
        "DecayProfile", "GapResult", "SearchResult", "SignVector", "TritVector", "TwoStageResult",
        "decay_profile", "enumerate_sums", "evaluate_signs", "min_gap", "min_gaps",
        "min_signed_sum", "min_signed_sums", "parse_exact", "two_stage_approx", "two_stage_for_n",
    ),
    "sequences": (
        "GrowthEnvelope", "SequenceSpec", "SequenceTerms", "count_up_to", "generate",
        "growth_envelope", "is_prime", "terms_array",
    ),
    "analytic": (
        "BoundCheckReport", "DensitySample", "RhoValue", "check_decay", "check_exponential_bound",
        "cosine_product", "cosine_product_limit", "count_far_from_integer", "count_near_multiples",
        "densities", "density", "expectation_identity", "exponential_bound_suite",
        "interval_probability", "sandwich_suite", "sigma_minus", "smooth_bump",
        "smooth_bump_transform",
    ),
    "montecarlo": (
        "HistogramRow", "SimulationConfig", "SimulationReport", "exhaustive_probability",
        "histogram", "simulate",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "double_double", "cli")
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """A public name, or a submodule, imported on its first read and then
    kept in the package's namespace."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
