import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmsum

PUBLIC = [
    "BoundCheckReport", "CapExceeded", "CertificateError", "DecayProfile", "DensitySample",
    "DivergedTruncation", "GapResult", "GrowthEnvelope", "HarmsumError", "HistogramRow",
    "InvalidSpec", "Overflow", "RangeUnreachable", "ResourceLimit", "RhoValue", "SearchResult",
    "SequenceSpec", "SequenceTerms", "SignVector", "SimulationConfig", "SimulationReport",
    "TritVector", "TruncationFailure", "TwoStageResult", "check_decay", "check_exponential_bound",
    "cosine_product", "cosine_product_limit", "count_far_from_integer", "count_near_multiples",
    "count_up_to", "decay_profile", "densities", "density", "enumerate_sums", "evaluate_signs",
    "exhaustive_probability", "expectation_identity", "exponential_bound_suite", "generate",
    "growth_envelope", "histogram", "interval_probability", "is_prime", "min_gap", "min_gaps",
    "min_signed_sum", "min_signed_sums", "parse_exact", "sandwich_suite", "sigma_minus",
    "simulate", "smooth_bump", "smooth_bump_transform", "terms_array", "two_stage_approx",
    "two_stage_for_n",
]

LOADED = """
import sys
{statement}
print(*sorted(m for m in sys.modules if m == "harmsum" or m.startswith("harmsum.")))
print("numpy" in sys.modules)
"""


def _fresh(script: str) -> list[str]:
    """The stdout lines of script run in a fresh interpreter on this tree."""
    src = str(Path(harmsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "statement, wanted, unwanted",
    [
        ("from harmsum import min_signed_sum", {"exact"}, {"analytic", "double_double", "montecarlo", "cli"}),
        ("import harmsum.analytic", {"analytic"}, {"exact", "montecarlo", "cli"}),
        ("from harmsum import density", {"analytic"}, {"exact", "montecarlo", "cli"}),
        ("from harmsum import simulate", {"montecarlo"}, {"exact", "cli"}),
    ],
    ids=["min_signed_sum", "import_analytic", "density", "simulate"],
)
def test_a_name_loads_only_the_layers_it_uses(statement, wanted, unwanted):
    modules, _ = _fresh(LOADED.format(statement=statement))
    layers = {m.removeprefix("harmsum.") for m in modules.split()}
    assert wanted <= layers and not unwanted & layers


def test_bare_import_loads_no_layer_and_no_numpy():
    assert _fresh(LOADED.format(statement="import harmsum")) == ["harmsum", "False"]


def test_submodules_resolve_after_a_bare_import():
    script = "import harmsum\nprint(harmsum.exact.__name__, harmsum.cli.__name__)"
    assert _fresh(script) == ["harmsum.exact harmsum.cli"]
    with pytest.raises(AttributeError, match="no_such_name"):
        harmsum.no_such_name  # noqa: B018
    assert not hasattr(harmsum, "min_signed_summ")


def test_star_import_binds_each_public_name_to_its_definition():
    assert harmsum.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(harmsum))
    names = {}
    exec("from harmsum import *", names)
    for name in PUBLIC:
        obj = names[name]
        assert obj.__module__.startswith("harmsum.")
        assert getattr(sys.modules[obj.__module__], name) is obj is getattr(harmsum, name)
