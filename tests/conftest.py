import pytest

import harmsum.analytic as analytic


@pytest.fixture(params=["m", "h", "u"])
def refine(request, monkeypatch):
    """A function that refines the density pass one way, by the fixture's
    parameter: 'm' doubles the kernel's M, 'h' halves every trapezoid
    step, 'u' doubles the first cut; call it with the cut the unrefined
    pass used. Undone after the test."""

    def apply(cut: float) -> None:
        if request.param == "m":
            monkeypatch.setattr(analytic, "KERNEL_M", 2 * analytic.KERNEL_M)
        elif request.param == "h":
            step = analytic._step
            monkeypatch.setattr(analytic, "_step", lambda spec, ax: step(spec, ax) / 2.0)
        else:
            monkeypatch.setattr(analytic, "DENSITY_U", 2.0 * cut)

    apply.knob = request.param
    return apply
